package hotstuff

import (
	"math/rand"
	"testing"
	"time"

	"bftkit/internal/core"
	"bftkit/internal/crypto"
	"bftkit/internal/kvstore"
	"bftkit/internal/types"
)

// sendLog is a driver that records sends and never fires a timer.
type sendLog struct{ sent []types.Message }

func (d *sendLog) Now() time.Duration                          { return 0 }
func (d *sendLog) After(time.Duration, func()) (cancel func()) { return func() {} }
func (d *sendLog) Send(_, _ types.NodeID, m types.Message)     { d.sent = append(d.sent, m) }
func (d *sendLog) Rand() *rand.Rand                            { return rand.New(rand.NewSource(1)) }
func (d *sendLog) Busy() bool                                  { return false }

// TestDuplicateBlockFetchesOnce: a fetched block whose own parent is still
// missing draws one fetch for that parent, however often the block is
// delivered. Under duplication each repeated answer used to re-run the
// commit rule and fetch again, and each extra fetch drew one more answer.
func TestDuplicateBlockFetchesOnce(t *testing.T) {
	d := &sendLog{}
	hs := New(core.DefaultConfig(4)).(*HotStuff)
	core.NewReplica(1, core.DefaultConfig(4), d, hs, kvstore.New(), crypto.NewAuthority(1), core.Hooks{}).Start()

	var missing types.Hasher
	b := &Block{View: 3, Height: 2, Parent: missing.Str("never delivered").Sum(), Batch: types.NewBatch()}
	hs.highQC = &QC{Block: b.Digest(), View: 3, Height: 2}
	for range 2 {
		hs.OnMessage(0, &BlockMsg{Block: b})
	}
	fetches := 0
	for _, m := range d.sent {
		if f, ok := m.(*FetchBlockMsg); ok && f.Block == b.Parent {
			fetches++
		}
	}
	if fetches != 1 {
		t.Fatalf("a block delivered twice drew %d fetches of its missing parent, want 1", fetches)
	}
}
