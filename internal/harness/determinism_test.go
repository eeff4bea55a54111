package harness

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"testing"
	"time"

	"bftkit/internal/core"
	"bftkit/internal/kvstore"
	"bftkit/internal/types"
	"bftkit/internal/wire"
)

// streamHash hashes every delivery the simulator makes, in tap order:
// the virtual time, the receiver and the sender's wire frame.
type streamHash struct {
	t   *testing.T
	h   hash.Hash
	buf []byte
}

func (s *streamHash) OnCommit(types.NodeID, types.View, types.SeqNum, *types.Batch, *types.CommitProof, time.Duration) {
}
func (s *streamHash) OnExecute(types.NodeID, types.SeqNum, *types.Batch, [][]byte, time.Duration) {}
func (s *streamHash) OnViewChange(types.NodeID, types.View, time.Duration)                        {}
func (s *streamHash) OnViolation(types.NodeID, error)                                             {}
func (s *streamHash) OnDone(types.NodeID, *types.Request, []byte, time.Duration)                  {}

func (s *streamHash) OnDeliver(at time.Duration, from, to types.NodeID, m types.Message) {
	s.buf = binary.BigEndian.AppendUint64(s.buf[:0], uint64(at))
	s.buf = binary.BigEndian.AppendUint64(s.buf, uint64(to))
	var err error
	if s.buf, err = wire.AppendFrame(s.buf, from, m); err != nil {
		s.t.Fatalf("frame %T: %v", m, err)
	}
	s.h.Write(s.buf)
}

// TestDeliveryStreamDeterministic: one seed is one run, message for
// message. Every registration, and Q/U under a contended key (its
// clients repair on conflicts), delivers the same frames in the same
// order at the same virtual times on a rerun. Map iteration order
// leaking into a message, or into the order messages are sent, fails it.
func TestDeliveryStreamDeterministic(t *testing.T) {
	type workload struct {
		name, protocol string
		clients, ops   int
		op             func(client, k int) []byte
	}
	var runs []workload
	for _, name := range core.Names() {
		runs = append(runs, workload{name, name, 2, 8, func(cl, k int) []byte {
			return kvstore.Put(fmt.Sprintf("c%d-k%d", cl, k), []byte("v"))
		}})
	}
	runs = append(runs, workload{"qu-contended", "qu", 8, 10, func(int, int) []byte {
		return kvstore.Add("hot", 1)
	}})
	for _, w := range runs {
		t.Run(w.name, func(t *testing.T) {
			digest := func() (sum [sha256.Size]byte, completed int) {
				rec := &streamHash{t: t, h: sha256.New()}
				c := NewCluster(Options{Protocol: w.protocol, Clients: w.clients, Seed: 3, Observers: []Observer{rec}})
				c.Start()
				c.ClosedLoop(w.ops, w.op)
				c.RunUntilIdle(30 * time.Second)
				copy(sum[:], rec.h.Sum(nil))
				return sum, c.Metrics.Completed
			}
			sum1, done1 := digest()
			sum2, done2 := digest()
			if done1 != w.clients*w.ops {
				t.Fatalf("completed %d of %d requests", done1, w.clients*w.ops)
			}
			if sum1 != sum2 || done1 != done2 {
				t.Fatalf("same seed, different delivery streams: %x (%d done) vs %x (%d done)", sum1[:8], done1, sum2[:8], done2)
			}
		})
	}
}
