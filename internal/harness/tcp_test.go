package harness

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bftkit/internal/byz"
	"bftkit/internal/core"
	"bftkit/internal/transport"
	"bftkit/internal/types"
)

// framer executes wrongly and, because a TCP frame names its own sender,
// mails each corrupted reply twice more to the client under two other
// replicas' IDs. It holds only its own keys, so every copy carries its
// own honest MAC.
type framer struct {
	node *atomic.Pointer[transport.Node]
	as   []types.NodeID
}

func (framer) Name() string     { return "framer" }
func (b framer) New() byz.Actor { return &framerActor{b: b} }

type framerActor struct {
	byz.Passive
	b   framer
	env core.Env
}

func (a *framerActor) Init(t *byz.Tools) { a.env = t.Env }

func (a *framerActor) OutgoingReply(rp *types.Reply) {
	rp.Result = append([]byte(nil), byz.CorruptValue...)
	node := a.b.node.Load()
	if node == nil {
		return
	}
	for _, id := range a.b.as {
		forged := *rp
		forged.Replica = id
		forged.Sig = a.env.Signer().MAC(rp.Client, forged.Digest())
		node.Send(id, rp.Client, &core.ReplyMsg{R: &forged})
	}
}

// resultRec records every completed request's result.
type resultRec struct {
	mu      sync.Mutex
	results map[uint64]string
}

func (r *resultRec) OnCommit(types.NodeID, types.View, types.SeqNum, *types.Batch, *types.CommitProof, time.Duration) {
}
func (r *resultRec) OnExecute(types.NodeID, types.SeqNum, *types.Batch, [][]byte, time.Duration) {}
func (r *resultRec) OnViewChange(types.NodeID, types.View, time.Duration)                        {}
func (r *resultRec) OnViolation(types.NodeID, error)                                             {}
func (r *resultRec) OnDone(_ types.NodeID, req *types.Request, result []byte, _ time.Duration) {
	r.mu.Lock()
	r.results[req.ClientSeq] = string(result)
	r.mu.Unlock()
}

// TestTCPFramedRepliesDoNotComplete: on TCP a reply's `from` is the
// frame's own claim, so one Byzantine pbft-mac replica can present its
// corrupted result as f+1 = 2 votes from replicas that never sent it.
// Replies follow the deployment's scheme: each carries a MAC keyed on the
// replica it names, which the framer cannot produce for another replica,
// so the client completes every request with the honest result. Under
// signatures (pbft) the same frames still pass: no Requester there checks
// reply signatures, and closing that half is authenticated links' work
// (ROADMAP item 19).
func TestTCPFramedRepliesDoNotComplete(t *testing.T) {
	var node atomic.Pointer[transport.Node]
	rec := &resultRec{results: make(map[uint64]string)}
	clu, err := NewTCPCluster(TCPOptions{Protocol: "pbft-mac", N: 4,
		Byzantine: map[types.NodeID]byz.Behavior{3: framer{node: &node, as: []types.NodeID{0, 1}}},
		Observers: []Observer{rec}})
	if err != nil {
		t.Fatal(err)
	}
	defer clu.Stop()
	clu.mu.Lock()
	node.Store(clu.replicas[3].Node)
	clu.mu.Unlock()
	const requests = 20
	for k := 1; k <= requests; k++ {
		clu.Submit(parityOp(k))
		if _, err := clu.AwaitDone(20 * time.Second); err != nil {
			t.Fatalf("request %d: %v", k, err)
		}
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	framed := 0
	for seq, res := range rec.results {
		if res == string(byz.CorruptValue) {
			framed++
			t.Logf("request %d completed with the framer's result", seq)
		}
	}
	if framed > 0 {
		t.Fatalf("%d of %d requests completed with the framed result", framed, requests)
	}
}
