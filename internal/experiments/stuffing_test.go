package experiments

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"bftkit/internal/harness"
	"bftkit/internal/kvstore"
	"bftkit/internal/protocols/cheapbft"
	"bftkit/internal/protocols/fab"
	"bftkit/internal/protocols/kauri"
	"bftkit/internal/protocols/pbft"
	"bftkit/internal/protocols/poe"
	"bftkit/internal/protocols/sbft"
	"bftkit/internal/protocols/themis"
	"bftkit/internal/protocols/zyzzyva"
	"bftkit/internal/types"
)

// viewChangeMsgs holds an empty view-change message of each stable-leader
// protocol. They differ in what they carry, but all have NewView, Replica
// and Sig fields and a SigDigest method — all a stuffed message needs.
var viewChangeMsgs = map[string]func() types.Message{
	"pbft":     func() types.Message { return &pbft.ViewChangeMsg{} },
	"poe":      func() types.Message { return &poe.ViewChangeMsg{} },
	"sbft":     func() types.Message { return &sbft.ViewChangeMsg{} },
	"zyzzyva":  func() types.Message { return &zyzzyva.ViewChangeMsg{} },
	"fab":      func() types.Message { return &fab.ViewChangeMsg{} },
	"cheapbft": func() types.Message { return &cheapbft.ViewChangeMsg{} },
	"kauri":    func() types.Message { return &kauri.ViewChangeMsg{} },
	"themis":   func() types.Message { return &themis.ViewChangeMsg{} },
}

// stuffedViewChange returns a validly signed but otherwise empty
// view-change message of the protocol, from `from`, for view v.
func stuffedViewChange(proto string, v types.View, from types.NodeID, sign func(types.Digest) []byte) types.Message {
	m := viewChangeMsgs[proto]()
	fields := reflect.ValueOf(m).Elem()
	fields.FieldByName("NewView").SetUint(uint64(v))
	fields.FieldByName("Replica").SetInt(int64(from))
	fields.FieldByName("Sig").SetBytes(sign(m.(interface{ SigDigest() types.Digest }).SigDigest()))
	return m
}

// TestViewChangeStuffingDoesNotMoveHonestReplicas is the regression test
// for the join-rule bug every per-protocol copy of the view-change code
// carried: the rule counted view-change messages, not senders, so ONE
// Byzantine replica signing view-changes for f+1 different future views
// pushed every honest replica into a view change. With f = 1 that takes
// two messages, for views 1 and 2. The single rule in core.ViewChange
// counts distinct senders: nobody leaves view 0 and the cluster keeps
// committing.
func TestViewChangeStuffingDoesNotMoveHonestReplicas(t *testing.T) {
	for proto := range viewChangeMsgs {
		t.Run(proto, func(t *testing.T) {
			c := harness.NewCluster(harness.Options{Protocol: proto, F: 1, Clients: 2, Seed: 7})
			c.Start()
			c.ClosedLoop(10, func(cl, k int) []byte {
				return kvstore.Put(fmt.Sprintf("c%d-k%d", cl, k), []byte("v"))
			})
			c.Run(5 * time.Millisecond) // mid-workload, leader 0 healthy

			// The last replica turns Byzantine (never the leader of
			// view 0, 1 or 2's honest majority): it keeps running the
			// protocol but also signs view-changes for views 1 and 2.
			byz := c.Replicas[len(c.Replicas)-1]
			for v := types.View(1); v <= 2; v++ {
				byz.Broadcast(stuffedViewChange(proto, v, byz.ID(), byz.Signer().Sign))
			}
			// Stay short of τ2 (250 ms): until it can expire, the only
			// thing that could move a replica is the stuffed messages.
			// (Afterwards some protocols do time out on their own account
			// — the speculative ones keep requests watched until the next
			// checkpoint — which is not what this test is about.)
			c.Run(190 * time.Millisecond)
			for id, views := range c.Metrics.ViewChanges {
				if id != byz.ID() && len(views) > 0 {
					failf(t, c, "honest replica %v left view 0 for %v on one sender's view-changes", id, views)
				}
			}
			c.RunUntilIdle(30 * time.Second)
			if c.Metrics.Completed != 20 {
				failf(t, c, "completed %d/20 requests", c.Metrics.Completed)
			}
			if err := c.Audit(byz.ID()); err != nil {
				failf(t, c, "%v", err)
			}
		})
	}
}
