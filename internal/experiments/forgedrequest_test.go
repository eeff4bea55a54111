package experiments

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"bftkit/internal/byz"
	"bftkit/internal/core"
	"bftkit/internal/harness"
	"bftkit/internal/kvstore"
	"bftkit/internal/types"
)

// forgedOp is the operation a Byzantine leader writes into every request
// it proposes. No client ever signs it.
var forgedOp = kvstore.Put("forged", []byte("by the leader"))

// forgeOps rewrites the Op of every request in the wrapped replica's
// proposals and re-signs each proposal, so the leader's own signature and
// the batch digest are valid while every client signature in the batch is
// not. It stays out of byz.Catalog: the fuzzer's census does not include it.
type forgeOps struct{}

func (forgeOps) Name() string   { return "forge-ops" }
func (forgeOps) New() byz.Actor { return &forgeOpsActor{} }

type forgeOpsActor struct {
	byz.Passive
	t *byz.Tools
}

func (a *forgeOpsActor) Init(t *byz.Tools) { a.t = t }

func (a *forgeOpsActor) Outgoing(_ types.NodeID, m types.Message) byz.Verdict {
	if p, ok := m.(*core.ProposeMsg); !ok || p.Leader != a.t.Env.ID() {
		return byz.Verdict{}
	}
	forged, ok := byz.ReplaceBatch(m, func(b *types.Batch) *types.Batch {
		if b.Len() == 0 {
			return b
		}
		reqs := make([]*types.Request, b.Len())
		for i, r := range b.Requests {
			cp := *r
			cp.Op = forgedOp
			reqs[i] = &cp
		}
		return types.NewBatch(reqs...)
	}, a.t.Env.Signer().Sign)
	if !ok {
		return byz.Verdict{}
	}
	return byz.Verdict{Replace: forged}
}

// forgedExecutions counts, per replica, the executed requests whose Op is
// forgedOp.
type forgedExecutions struct {
	harness.Observer
	count map[types.NodeID]int
}

func (f *forgedExecutions) OnExecute(id types.NodeID, _ types.SeqNum, b *types.Batch, _ [][]byte, _ time.Duration) {
	for _, r := range b.Requests {
		if bytes.Equal(r.Op, forgedOp) {
			f.count[id]++
		}
	}
}

// TestForgedRequestsNeverApply is the regression test for proposals whose
// requests the leader forged: leader 0 rewrites each request's Op and
// re-signs its proposal, so only the client signatures inside the batch
// betray it. A backup accepts no batch before it has checked each
// request's client signature (Slots.Accept), so no honest replica applies
// the forged op, and a view change lets every honestly signed request
// complete. Before that check, pbft's three honest replicas applied it.
func TestForgedRequestsNeverApply(t *testing.T) {
	for _, proto := range stableLeaderProtocols {
		t.Run(proto, func(t *testing.T) {
			obs := &forgedExecutions{Observer: harness.NewMetrics(), count: map[types.NodeID]int{}}
			c := harness.NewCluster(harness.Options{Protocol: proto, F: 1, Clients: 2, Seed: 5,
				Byzantine: map[types.NodeID]byz.Behavior{0: forgeOps{}},
				Observers: []harness.Observer{obs}})
			c.Start()
			c.ClosedLoop(5, func(cl, k int) []byte {
				return kvstore.Put(fmt.Sprintf("c%d-k%d", cl, k), []byte("v"))
			})
			c.RunUntilIdle(60 * time.Second)
			for id := range c.Replicas {
				if id == 0 {
					continue
				}
				if n := obs.count[types.NodeID(id)]; n > 0 {
					failf(t, c, "honest replica %d executed %d requests with an op no client signed", id, n)
				}
				if _, ok := c.Apps[id].GetValue("forged"); ok {
					failf(t, c, "honest replica %d applied an op no client signed", id)
				}
			}
			if c.Metrics.Completed != 10 {
				failf(t, c, "completed %d/10 honestly signed requests", c.Metrics.Completed)
			}
			if err := c.Audit(); err != nil {
				failf(t, c, "%v", err)
			}
		})
	}
}
