package experiments

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"bftkit/internal/byz"
	"bftkit/internal/core"
	"bftkit/internal/crypto"
	"bftkit/internal/harness"
	"bftkit/internal/kvstore"
	"bftkit/internal/sim"
	"bftkit/internal/types"
)

// forgedOp is the operation a Byzantine leader writes into every request
// it proposes. No client ever signs it.
var forgedOp = kvstore.Put("forged", []byte("by the leader"))

// forgeOps rewrites the Op of every request in the wrapped replica's
// proposals and authenticates each proposal again under the deployment's
// scheme (core.Authenticate), so the leader's own signature or MAC vector
// and the batch digest are valid while every client authenticator in the
// batch is not. It stays out of byz.Catalog: the fuzzer's census does not
// include it.
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
	}, nil)
	if !ok {
		return byz.Verdict{}
	}
	fp := forged.(*core.ProposeMsg)
	fp.Sig, fp.Auth = core.Authenticate(a.t.Env, fp.SigDigest())
	return byz.Verdict{Replace: fp}
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
// authenticates its proposal again, so only the client authenticators
// inside the batch betray it. A backup accepts no batch before it has
// checked each request's client authenticator (Slots.Accept), so no honest
// replica applies the forged op, and a view change lets every honestly
// authenticated request complete. Before that check, pbft's three honest
// replicas applied it. pbft-mac runs it with MAC'd requests: the leader
// holds no other replica's key to the client, so it cannot forge a
// backup's entry of a request's vector.
func TestForgedRequestsNeverApply(t *testing.T) {
	for _, proto := range append(stableLeaderProtocols, "pbft-mac") {
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

// spoilEntry is a client-side fault on the wire: every REQUEST of the
// client's first request carries a vector whose entry for one backup is
// wrong, while the other entries stay valid.
type spoilEntry struct{ backup types.NodeID }

func (s spoilEntry) OnSend(from, _ types.NodeID, m types.Message) sim.Action {
	rm, ok := m.(*core.RequestMsg)
	if !ok || !from.IsClient() || rm.Req.ClientSeq != 1 {
		return sim.Action{}
	}
	q := *rm.Req
	q.Sig = append([]byte(nil), q.Sig...)
	q.Sig[int(s.backup)*crypto.MACSize] ^= 1
	return sim.Action{Replace: &core.RequestMsg{Req: &q}}
}

// TestSpoiledEntryCostsNoViewChange: under MACs a backup checks only its
// own entry of a request's vector, so a client that spoils one backup's
// entry is still served at f = 1. The leader and the other two backups
// order and commit the request; the spoiled backup refuses the slot, and
// once later slots commit past the gap its τ2 fetches the slot from f+1
// peers. No replica enters a new view and every request completes. The
// backup's τ2 also starts a view change that no peer joins, so it takes
// no part in ordering until the next view change.
func TestSpoiledEntryCostsNoViewChange(t *testing.T) {
	c := harness.NewCluster(harness.Options{Protocol: "pbft-mac", F: 1, Clients: 1, Seed: 5})
	c.Net.SetInterceptor(spoilEntry{backup: 2})
	c.Start()
	c.ClosedLoop(10, func(_, k int) []byte { return kvstore.Put(fmt.Sprintf("k%d", k), []byte("v")) })
	c.RunUntilIdle(60 * time.Second)
	if c.Metrics.Completed != 10 {
		failf(t, c, "completed %d/10 requests", c.Metrics.Completed)
	}
	if len(c.Metrics.ViewChanges) != 0 {
		failf(t, c, "replicas entered new views: %v", c.Metrics.ViewChanges)
	}
	if e := c.Replicas[2].Ledger().Get(1); e == nil || e.Proof == nil || e.Proof.Special != "catch-up" {
		failf(t, c, "the spoiled backup did not adopt slot 1 by catch-up: %+v", e)
	}
	if err := c.Audit(); err != nil {
		failf(t, c, "%v", err)
	}
}
