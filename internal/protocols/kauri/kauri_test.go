package kauri_test

import (
	"fmt"
	"testing"
	"time"

	"bftkit/internal/core"
	"bftkit/internal/crypto"
	"bftkit/internal/harness"
	"bftkit/internal/kvstore"
	"bftkit/internal/protocols/kauri"
	_ "bftkit/internal/protocols/sbft"
	"bftkit/internal/types"
)

func op(client, k int) []byte {
	return kvstore.Put(fmt.Sprintf("c%d-k%d", client, k), []byte(fmt.Sprintf("v%d", k)))
}

func TestFaultFreeCommit(t *testing.T) {
	c := harness.NewCluster(harness.Options{Protocol: "kauri", N: 7, Clients: 2})
	c.Start()
	c.ClosedLoop(20, op)
	c.RunUntilIdle(60 * time.Second)
	if got, want := c.Metrics.Completed, 40; got != want {
		t.Fatalf("completed %d, want %d", got, want)
	}
	if err := c.Audit(); err != nil {
		t.Fatal(err)
	}
}

func TestTreeGeometry(t *testing.T) {
	c := harness.NewCluster(harness.Options{Protocol: "kauri", N: 7, Clients: 1})
	c.Start()
	k3 := c.Replicas[3].Protocol().(*kauri.Kauri)
	// View 0: positions equal IDs. Node 3's parent is node 1; node 1's
	// children are 3 and 4.
	if p := k3.Slots.Parent(0); p != 1 {
		t.Fatalf("parent of r3 in view 0 = %v, want r1", p)
	}
	var ch []types.NodeID
	for _, r := range c.Replicas {
		if r.Protocol().(*kauri.Kauri).Slots.Parent(0) == 1 {
			ch = append(ch, r.ID())
		}
	}
	if len(ch) != 2 || ch[0] != 3 || ch[1] != 4 {
		t.Fatalf("children of r1 in view 0 = %v, want [r3 r4]", ch)
	}
	// Rotating the view rotates the whole layout: in view 1 the root is
	// r1 and r3 sits at position 2, a direct child of the root.
	if p := k3.Slots.Parent(1); p != 1 {
		t.Fatalf("parent of r3 in view 1 = %v, want r1 (the new root)", p)
	}
	if p := k3.Slots.Parent(0); p != 1 {
		t.Fatalf("parent of r3 in view 0 changed: %v", p)
	}
}

func TestLoadSpreadAcrossTree(t *testing.T) {
	// X9: the root's per-slot fan-out is its branching factor, not n−1.
	// The leader bottleneck the paper describes afflicts star-topology
	// protocols (the collector sends and receives O(n) per slot); the
	// tree spreads that load. Compare leader shares against SBFT (star).
	leaderShare := func(proto string, n int) float64 {
		c := harness.NewCluster(harness.Options{Protocol: proto, N: n, Clients: 1})
		c.Start()
		c.ClosedLoop(20, op)
		c.RunUntilIdle(60 * time.Second)
		if c.Metrics.Completed != 20 {
			t.Fatalf("%s completed %d", proto, c.Metrics.Completed)
		}
		var total, leader int64
		for i := 0; i < n; i++ {
			s := c.Net.Stats(types.NodeID(i))
			total += s.MsgsSent
			if i == 0 {
				leader = s.MsgsSent
			}
		}
		return float64(leader) / float64(total)
	}
	tree := leaderShare("kauri", 15)
	star := leaderShare("sbft", 15)
	if tree >= star {
		t.Fatalf("kauri root share %.2f should be below sbft collector share %.2f", tree, star)
	}
}

func TestInternalNodeCrashReconfiguresTree(t *testing.T) {
	// Assumption a3 broken: an internal node silences its subtree; the
	// view change must rotate the tree and restore liveness.
	c := harness.NewCluster(harness.Options{Protocol: "kauri", N: 7, Clients: 2})
	c.Start()
	c.ClosedLoop(15, op)
	c.Run(15 * time.Millisecond)
	c.Crash(1) // internal node of the view-0 tree (children 3 and 4)
	c.RunUntilIdle(300 * time.Second)
	if got, want := c.Metrics.Completed, 30; got != want {
		t.Fatalf("completed %d after internal-node crash, want %d", got, want)
	}
	sawVC := false
	for id, vs := range c.Metrics.ViewChanges {
		if id != 1 && len(vs) > 0 {
			sawVC = true
		}
	}
	if !sawVC {
		t.Fatal("expected a tree reconfiguration (view change)")
	}
	if err := c.Audit(1); err != nil {
		t.Fatal(err)
	}
}

func TestRootCrash(t *testing.T) {
	c := harness.NewCluster(harness.Options{Protocol: "kauri", N: 7, Clients: 2})
	c.Start()
	c.ClosedLoop(15, op)
	c.Run(15 * time.Millisecond)
	c.Crash(0)
	c.RunUntilIdle(300 * time.Second)
	if got, want := c.Metrics.Completed, 30; got != want {
		t.Fatalf("completed %d after root crash, want %d", got, want)
	}
	if err := c.Audit(0); err != nil {
		t.Fatal(err)
	}
}

// TestAggregateAtAnotherStageIsRefused: a child can name any stage in the
// aggregate it sends up; Kauri has two tree rounds, and an aggregate at any
// other stage must be dropped, not waited on.
func TestAggregateAtAnotherStageIsRefused(t *testing.T) {
	c := harness.NewCluster(harness.Options{Protocol: "kauri", N: 7, Clients: 1})
	c.Start()
	c.Submit(0, op(0, 1))
	c.RunUntilIdle(5 * time.Second)
	// r3 is a child of r1 in view 0.
	seq := c.Replicas[1].Ledger().LastExecuted() + 1
	c.Submit(0, op(0, 2))
	c.Run(3 * time.Millisecond) // r1 holds the proposal, its subtree has not voted
	c.Replicas[1].Deliver(3, &core.AggrMsg{Stage: core.StageShare, Seq: seq,
		Signers: []types.NodeID{3}, Sigs: [][]byte{{1}}})
	c.RunUntilIdle(5 * time.Second)
	if c.Metrics.Completed != 2 {
		t.Fatalf("completed %d of 2", c.Metrics.Completed)
	}
}

// TestAggregateCostsAtMostNVerifies: an aggregate's signatures are checked
// one by one, so what it may list is bounded before the first check:
// distinct replica IDs, at most n of them. One naming the same signer 500
// times with junk signatures costs no more than n verifications.
func TestAggregateCostsAtMostNVerifies(t *testing.T) {
	const n = 7
	c := harness.NewCluster(harness.Options{Protocol: "kauri", N: n, Clients: 1})
	c.Start()
	c.Submit(0, op(0, 1))
	c.RunUntilIdle(5 * time.Second)
	// r3 is a child of r1 in view 0.
	m := &core.AggrMsg{Stage: core.StagePrepare, Seq: c.Replicas[1].Ledger().LastExecuted() + 1, Digest: types.Digest{1}}
	for range 500 {
		m.Signers = append(m.Signers, 3)
		m.Sigs = append(m.Sigs, make([]byte, crypto.SigSize))
	}
	before := c.Auth.Stats.VerifyOps.Load()
	c.Replicas[1].Deliver(3, m)
	if got := c.Auth.Stats.VerifyOps.Load() - before; got > n {
		t.Fatalf("an aggregate listing one signer 500 times cost %d verifications, want at most n = %d", got, n)
	}
}
