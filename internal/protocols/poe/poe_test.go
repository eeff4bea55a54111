package poe_test

import (
	"fmt"
	"testing"
	"time"

	"bftkit/internal/byz"
	"bftkit/internal/core"
	"bftkit/internal/harness"
	"bftkit/internal/kvstore"
	_ "bftkit/internal/protocols/poe"
	"bftkit/internal/types"
)

func op(client, k int) []byte {
	return kvstore.Put(fmt.Sprintf("c%d-k%d", client, k), []byte(fmt.Sprintf("v%d", k)))
}

func tune(cfg *core.Config) {
	cfg.CheckpointInterval = 8
	cfg.RequestTimeout = 60 * time.Millisecond
}

func TestFaultFreeSpeculativeCommit(t *testing.T) {
	c := harness.NewCluster(harness.Options{Protocol: "poe", N: 4, Clients: 2, Tune: tune})
	c.Start()
	c.ClosedLoop(25, op)
	c.RunUntilIdle(60 * time.Second)
	if got, want := c.Metrics.Completed, 50; got != want {
		t.Fatalf("completed %d, want %d", got, want)
	}
	if err := c.Audit(); err != nil {
		t.Fatal(err)
	}
}

func TestStaysResponsiveWithSlowReplica(t *testing.T) {
	// DC7 vs DC6: PoE only needs 2f+1 shares, so one silent replica
	// does not add a τ3 wait per batch the way SBFT's fast path does.
	c := harness.NewCluster(harness.Options{Protocol: "poe", N: 4, Clients: 1, Tune: tune})
	c.Start()
	c.Crash(3) // one crashed backup; the certificate quorum is 3 of 4
	c.ClosedLoop(20, op)
	c.RunUntilIdle(60 * time.Second)
	if got, want := c.Metrics.Completed, 20; got != want {
		t.Fatalf("completed %d with crashed backup, want %d", got, want)
	}
	// Latency must stay in the network-delay regime (no timeout waits).
	if mean := c.Metrics.MeanLatency(); mean > 20*time.Millisecond {
		t.Fatalf("mean latency %v suggests PoE waited on a timer despite 2f+1 quorum", mean)
	}
}

func TestLazyCheckpointCommitsPrefix(t *testing.T) {
	c := harness.NewCluster(harness.Options{Protocol: "poe", N: 4, Clients: 2, Tune: tune})
	c.Start()
	c.ClosedLoop(30, op)
	c.RunUntilIdle(60 * time.Second)
	for i, r := range c.Replicas {
		if r.Ledger().LastExecuted() < 8 {
			t.Fatalf("replica %d never durably committed (lastExec=%d)", i, r.Ledger().LastExecuted())
		}
	}
	if err := c.Audit(); err != nil {
		t.Fatal(err)
	}
}

func TestLeaderCrashViewChangeWithRollbackMachinery(t *testing.T) {
	c := harness.NewCluster(harness.Options{Protocol: "poe", N: 4, Clients: 2, Tune: tune})
	c.Start()
	c.ClosedLoop(20, op)
	c.Run(15 * time.Millisecond)
	c.Crash(0)
	c.RunUntilIdle(120 * time.Second)
	if got, want := c.Metrics.Completed, 40; got != want {
		t.Fatalf("completed %d after leader crash, want %d", got, want)
	}
	if err := c.Audit(0); err != nil {
		t.Fatal(err)
	}
	h1 := c.Apps[1].Hash()
	for _, i := range []int{2, 3} {
		if c.Apps[i].Hash() != h1 {
			t.Fatalf("replica %d state diverges", i)
		}
	}
}

func TestSilentLeaderReplaced(t *testing.T) {
	c := harness.NewCluster(harness.Options{
		Protocol: "poe", N: 4, Clients: 2, Tune: tune,
		Byzantine: map[types.NodeID]byz.Behavior{0: byz.SilentPhases{Phases: []string{"propose"}}},
	})
	c.Start()
	c.ClosedLoop(10, op)
	c.RunUntilIdle(120 * time.Second)
	if got, want := c.Metrics.Completed, 20; got != want {
		t.Fatalf("completed %d with silent leader, want %d", got, want)
	}
	if err := c.Audit(0); err != nil {
		t.Fatal(err)
	}
}

// TestByzWithholderStaysResponsive is PoE's differentiator (DC7) against
// a live adversary: its 2f+1 certificates tolerate one silent replica
// with no timeout and no view change, where Zyzzyva and SBFT both pay a
// fallback.
func TestByzWithholderStaysResponsive(t *testing.T) {
	c := harness.NewCluster(harness.Options{
		Protocol: "poe", N: 4, Clients: 2, Seed: 7,
		Tune: func(cfg *core.Config) {
			cfg.BatchSize = 1
			cfg.CheckpointInterval = 5
			cfg.RequestTimeout = 100 * time.Millisecond
		},
		Byzantine: map[types.NodeID]byz.Behavior{3: byz.WithholdVotes()},
	})
	c.Start()
	c.ClosedLoop(5, op)
	for ran := time.Duration(0); ran < 30*time.Second && c.Metrics.Completed < 10; ran += time.Second {
		c.Run(time.Second)
	}
	if got, want := c.Metrics.Completed, 10; got != want {
		t.Fatalf("completed %d of %d with a withholding replica", got, want)
	}
	for id, vcs := range c.Metrics.ViewChanges {
		if len(vcs) > 0 {
			t.Fatalf("replica %v paid %d view changes for a withholder; DC7 promises responsiveness", id, len(vcs))
		}
	}
	if err := c.Audit(); err != nil {
		t.Fatal(err)
	}
}
