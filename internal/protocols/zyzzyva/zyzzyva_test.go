package zyzzyva_test

import (
	"fmt"
	"testing"
	"time"

	"bftkit/internal/byz"
	"bftkit/internal/core"
	"bftkit/internal/harness"
	"bftkit/internal/kvstore"
	_ "bftkit/internal/protocols/zyzzyva"
	"bftkit/internal/types"
)

func op(client, k int) []byte {
	return kvstore.Put(fmt.Sprintf("c%d-k%d", client, k), []byte(fmt.Sprintf("v%d", k)))
}

func tune(cfg *core.Config) {
	cfg.RequestTimeout = 40 * time.Millisecond
	cfg.CheckpointInterval = 8
}

func TestFaultFreeFastPath(t *testing.T) {
	c := harness.NewCluster(harness.Options{Protocol: "zyzzyva", N: 4, Clients: 2, Tune: tune})
	c.Start()
	c.ClosedLoop(25, op)
	c.RunUntilIdle(60 * time.Second)
	if got, want := c.Metrics.Completed, 50; got != want {
		t.Fatalf("completed %d, want %d", got, want)
	}
	kinds, _ := c.Net.KindCounts()
	if kinds["ZYZ-COMMIT"] != 0 {
		t.Fatalf("fault-free run used %d commit certificates; fast path broken", kinds["ZYZ-COMMIT"])
	}
	// Speculation means exactly one ordering phase: order-reqs only.
	if kinds["PROPOSE"] == 0 {
		t.Fatal("no order requests observed")
	}
}

func TestLazyCheckpointCommit(t *testing.T) {
	c := harness.NewCluster(harness.Options{Protocol: "zyzzyva", N: 4, Clients: 2, Tune: tune})
	c.Start()
	c.ClosedLoop(30, op)
	c.RunUntilIdle(60 * time.Second)
	if c.Metrics.Completed != 60 {
		t.Fatalf("completed %d, want 60", c.Metrics.Completed)
	}
	// Checkpoint exchange must have durably committed a prefix on every
	// replica even though the fast path never runs a commit phase.
	for i, r := range c.Replicas {
		if r.Ledger().LastExecuted() < 8 {
			t.Fatalf("replica %d committed only to %d; lazy checkpointing broken", i, r.Ledger().LastExecuted())
		}
	}
	if err := c.Audit(); err != nil {
		t.Fatal(err)
	}
}

func TestCorruptBackupTriggersRepairerClient(t *testing.T) {
	// One backup lies to clients: 3f+1 matching replies are impossible,
	// so the client must fall back to commit certificates (2f+1) and
	// still complete with the correct result (DC8's fallback).
	c := harness.NewCluster(harness.Options{
		Protocol: "zyzzyva", N: 4, Clients: 2, Tune: tune,
		Byzantine: map[types.NodeID]byz.Behavior{3: byz.CorruptResults{}},
	})
	c.Start()
	c.ClosedLoop(10, op)
	c.RunUntilIdle(120 * time.Second)
	if got, want := c.Metrics.Completed, 20; got != want {
		t.Fatalf("completed %d with corrupt backup, want %d", got, want)
	}
	kinds, _ := c.Net.KindCounts()
	if kinds["ZYZ-COMMIT"] == 0 {
		t.Fatal("client never turned repairer despite corrupt backup")
	}
	// The corrupt result must never be accepted.
	for _, app := range []int{0, 1, 2} {
		if _, ok := c.Apps[app].GetValue("c0-k1"); !ok {
			t.Fatalf("replica %d missing committed key", app)
		}
	}
}

func TestFallbackCostsLatency(t *testing.T) {
	// The DC8 trade-off: losing the fast path costs the client τ1.
	run := func(corrupt bool) time.Duration {
		opts := harness.Options{Protocol: "zyzzyva", N: 4, Clients: 1, Tune: tune}
		if corrupt {
			opts.Byzantine = map[types.NodeID]byz.Behavior{3: byz.CorruptResults{}}
		}
		c := harness.NewCluster(opts)
		c.Start()
		c.ClosedLoop(10, op)
		c.RunUntilIdle(120 * time.Second)
		if c.Metrics.Completed != 10 {
			t.Fatalf("completed %d, want 10 (corrupt=%v)", c.Metrics.Completed, corrupt)
		}
		return c.Metrics.MeanLatency()
	}
	fast := run(false)
	slow := run(true)
	if slow < 5*fast {
		t.Fatalf("fallback latency %v should dwarf fast path %v", slow, fast)
	}
}

func TestZyzzyva5ToleratesFaultOnFastPath(t *testing.T) {
	// DC10: with 5f+1 replicas, one crashed backup leaves 4f+1 matching
	// replies — still a fast-path quorum, no repairer needed.
	c := harness.NewCluster(harness.Options{Protocol: "zyzzyva5", N: 6, F: 1, Clients: 2, Tune: tune})
	c.Start()
	c.Crash(5)
	c.ClosedLoop(15, op)
	c.RunUntilIdle(60 * time.Second)
	if got, want := c.Metrics.Completed, 30; got != want {
		t.Fatalf("completed %d, want %d", got, want)
	}
	kinds, _ := c.Net.KindCounts()
	if kinds["ZYZ-COMMIT"] != 0 {
		t.Fatalf("Zyzzyva5 should stay on the fast path with one fault; saw %d certificates", kinds["ZYZ-COMMIT"])
	}
}

func TestLeaderCrashViewChange(t *testing.T) {
	c := harness.NewCluster(harness.Options{Protocol: "zyzzyva", N: 4, Clients: 2, Tune: tune})
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
			t.Fatalf("replica %d state diverges after view change", i)
		}
	}
}

// TestByzWithholderTriggersCommitRepair runs a live Byzantine replica
// (internal/byz vote withholder): with one replica silent in the
// ordering phase, the 3f+1 speculative quorum is unreachable and every
// request must be repaired through the client's 2f+1 commit-certificate
// path.
func TestByzWithholderTriggersCommitRepair(t *testing.T) {
	c := harness.NewCluster(harness.Options{
		Protocol: "zyzzyva", N: 4, Clients: 2, Seed: 7,
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
	kinds, _ := c.Net.KindCounts()
	if kinds["ZYZ-COMMIT"] == 0 {
		t.Fatal("no commit certificates: the client never took the repair path")
	}
	if err := c.Audit(); err != nil {
		t.Fatal(err)
	}
}
