package pbft_test

import (
	"fmt"
	"testing"
	"time"

	"bftkit/internal/byz"
	"bftkit/internal/core"
	"bftkit/internal/harness"
	"bftkit/internal/kvstore"
	"bftkit/internal/obsv"
	"bftkit/internal/protocols/pbft"
	"bftkit/internal/sim"
	"bftkit/internal/types"
)

func op(client, k int) []byte {
	return kvstore.Put(fmt.Sprintf("c%d-k%d", client, k), []byte(fmt.Sprintf("v%d", k)))
}

func TestFaultFreeCommit(t *testing.T) {
	for _, scheme := range []string{"pbft", "pbft-mac"} {
		t.Run(scheme, func(t *testing.T) {
			c := harness.NewCluster(harness.Options{Protocol: scheme, N: 4, Clients: 2})
			c.Start()
			c.ClosedLoop(25, op)
			c.RunUntilIdle(20 * time.Second)
			if got, want := c.Metrics.Completed, 50; got != want {
				t.Fatalf("completed %d requests, want %d", got, want)
			}
			if err := c.Audit(); err != nil {
				t.Fatal(err)
			}
			h0 := c.Apps[0].Hash()
			for i, app := range c.Apps {
				if app.Hash() != h0 {
					t.Fatalf("replica %d state hash diverges", i)
				}
			}
		})
	}
}

// TestLinearizedPBFT makes design choice 1 (linearization) executable:
// PBFT with both all-to-all stages collected by the leader still completes
// every request with a clean audit, and its ordering messages per slot
// grow linearly — 5(n−1): the proposal, the backups' prepares, the
// prepare certificate, the backups' commits, the commit certificate —
// against PBFT's 2n(n−1).
func TestLinearizedPBFT(t *testing.T) {
	for _, n := range []int{4, 7, 10} {
		for _, linear := range []bool{false, true} {
			tr := obsv.New(obsv.Options{})
			opts := harness.Options{Protocol: "pbft", N: n, Trace: tr, Tune: func(cfg *core.Config) {
				cfg.CheckpointInterval = 1024 // only ordering traffic in the protocol phases
			}}
			want := float64(2 * n * (n - 1))
			if linear {
				opts.MakeReplica = func(_ types.NodeID, cfg core.Config) core.Protocol { return pbft.NewLinearized(cfg) }
				want = float64(5 * (n - 1))
			}
			c := harness.NewCluster(opts)
			c.Start()
			c.ClosedLoop(20, op)
			c.RunUntilIdle(20 * time.Second)
			if got := c.Metrics.Completed; got != 20 {
				t.Fatalf("n=%d linear=%v: completed %d of 20 requests", n, linear, got)
			}
			if err := c.Audit(); err != nil {
				t.Fatalf("n=%d linear=%v: %v", n, linear, err)
			}
			if row := tr.PerSlotRow("pbft", n, 20); row.Msgs != want {
				t.Errorf("n=%d linear=%v: %.1f ordering messages per slot, want %.0f", n, linear, row.Msgs, want)
			}
		}
	}
}

// TestBatching: with more requests outstanding than the leader's pipeline
// window holds (eight slots), the requests that queue behind the window
// leave together in the next slot, so the run needs fewer slots than
// requests.
func TestBatching(t *testing.T) {
	const clients, each = 16, 10
	c := harness.NewCluster(harness.Options{Protocol: "pbft", N: 4, Clients: clients})
	c.Start()
	c.ClosedLoop(each, op)
	c.RunUntilIdle(20 * time.Second)
	if got, want := c.Metrics.Completed, clients*each; got != want {
		t.Fatalf("completed %d, want %d", got, want)
	}
	if execs := c.Metrics.ExecCount[0]; execs >= clients*each {
		t.Fatalf("expected batched slots, got %d executions for %d requests", execs, clients*each)
	}
	if err := c.Audit(); err != nil {
		t.Fatal(err)
	}
}

func TestLeaderCrashViewChange(t *testing.T) {
	c := harness.NewCluster(harness.Options{Protocol: "pbft", N: 4, Clients: 2})
	c.Start()
	c.ClosedLoop(30, op)
	c.Run(20 * time.Millisecond) // let some requests commit under view 0
	c.Crash(0)                   // kill the leader
	c.RunUntilIdle(60 * time.Second)
	if got, want := c.Metrics.Completed, 60; got != want {
		t.Fatalf("completed %d requests after leader crash, want %d", got, want)
	}
	sawVC := false
	for id, vs := range c.Metrics.ViewChanges {
		if id != 0 && len(vs) > 0 {
			sawVC = true
		}
	}
	if !sawVC {
		t.Fatal("expected a view change after leader crash")
	}
	if err := c.Audit(0); err != nil {
		t.Fatal(err)
	}
}

func TestConsecutiveLeaderCrashes(t *testing.T) {
	c := harness.NewCluster(harness.Options{Protocol: "pbft", N: 7, Clients: 2})
	c.Start()
	c.ClosedLoop(20, op)
	c.Run(20 * time.Millisecond)
	c.Crash(0)
	c.Run(300 * time.Millisecond)
	c.Crash(1) // the next leader too (f=2 at n=7)
	c.RunUntilIdle(120 * time.Second)
	if got, want := c.Metrics.Completed, 40; got != want {
		t.Fatalf("completed %d requests after two leader crashes, want %d", got, want)
	}
	if err := c.Audit(0, 1); err != nil {
		t.Fatal(err)
	}
}

func TestEquivocatingLeaderSafety(t *testing.T) {
	c := harness.NewCluster(harness.Options{
		Protocol: "pbft", N: 4, Clients: 2,
		Byzantine: map[types.NodeID]byz.Behavior{0: byz.Equivocate{}},
	})
	c.Start()
	c.ClosedLoop(10, op)
	c.RunUntilIdle(60 * time.Second)
	// Liveness: honest replicas view-change away from the equivocator
	// and finish the workload.
	if got, want := c.Metrics.Completed, 20; got != want {
		t.Fatalf("completed %d requests under equivocating leader, want %d", got, want)
	}
	// Safety: honest replicas never diverge (replica 0 is Byzantine).
	if err := c.Audit(0); err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointGarbageCollection(t *testing.T) {
	c := harness.NewCluster(harness.Options{
		Protocol: "pbft", N: 4, Clients: 1,
		Tune: func(cfg *core.Config) { cfg.CheckpointInterval = 10 },
	})
	c.Start()
	c.ClosedLoop(55, op)
	c.RunUntilIdle(30 * time.Second)
	if got, want := c.Metrics.Completed, 55; got != want {
		t.Fatalf("completed %d, want %d", got, want)
	}
	for i, r := range c.Replicas {
		if lw := r.Ledger().LowWater(); lw < 10 {
			t.Fatalf("replica %d low-water %d; checkpointing did not garbage-collect", i, lw)
		}
		if r.Ledger().Len() > 50 {
			t.Fatalf("replica %d retains %d entries after GC", i, r.Ledger().Len())
		}
	}
	if err := c.Audit(); err != nil {
		t.Fatal(err)
	}
}

func TestInDarkReplicaCatchesUpViaStateTransfer(t *testing.T) {
	c := harness.NewCluster(harness.Options{
		Protocol: "pbft", N: 4, Clients: 1,
		Tune: func(cfg *core.Config) { cfg.CheckpointInterval = 10 },
	})
	c.Start()
	// Keep replica 3 in the dark: it receives nothing while the other
	// three make progress past several checkpoints.
	c.Net.Partition([]types.NodeID{0, 1, 2, types.ClientIDBase}, []types.NodeID{3})
	c.ClosedLoop(40, op)
	c.Run(5 * time.Second)
	if c.Metrics.Completed != 40 {
		t.Fatalf("majority partition should commit all 40, got %d", c.Metrics.Completed)
	}
	c.Net.Heal()
	// New traffic makes the healed replica notice the checkpoints.
	c.DoneHook = nil
	c.ClosedLoop(10, func(cl, k int) []byte { return op(cl, 100+k) })
	c.RunUntilIdle(30 * time.Second)
	if got := c.Replicas[3].Ledger().LastExecuted(); got < 40 {
		t.Fatalf("in-dark replica only reached seq %d; state transfer failed", got)
	}
	h0 := c.Apps[0].Hash()
	if c.Apps[3].Hash() != h0 {
		t.Fatal("in-dark replica state diverges after catch-up")
	}
	if err := c.Audit(); err != nil {
		t.Fatal(err)
	}
}

func TestPostGSTLiveness(t *testing.T) {
	// Before GST the network drops 30% of messages and delays the
	// rest arbitrarily; after GST the protocol must recover liveness.
	net := sim.NetConfig{
		Delay: time.Millisecond, Jitter: 500 * time.Microsecond,
		GST: 2 * time.Second, PreGSTMaxDelay: 400 * time.Millisecond, PreGSTDropRate: 0.3,
	}
	c := harness.NewCluster(harness.Options{Protocol: "pbft", N: 4, Clients: 2, Net: net})
	c.Start()
	c.ClosedLoop(15, op)
	c.RunUntilIdle(120 * time.Second)
	if got, want := c.Metrics.Completed, 30; got != want {
		t.Fatalf("completed %d requests across GST, want %d", got, want)
	}
	if err := c.Audit(); err != nil {
		t.Fatal(err)
	}
}

func TestProactiveRecoveryKeepsRunning(t *testing.T) {
	c := harness.NewCluster(harness.Options{
		Protocol: "pbft", N: 4, Clients: 2,
		MakeReplica: func(id types.NodeID, cfg core.Config) core.Protocol {
			return pbft.NewWithOptions(cfg, pbft.Options{RejuvenationInterval: 200 * time.Millisecond})
		},
	})
	c.Start()
	c.ClosedLoop(40, op)
	c.RunUntilIdle(60 * time.Second)
	if got, want := c.Metrics.Completed, 80; got != want {
		t.Fatalf("completed %d requests with rejuvenation, want %d", got, want)
	}
	if err := c.Audit(); err != nil {
		t.Fatal(err)
	}
}

func TestPBFTMessagePattern(t *testing.T) {
	// Figure 2 of the paper: committing one request in a 4-replica
	// deployment takes 3 pre-prepares (leader→backups), n(n-1)=12
	// prepares minus the leader's 3 (backups broadcast) = 9, and 12
	// commits. We assert kinds and rough counts for a single request.
	c := harness.NewCluster(harness.Options{Protocol: "pbft", N: 4, Clients: 1})
	c.Start()
	c.Submit(0, op(0, 1))
	c.RunUntilIdle(5 * time.Second)
	kinds, _ := c.Net.KindCounts()
	if kinds["PROPOSE"] != 3 {
		t.Fatalf("pre-prepares = %d, want 3", kinds["PROPOSE"])
	}
	if kinds["PREPARE"] != 9 {
		t.Fatalf("prepares = %d, want 9 (3 backups × 3 peers)", kinds["PREPARE"])
	}
	if kinds["COMMIT"] != 12 {
		t.Fatalf("commits = %d, want 12 (4 replicas × 3 peers)", kinds["COMMIT"])
	}
}

func TestDuplicateRequestGetsCachedReply(t *testing.T) {
	c := harness.NewCluster(harness.Options{Protocol: "pbft", N: 4, Clients: 1})
	c.Start()
	req := c.Submit(0, kvstore.Put("x", []byte("1")))
	c.RunUntilIdle(5 * time.Second)
	before := c.Metrics.ExecCount[0]
	// Re-deliver the identical request straight to the leader; it must
	// not be re-executed.
	c.Clients[0].Submit(req)
	c.RunUntilIdle(10 * time.Second)
	if c.Metrics.ExecCount[0] != before {
		t.Fatal("duplicate request was re-executed")
	}
}

func TestMACVariantLeaderCrash(t *testing.T) {
	// The MAC variant's simplified view change (signed VC messages,
	// unverifiable carried prepares — see viewchange.go) must still
	// recover liveness after a crash.
	c := harness.NewCluster(harness.Options{Protocol: "pbft-mac", N: 4, Clients: 2})
	c.Start()
	c.ClosedLoop(15, op)
	c.Run(20 * time.Millisecond)
	c.Crash(0)
	c.RunUntilIdle(120 * time.Second)
	if got, want := c.Metrics.Completed, 30; got != want {
		t.Fatalf("completed %d after crash under MACs, want %d", got, want)
	}
	if err := c.Audit(0); err != nil {
		t.Fatal(err)
	}
}

func TestMACsCheaperThanSignatures(t *testing.T) {
	// DC11's trade-off, measured: the MAC variant does (almost) no
	// signing during ordering.
	ops := func(proto string) int64 {
		c := harness.NewCluster(harness.Options{Protocol: proto, N: 4, Clients: 1})
		c.Start()
		c.ClosedLoop(20, op)
		c.RunUntilIdle(30 * time.Second)
		if c.Metrics.Completed != 20 {
			t.Fatalf("%s completed %d", proto, c.Metrics.Completed)
		}
		s, v, _, _ := c.Auth.Stats.Snapshot()
		return s + v
	}
	sig := ops("pbft")
	mac := ops("pbft-mac")
	if mac >= sig/2 {
		t.Fatalf("MAC variant used %d sig ops vs %d for signatures", mac, sig)
	}
}

func TestPartitionStallsThenHeals(t *testing.T) {
	// No quorum is reachable in a 2/2 split: PBFT must make zero
	// progress (consistency over availability), then recover on heal.
	c := harness.NewCluster(harness.Options{Protocol: "pbft", N: 4, Clients: 1})
	c.Start()
	c.Net.Partition([]types.NodeID{0, 1, types.ClientIDBase}, []types.NodeID{2, 3})
	c.ClosedLoop(10, op)
	c.Run(3 * time.Second)
	if c.Metrics.Completed != 0 {
		t.Fatalf("minority partition committed %d requests", c.Metrics.Completed)
	}
	c.Net.Heal()
	c.RunUntilIdle(120 * time.Second)
	if got, want := c.Metrics.Completed, 10; got != want {
		t.Fatalf("completed %d after heal, want %d", got, want)
	}
	if err := c.Audit(); err != nil {
		t.Fatal(err)
	}
}
