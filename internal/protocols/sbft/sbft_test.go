package sbft_test

import (
	"fmt"
	"testing"
	"time"

	"bftkit/internal/byz"
	"bftkit/internal/core"
	"bftkit/internal/crypto"
	"bftkit/internal/harness"
	"bftkit/internal/kvstore"
	"bftkit/internal/protocols/sbft"
	"bftkit/internal/types"
)

func op(client, k int) []byte {
	return kvstore.Put(fmt.Sprintf("c%d-k%d", client, k), []byte(fmt.Sprintf("v%d", k)))
}

func TestFaultFreeUsesFastPath(t *testing.T) {
	c := harness.NewCluster(harness.Options{Protocol: "sbft", N: 4, Clients: 2})
	c.Start()
	c.ClosedLoop(20, op)
	c.RunUntilIdle(60 * time.Second)
	if got, want := c.Metrics.Completed, 40; got != want {
		t.Fatalf("completed %d, want %d", got, want)
	}
	kinds, _ := c.Net.KindCounts()
	if kinds["FAST-COMMIT-CERT"] == 0 {
		t.Fatal("fault-free run never used the fast path")
	}
	if kinds["COMMIT"] != 0 {
		t.Fatalf("fault-free run sent %d slow-path commit shares", kinds["COMMIT"])
	}
	if err := c.Audit(); err != nil {
		t.Fatal(err)
	}
}

// silentBackup withholds its sign and commit shares from the collector.
var silentBackup = byz.SilentPhases{Phases: []string{"sign", "commit"}}

func TestSilentBackupFallsBackToSlowPath(t *testing.T) {
	c := harness.NewCluster(harness.Options{
		Protocol: "sbft", N: 4, Clients: 2,
		Byzantine: map[types.NodeID]byz.Behavior{3: silentBackup},
	})
	c.Start()
	c.ClosedLoop(15, op)
	c.RunUntilIdle(60 * time.Second)
	if got, want := c.Metrics.Completed, 30; got != want {
		t.Fatalf("completed %d with silent backup, want %d", got, want)
	}
	kinds, _ := c.Net.KindCounts()
	if kinds["PREPARE-CERT"] == 0 {
		t.Fatal("slow path never engaged despite silent backup (τ3 fallback, DC6)")
	}
	if err := c.Audit(3); err != nil {
		t.Fatal(err)
	}
}

func TestSlowPathCostsLatency(t *testing.T) {
	// The DC6 trade-off: the fast path saves phases when everyone is
	// honest; a single silent backup costs at least τ3 per batch.
	run := func(silent bool) time.Duration {
		opts := harness.Options{Protocol: "sbft", N: 4, Clients: 1}
		if silent {
			opts.Byzantine = map[types.NodeID]byz.Behavior{3: silentBackup}
		}
		c := harness.NewCluster(opts)
		c.Start()
		c.ClosedLoop(20, op)
		c.RunUntilIdle(120 * time.Second)
		if c.Metrics.Completed != 20 {
			t.Fatalf("completed %d, want 20 (silent=%v)", c.Metrics.Completed, silent)
		}
		return c.Metrics.MeanLatency()
	}
	fast := run(false)
	slow := run(true)
	if slow <= fast {
		t.Fatalf("slow path (%v) should cost more than fast path (%v)", slow, fast)
	}
}

func TestLeaderCrashViewChange(t *testing.T) {
	c := harness.NewCluster(harness.Options{Protocol: "sbft", N: 4, Clients: 2})
	c.Start()
	c.ClosedLoop(20, op)
	c.Run(20 * time.Millisecond)
	c.Crash(0)
	c.RunUntilIdle(120 * time.Second)
	if got, want := c.Metrics.Completed, 40; got != want {
		t.Fatalf("completed %d after leader crash, want %d", got, want)
	}
	if err := c.Audit(0); err != nil {
		t.Fatal(err)
	}
}

func TestLinearTraffic(t *testing.T) {
	// SBFT's point: collector linearization keeps per-request traffic
	// linear in n.
	perRequest := func(n int) float64 {
		c := harness.NewCluster(harness.Options{Protocol: "sbft", N: n, Clients: 1})
		c.Start()
		c.ClosedLoop(20, op)
		c.RunUntilIdle(60 * time.Second)
		if c.Metrics.Completed != 20 {
			t.Fatalf("n=%d completed %d", n, c.Metrics.Completed)
		}
		delivered, _ := c.Net.Totals()
		return float64(delivered) / 20
	}
	ratio := perRequest(16) / perRequest(4)
	if ratio > 8 {
		t.Fatalf("traffic ratio %.1f suggests quadratic growth", ratio)
	}
}

func TestFastCommitCountersExposed(t *testing.T) {
	c := harness.NewCluster(harness.Options{Protocol: "sbft", N: 4, Clients: 1})
	c.Start()
	c.ClosedLoop(10, op)
	c.RunUntilIdle(60 * time.Second)
	p := c.Replicas[1].Protocol().(*sbft.SBFT)
	if p.FastCommits == 0 {
		t.Fatal("expected fast commits to be counted")
	}
	if p.SlowCommits != 0 {
		t.Fatalf("unexpected slow commits in fault-free run: %d", p.SlowCommits)
	}
}

func TestForgedProofRejected(t *testing.T) {
	// A Byzantine replica cannot fabricate commit proofs: a proof whose
	// certificate lacks valid quorum signatures must be ignored.
	c := harness.NewCluster(harness.Options{Protocol: "sbft", N: 4, Clients: 1})
	c.Start()
	c.Submit(0, op(0, 1))
	c.RunUntilIdle(5 * time.Second)
	base := c.Replicas[2].Ledger().LastExecuted()

	batch := types.NewBatch(&types.Request{Client: types.ClientIDBase, ClientSeq: 99, Op: op(0, 99)})
	forged := &core.CertMsg{
		Stage: core.StageFastCommit, View: 0, Seq: base + 1, Digest: batch.Digest(),
		Cert: &crypto.Certificate{Digest: types.DigestBytes([]byte("junk"))},
	}
	// Even signed by the real leader's key, the inner certificate fails.
	forged.Sig = c.Auth.Signer(0).Sign(forged.SigDigest())
	c.Replicas[2].Deliver(0, forged)
	c.RunUntilIdle(10 * time.Second)
	if c.Replicas[2].Ledger().LastExecuted() != base {
		t.Fatal("forged proof advanced the ledger")
	}
	if err := c.Audit(); err != nil {
		t.Fatal(err)
	}
}

// TestByzWithholderFallsBackToSlowPath pits SBFT against a live vote
// withholder from internal/byz: the all-replica fast path must yield
// zero fast-commit proofs while the τ3 prepare/commit path carries the
// whole workload (the paper's DC6 fallback).
func TestByzWithholderFallsBackToSlowPath(t *testing.T) {
	c := harness.NewCluster(harness.Options{
		Protocol: "sbft", N: 4, Clients: 2, Seed: 7,
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
	if kinds["FAST-COMMIT-CERT"] != 0 {
		t.Fatalf("fast path produced %d proofs despite a silent replica", kinds["FAST-COMMIT-CERT"])
	}
	if kinds["PREPARE-CERT"] == 0 {
		t.Fatal("slow path never engaged")
	}
	if err := c.Audit(); err != nil {
		t.Fatal(err)
	}
}

// TestMisdirectedShareCostsNoVerify: shares go to the collector. A backup
// drops one addressed to it before checking its signature, so a replica
// flooding a backup with junk shares costs it no verification.
func TestMisdirectedShareCostsNoVerify(t *testing.T) {
	c := harness.NewCluster(harness.Options{Protocol: "sbft", N: 4, Clients: 1})
	c.Start()
	c.Submit(0, op(0, 1))
	c.RunUntilIdle(5 * time.Second)
	seq := c.Replicas[1].Ledger().LastExecuted() + 1
	before := c.Auth.Stats.VerifyOps.Load()
	for i := range 100 {
		c.Replicas[1].Deliver(2, &core.VoteMsg{Stage: core.StageSign, Seq: seq, Digest: types.Digest{byte(i)},
			Replica: 2, Sig: make([]byte, crypto.SigSize)})
	}
	if got := c.Auth.Stats.VerifyOps.Load() - before; got != 0 {
		t.Fatalf("100 shares misdirected to a backup cost %d verifications, want 0", got)
	}
}
