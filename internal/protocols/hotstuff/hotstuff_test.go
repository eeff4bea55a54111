package hotstuff_test

import (
	"fmt"
	"testing"
	"time"

	"bftkit/internal/byz"
	"bftkit/internal/core"
	"bftkit/internal/crypto"
	"bftkit/internal/harness"
	"bftkit/internal/kvstore"
	"bftkit/internal/protocols/hotstuff"
	"bftkit/internal/types"
)

func op(client, k int) []byte {
	return kvstore.Put(fmt.Sprintf("c%d-k%d", client, k), []byte(fmt.Sprintf("v%d", k)))
}

func TestFaultFreeCommit(t *testing.T) {
	for _, proto := range []string{"hotstuff", "hotstuff2"} {
		t.Run(proto, func(t *testing.T) {
			c := harness.NewCluster(harness.Options{Protocol: proto, N: 4, Clients: 2})
			c.Start()
			c.ClosedLoop(25, op)
			c.RunUntilIdle(60 * time.Second)
			if got, want := c.Metrics.Completed, 50; got != want {
				t.Fatalf("completed %d, want %d", got, want)
			}
			if err := c.Audit(); err != nil {
				t.Fatal(err)
			}
			h0 := c.Apps[0].Hash()
			for i, app := range c.Apps {
				if app.Hash() != h0 {
					t.Fatalf("replica %d state diverges", i)
				}
			}
		})
	}
}

func TestLinearMessageComplexity(t *testing.T) {
	// DC1's point: HotStuff traffic grows linearly in n while PBFT's
	// grows quadratically. Compare per-request message counts at two
	// cluster sizes; the ratio must stay near (n2/n1), not its square.
	perRequest := func(n int) float64 {
		c := harness.NewCluster(harness.Options{Protocol: "hotstuff", N: n, Clients: 1})
		c.Start()
		c.ClosedLoop(20, op)
		c.RunUntilIdle(60 * time.Second)
		if c.Metrics.Completed != 20 {
			t.Fatalf("n=%d completed %d, want 20", n, c.Metrics.Completed)
		}
		delivered, _ := c.Net.Totals()
		return float64(delivered) / 20
	}
	small := perRequest(4)
	big := perRequest(16)
	ratio := big / small
	if ratio > 8 { // 16/4 = 4 expected for linear; 16 for quadratic
		t.Fatalf("message growth ratio %.1f suggests quadratic traffic (small=%.0f big=%.0f)",
			ratio, small, big)
	}
}

func TestLeaderCrashPacemaker(t *testing.T) {
	for _, proto := range []string{"hotstuff", "hotstuff2"} {
		t.Run(proto, func(t *testing.T) {
			c := harness.NewCluster(harness.Options{Protocol: proto, N: 4, Clients: 2})
			c.Start()
			c.ClosedLoop(20, op)
			c.Run(15 * time.Millisecond)
			c.Crash(2) // a rotating leader in the critical path
			c.RunUntilIdle(120 * time.Second)
			if got, want := c.Metrics.Completed, 40; got != want {
				t.Fatalf("completed %d after leader crash, want %d", got, want)
			}
			if err := c.Audit(2); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestSilentLeaderTimeout(t *testing.T) {
	c := harness.NewCluster(harness.Options{
		Protocol: "hotstuff", N: 4, Clients: 2,
		Byzantine: map[types.NodeID]byz.Behavior{1: byz.SilentPhases{Phases: []string{"propose"}}},
	})
	c.Start()
	c.ClosedLoop(15, op)
	c.RunUntilIdle(120 * time.Second)
	if got, want := c.Metrics.Completed, 30; got != want {
		t.Fatalf("completed %d with silent leader, want %d", got, want)
	}
	if err := c.Audit(1); err != nil {
		t.Fatal(err)
	}
}

func TestChainedPipelineBatches(t *testing.T) {
	// The chained pipeline must keep committing when many requests
	// stream in concurrently with batching enabled.
	c := harness.NewCluster(harness.Options{
		Protocol: "hotstuff", N: 4, Clients: 8,
		Tune: func(cfg *core.Config) { cfg.BatchSize = 4 },
	})
	c.Start()
	c.ClosedLoop(15, op)
	c.RunUntilIdle(60 * time.Second)
	if got, want := c.Metrics.Completed, 120; got != want {
		t.Fatalf("completed %d, want %d", got, want)
	}
	if err := c.Audit(); err != nil {
		t.Fatal(err)
	}
}

func TestTwoPhaseCommitsFasterThanThreePhase(t *testing.T) {
	// HotStuff-2's selling point: one fewer phase in the good case.
	mean := func(proto string) time.Duration {
		c := harness.NewCluster(harness.Options{Protocol: proto, N: 4, Clients: 1})
		c.Start()
		c.ClosedLoop(30, op)
		c.RunUntilIdle(60 * time.Second)
		if c.Metrics.Completed != 30 {
			t.Fatalf("%s completed %d, want 30", proto, c.Metrics.Completed)
		}
		return c.Metrics.MeanLatency()
	}
	three := mean("hotstuff")
	two := mean("hotstuff2")
	if two >= three {
		t.Fatalf("two-phase (%v) should beat three-phase (%v)", two, three)
	}
}

func TestForgedQCRejected(t *testing.T) {
	// A QC without a valid vote quorum must neither advance highQC nor
	// commit anything.
	c := harness.NewCluster(harness.Options{Protocol: "hotstuff", N: 4, Clients: 1})
	c.Start()
	c.Submit(0, op(0, 1))
	c.RunUntilIdle(5 * time.Second)
	base := c.Replicas[2].Ledger().LastExecuted()

	forged := &hotstuff.QCMsg{QC: &hotstuff.QC{
		Block: types.DigestBytes([]byte("fake-block")), View: 999, Height: base + 50,
		Cert: &crypto.Certificate{Digest: types.DigestBytes([]byte("junk"))},
	}}
	c.Replicas[2].Deliver(1, forged)
	c.RunUntilIdle(10 * time.Second)
	if c.Replicas[2].Ledger().LastExecuted() != base {
		t.Fatal("forged QC advanced the ledger")
	}
	if c.Replicas[2].Protocol().(*hotstuff.HotStuff).View() >= 999 {
		t.Fatal("forged QC fast-forwarded the view")
	}
	if err := c.Audit(); err != nil {
		t.Fatal(err)
	}
}

func TestEquivocatingLeaderSafety(t *testing.T) {
	// An equivocating leader splits the votes: neither block can reach
	// a 2f+1 QC, the view times out, reputation benches the leader, and
	// safety holds throughout.
	c := harness.NewCluster(harness.Options{
		Protocol: "hotstuff", N: 4, Clients: 2,
		Byzantine: map[types.NodeID]byz.Behavior{1: byz.Equivocate{}},
	})
	c.Start()
	c.ClosedLoop(10, op)
	c.RunUntilIdle(300 * time.Second)
	if got, want := c.Metrics.Completed, 20; got != want {
		t.Fatalf("completed %d with equivocating leader, want %d", got, want)
	}
	if err := c.Audit(1); err != nil {
		t.Fatal(err)
	}
}
