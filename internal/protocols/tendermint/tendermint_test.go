package tendermint_test

import (
	"fmt"
	"testing"
	"time"

	"bftkit/internal/byz"
	"bftkit/internal/core"
	"bftkit/internal/harness"
	"bftkit/internal/kvstore"
	"bftkit/internal/protocols/tendermint"
	"bftkit/internal/types"
)

func op(client, k int) []byte {
	return kvstore.Put(fmt.Sprintf("c%d-k%d", client, k), []byte(fmt.Sprintf("v%d", k)))
}

func tune(cfg *core.Config) {
	cfg.Delta = 20 * time.Millisecond
	cfg.ViewChangeTimeout = 100 * time.Millisecond
}

func TestFaultFreeCommit(t *testing.T) {
	c := harness.NewCluster(harness.Options{Protocol: "tendermint", N: 4, Clients: 2, Tune: tune})
	c.Start()
	c.ClosedLoop(20, op)
	c.RunUntilIdle(120 * time.Second)
	if got, want := c.Metrics.Completed, 40; got != want {
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
}

func TestProposerRotates(t *testing.T) {
	c := harness.NewCluster(harness.Options{Protocol: "tendermint", N: 4, Clients: 1, Tune: tune})
	c.Start()
	c.ClosedLoop(12, op)
	c.RunUntilIdle(120 * time.Second)
	if c.Metrics.Completed != 12 {
		t.Fatalf("completed %d, want 12", c.Metrics.Completed)
	}
	// Rotation means replica 0 must not have led every height: the
	// ViewChanged events record height transitions on every replica.
	if len(c.Metrics.ViewChanges[1]) == 0 {
		t.Fatal("no rotation events observed")
	}
}

func TestCrashedProposerRoundAdvance(t *testing.T) {
	c := harness.NewCluster(harness.Options{Protocol: "tendermint", N: 4, Clients: 2, Tune: tune})
	c.Start()
	c.ClosedLoop(12, op)
	c.Run(10 * time.Millisecond)
	c.Crash(1) // some future height's proposer
	c.RunUntilIdle(300 * time.Second)
	if got, want := c.Metrics.Completed, 24; got != want {
		t.Fatalf("completed %d with crashed proposer, want %d", got, want)
	}
	if err := c.Audit(1); err != nil {
		t.Fatal(err)
	}
}

func TestSilentProposerRoundAdvance(t *testing.T) {
	c := harness.NewCluster(harness.Options{
		Protocol: "tendermint", N: 4, Clients: 2, Tune: tune,
		Byzantine: map[types.NodeID]byz.Behavior{2: byz.SilentPhases{Phases: []string{"propose"}}},
	})
	c.Start()
	c.ClosedLoop(10, op)
	c.RunUntilIdle(300 * time.Second)
	if got, want := c.Metrics.Completed, 20; got != want {
		t.Fatalf("completed %d with silent proposer, want %d", got, want)
	}
	if err := c.Audit(2); err != nil {
		t.Fatal(err)
	}
}

func TestDeltaWaitGovernsLatency(t *testing.T) {
	// DC4/X11: with actual network delay δ≪Δ, per-height latency is
	// dominated by the proposer's Δ wait. Doubling Δ must raise mean
	// latency; the SkipDeltaWait optimization must lower it.
	run := func(delta time.Duration, skip bool) time.Duration {
		c := harness.NewCluster(harness.Options{
			Protocol: "tendermint", N: 4, Clients: 1,
			Tune: func(cfg *core.Config) {
				cfg.Delta = delta
				cfg.ViewChangeTimeout = 20 * delta
			},
			MakeReplica: func(id types.NodeID, cfg core.Config) core.Protocol {
				return tendermint.NewWithOptions(cfg, tendermint.Options{SkipDeltaWait: skip})
			},
		})
		c.Start()
		c.ClosedLoop(20, op)
		c.RunUntilIdle(600 * time.Second)
		if c.Metrics.Completed != 20 {
			t.Fatalf("completed %d, want 20 (Δ=%v skip=%v)", c.Metrics.Completed, delta, skip)
		}
		return c.Metrics.MeanLatency()
	}
	small := run(20*time.Millisecond, false)
	big := run(80*time.Millisecond, false)
	if big <= small {
		t.Fatalf("latency should grow with Δ: Δ=20ms→%v, Δ=80ms→%v", small, big)
	}
	opt := run(80*time.Millisecond, true)
	if opt >= big {
		t.Fatalf("SkipDeltaWait should cut latency: plain %v, optimized %v", big, opt)
	}
}

func TestEquivocatingProposerSafety(t *testing.T) {
	// The proposer of some heights equivocates; the prevote quorum and
	// the locking rule must prevent two values from ever committing at
	// one height, and liveness must return through round advancement.
	c := harness.NewCluster(harness.Options{
		Protocol: "tendermint", N: 4, Clients: 2, Tune: tune,
		Byzantine: map[types.NodeID]byz.Behavior{1: byz.Equivocate{}},
	})
	c.Start()
	c.ClosedLoop(10, op)
	c.RunUntilIdle(300 * time.Second)
	if got, want := c.Metrics.Completed, 20; got != want {
		t.Fatalf("completed %d with equivocating proposer, want %d", got, want)
	}
	if err := c.Audit(1); err != nil {
		t.Fatal(err)
	}
}

// TestDecisionRefusesRepeatedVoter: a transferred decision needs 2f+1
// precommits from 2f+1 distinct voters. One voter's genuine precommit
// named 2f+1 times is one vote. A replica that took it for a decision
// would also take its batch for the round's proposal, and then could not
// adopt the height's real decision.
func TestDecisionRefusesRepeatedVoter(t *testing.T) {
	c := harness.NewCluster(harness.Options{Protocol: "tendermint", N: 4, Clients: 1, Tune: tune})
	c.Start()
	batch := func(seq uint64) *types.Batch {
		req := &types.Request{Client: types.ClientIDBase, ClientSeq: seq, Op: op(0, int(seq))}
		req.Sig = c.Auth.Signer(req.Client).Sign(req.Digest())
		return types.NewBatch(req)
	}
	decision := func(b *types.Batch, voters ...types.NodeID) *tendermint.DecisionMsg {
		m := &tendermint.DecisionMsg{Height: 1, Batch: b}
		for _, id := range voters {
			v := &tendermint.VoteMsg{Type: "PRECOMMIT", Height: 1, Digest: b.Digest(), Replica: id}
			m.Voters = append(m.Voters, id)
			m.Sigs = append(m.Sigs, c.Auth.Signer(id).Sign(v.SigDigest()))
		}
		return m
	}
	r0 := c.Replicas[0].Protocol().(*tendermint.Tendermint)

	r0.OnMessage(3, decision(batch(1), 3, 3, 3))
	if r0.Height() != 1 {
		t.Fatalf("replica 0 decided height 1 on one voter named three times (now at height %d)", r0.Height())
	}
	// Three distinct voters are a quorum: the height's real decision is
	// adopted.
	r0.OnMessage(3, decision(batch(2), 1, 2, 3))
	if r0.Height() != 2 {
		t.Fatalf("replica 0 is at height %d after a valid decision, want 2", r0.Height())
	}
}

// TestCrashedProposerSkippedUnderOpenLoad: a crashed proposer's round is
// skipped while requests keep arriving. τ4 is armed once per round, so
// neither fresh requests nor client retransmissions push the propose
// timeout out, and the nil prevote's own timeout then carries the round
// on to the next proposer.
func TestCrashedProposerSkippedUnderOpenLoad(t *testing.T) {
	c := harness.NewCluster(harness.Options{Protocol: "tendermint", N: 4, Clients: 4})
	c.Crash(1) // the proposer of height 1, round 0
	c.Start()
	c.OpenLoop(20, 200*time.Millisecond, op)
	c.RunUntilIdle(120 * time.Second)
	if got, want := c.Metrics.Completed, 80; got != want {
		t.Fatalf("completed %d of %d requests with a crashed proposer under open load", got, want)
	}
	if err := c.Audit(1); err != nil {
		t.Fatal(err)
	}
}
