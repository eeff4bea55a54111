package prime_test

import (
	"fmt"
	"testing"
	"time"

	"bftkit/internal/byz"
	"bftkit/internal/core"
	"bftkit/internal/harness"
	"bftkit/internal/kvstore"
	"bftkit/internal/protocols/pbft"
	"bftkit/internal/protocols/prime"
	"bftkit/internal/types"
)

func op(client, k int) []byte {
	return kvstore.Put(fmt.Sprintf("c%d-k%d", client, k), []byte(fmt.Sprintf("v%d", k)))
}

func TestFaultFreeCommit(t *testing.T) {
	c := harness.NewCluster(harness.Options{Protocol: "prime", N: 4, Clients: 2})
	c.Start()
	c.ClosedLoop(20, op)
	c.RunUntilIdle(60 * time.Second)
	if got, want := c.Metrics.Completed, 40; got != want {
		t.Fatalf("completed %d, want %d", got, want)
	}
	kinds, _ := c.Net.KindCounts()
	if kinds["PO-REQUEST"] == 0 || kinds["PO-ACK"] == 0 {
		t.Fatal("preordering stage did not run")
	}
	if err := c.Audit(); err != nil {
		t.Fatal(err)
	}
}

func TestPreorderingCostsMessages(t *testing.T) {
	// Robustness is not free (DC12): Prime's preordering adds quadratic
	// traffic per request compared with plain PBFT.
	msgs := func(proto string) int64 {
		c := harness.NewCluster(harness.Options{Protocol: proto, N: 4, Clients: 1})
		c.Start()
		c.ClosedLoop(20, op)
		c.RunUntilIdle(60 * time.Second)
		if c.Metrics.Completed != 20 {
			t.Fatalf("%s completed %d", proto, c.Metrics.Completed)
		}
		d, _ := c.Net.Totals()
		return d
	}
	if p, b := msgs("prime"), msgs("pbft"); p <= b {
		t.Fatalf("prime (%d msgs) should cost more than pbft (%d msgs)", p, b)
	}
}

func TestDelayAttackBounded(t *testing.T) {
	// X14's core claim: a Byzantine leader adding delay just under
	// PBFT's view-change timeout tanks PBFT's latency with impunity;
	// Prime's monitor evicts it within the (much tighter) bound.
	attack := 150 * time.Millisecond // < PBFT's 250ms timeout
	run := func(proto string) (time.Duration, int) {
		c := harness.NewCluster(harness.Options{
			Protocol: proto, N: 4, Clients: 2,
			Byzantine: map[types.NodeID]byz.Behavior{
				0: byz.DelayProposals{Delay: attack, Phases: []string{"propose"}}},
		})
		c.Start()
		c.ClosedLoop(15, op)
		c.RunUntilIdle(300 * time.Second)
		if c.Metrics.Completed != 30 {
			t.Fatalf("%s completed %d under delay attack", proto, c.Metrics.Completed)
		}
		vcs := 0
		for id, vs := range c.Metrics.ViewChanges {
			if id != 0 {
				vcs += len(vs)
			}
		}
		return c.Metrics.LatencyPercentile(50), vcs
	}
	pbftLat, pbftVCs := run("pbft")
	primeLat, primeVCs := run("prime")
	if pbftVCs != 0 {
		t.Fatalf("pbft should tolerate the sub-timeout delay attack without view changes, saw %d", pbftVCs)
	}
	if primeVCs == 0 {
		t.Fatal("prime's monitor should have evicted the delaying leader")
	}
	if primeLat >= pbftLat/2 {
		t.Fatalf("prime median latency %v should be far below pbft's %v under attack", primeLat, pbftLat)
	}
}

// TestEarlyAcksForAnotherDigestDoNotMakeARequestEligible is the
// regression test for PO-ACKs counted before their PO-REQUEST: they were
// counted whatever digest they named, so an equivocating origin that
// showed two replicas request B and the leader request A at the same
// (origin, localSeq) made A eligible on the leader's own ack alone. An
// ack now counts only toward the digest it names.
func TestEarlyAcksForAnotherDigestDoNotMakeARequestEligible(t *testing.T) {
	c := harness.NewCluster(harness.Options{Protocol: "prime", N: 4, Clients: 1})
	c.Start()
	leader, origin := c.Replicas[0], c.Replicas[3]
	other := &types.Request{Client: types.ClientIDBase, ClientSeq: 1, Op: op(0, 2)}
	for _, acker := range c.Replicas[1:3] { // 2f acks for B
		ack := &prime.POAckMsg{Origin: origin.ID(), LocalSeq: 1, Digest: other.Digest(), Replica: acker.ID()}
		ack.Sig = acker.Signer().Sign(ack.SigDigest())
		leader.Deliver(acker.ID(), ack)
	}
	req := &types.Request{Client: types.ClientIDBase, ClientSeq: 1, Op: op(0, 1)}
	req.Sig = c.Auth.Signer(req.Client).Sign(req.Digest())
	pr := &prime.PORequestMsg{Origin: origin.ID(), LocalSeq: 1, Req: req}
	pr.Sig = origin.Signer().Sign(pr.SigDigest())
	leader.Deliver(origin.ID(), pr)
	c.Run(20 * time.Millisecond)
	if kinds, _ := c.Net.KindCounts(); kinds["PROPOSE"] != 0 {
		t.Fatalf("the leader proposed a request backed by its own ack alone (%d PROPOSE sent)", kinds["PROPOSE"])
	}
}

func TestLeaderCrash(t *testing.T) {
	c := harness.NewCluster(harness.Options{Protocol: "prime", N: 4, Clients: 2})
	c.Start()
	c.ClosedLoop(15, op)
	c.Run(15 * time.Millisecond)
	c.Crash(0)
	c.RunUntilIdle(120 * time.Second)
	if got, want := c.Metrics.Completed, 30; got != want {
		t.Fatalf("completed %d after leader crash, want %d", got, want)
	}
	if err := c.Audit(0); err != nil {
		t.Fatal(err)
	}
}

func TestPreorderImprovesFairness(t *testing.T) {
	// X8's shape: a front-running PBFT leader freely reorders requests
	// it buffers; Prime's preorder coordinates pin the feed order.
	violations := func(proto string) float64 {
		c := harness.NewCluster(harness.Options{
			Protocol: proto, N: 4, Clients: 6, Seed: 7,
			Tune: func(cfg *core.Config) { cfg.BatchSize = 1 },
			MakeReplica: func(id types.NodeID, cfg core.Config) core.Protocol {
				if id == 0 && proto == "pbft" {
					return pbft.NewWithOptions(cfg, pbft.Options{FrontRun: true})
				}
				return nil
			},
		})
		c.Start()
		c.OpenLoop(10, 3*time.Millisecond, op)
		c.RunUntilIdle(300 * time.Second)
		if c.Metrics.Completed < 55 {
			t.Fatalf("%s completed only %d", proto, c.Metrics.Completed)
		}
		v, pairs := c.Metrics.FairnessViolations(2 * time.Millisecond)
		if pairs == 0 {
			t.Fatalf("%s: no measurable pairs", proto)
		}
		return float64(v) / float64(pairs)
	}
	unfair := violations("pbft")
	fair := violations("prime")
	if fair >= unfair {
		t.Fatalf("prime violation rate %.3f should beat front-running pbft %.3f", fair, unfair)
	}
}
