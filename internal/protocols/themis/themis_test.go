package themis_test

import (
	"fmt"
	"testing"
	"time"

	"bftkit/internal/core"
	"bftkit/internal/harness"
	"bftkit/internal/kvstore"
	"bftkit/internal/protocols/pbft"
	_ "bftkit/internal/protocols/pbft"
	"bftkit/internal/protocols/themis"
	"bftkit/internal/types"
)

func op(client, k int) []byte {
	return kvstore.Put(fmt.Sprintf("c%d-k%d", client, k), []byte(fmt.Sprintf("v%d", k)))
}

func TestFaultFreeCommit(t *testing.T) {
	c := harness.NewCluster(harness.Options{Protocol: "themis", F: 1, Clients: 2}) // n = 5
	if c.Cfg.N != 5 {
		t.Fatalf("expected n=5 for γ=1 fairness at f=1, got %d", c.Cfg.N)
	}
	c.Start()
	c.ClosedLoop(20, op)
	c.RunUntilIdle(120 * time.Second)
	if got, want := c.Metrics.Completed, 40; got != want {
		t.Fatalf("completed %d, want %d", got, want)
	}
	kinds, _ := c.Net.KindCounts()
	if kinds["THEMIS-REPORT"] == 0 {
		t.Fatal("fair preordering reports never flowed")
	}
	if err := c.Audit(); err != nil {
		t.Fatal(err)
	}
}

func TestLeaderCrash(t *testing.T) {
	c := harness.NewCluster(harness.Options{Protocol: "themis", F: 1, Clients: 2})
	c.Start()
	c.ClosedLoop(15, op)
	c.Run(20 * time.Millisecond)
	c.Crash(0)
	c.RunUntilIdle(300 * time.Second)
	if got, want := c.Metrics.Completed, 30; got != want {
		t.Fatalf("completed %d after leader crash, want %d", got, want)
	}
	if err := c.Audit(0); err != nil {
		t.Fatal(err)
	}
}

func TestFairOrderDeterministic(t *testing.T) {
	mk := func(origin int, reqs ...*types.Request) *themis.ReportMsg {
		return &themis.ReportMsg{Origin: types.NodeID(origin), Reqs: reqs}
	}
	a := &types.Request{Client: types.ClientIDBase, ClientSeq: 1}
	b := &types.Request{Client: types.ClientIDBase + 1, ClientSeq: 1}
	cc := &types.Request{Client: types.ClientIDBase + 2, ClientSeq: 1}
	reports := []*themis.ReportMsg{
		mk(0, a, b, cc),
		mk(1, a, cc, b),
		mk(2, a, b, cc),
		mk(3, b, a, cc),
	}
	got := themis.FairOrder(reports, nil)
	if len(got) != 3 || got[0].Key() != a.Key() {
		t.Fatalf("a is first at 3 of 4 replicas and must be ordered first; got %v", got)
	}
	// Determinism: permuting the report slice must not change the order.
	perm := []*themis.ReportMsg{reports[2], reports[0], reports[3], reports[1]}
	got2 := themis.FairOrder(perm, nil)
	for i := range got {
		if got[i].Key() != got2[i].Key() {
			t.Fatal("fair order depends on report slice order")
		}
	}
}

func TestFairnessBeatsFrontRunningPBFT(t *testing.T) {
	// Q1/X8: the front-running PBFT leader inverts arrival order at
	// will; the Themis leader is pinned by the verifiable fair order.
	violations := func(proto string) float64 {
		c := harness.NewCluster(harness.Options{
			Protocol: proto, F: 1, Clients: 6, Seed: 11,
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
	fair := violations("themis")
	if fair >= unfair {
		t.Fatalf("themis violation rate %.3f should beat front-running pbft %.3f", fair, unfair)
	}
}
