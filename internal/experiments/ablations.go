package experiments

import (
	"fmt"
	"io"
	"time"

	"bftkit/internal/byz"
	"bftkit/internal/core"
	"bftkit/internal/harness"
	"bftkit/internal/protocols/hotstuff"
	"bftkit/internal/sim"
	"bftkit/internal/types"
)

// Ablations quantify design decisions DESIGN.md calls out that are not
// themselves claims of the paper: the knobs our implementations depend
// on. They run with `bftbench -experiment A1` etc. and as benchmarks.
var Ablations = []Experiment{
	{"A1", "Batching ablation: throughput vs batch size (request pipelining)", A1Batching},
	{"A2", "Leader-reputation ablation: chained HotStuff with and without demotion", A2LeaderReputation},
	{"A3", "Progress-timer ablation: level- vs edge-triggered suspicion", A3ProgressTimer},
}

func init() {
	All = append(All, Ablations...)
}

// A1Batching sweeps the batch size under the egress-cost model: batching
// amortizes per-message cost, the classic throughput lever (the paper's
// "performance optimizations" family mentions request pipelining).
func A1Batching(w io.Writer) {
	fmt.Fprintln(w, "A1: throughput vs batch size (pbft, n=4, 48 clients, 50µs/msg egress)")
	fmt.Fprintf(w, "%-7s %-12s %-12s\n", "batch", "tput(req/s)", "mean lat")
	net := sim.DefaultLAN()
	net.SendCostPerMsg = 50 * time.Microsecond
	for _, batch := range []int{1, 4, 16, 64} {
		batch := batch
		_, r := run(runCfg{Proto: "pbft", N: 4, Clients: 48, PerClient: 10, Net: net,
			Tune: func(cfg *core.Config) {
				cfg.BatchSize = batch
				cfg.BatchTimeout = time.Millisecond
				cfg.ViewChangeTimeout = 3 * time.Second
				cfg.RequestTimeout = 6 * time.Second
			}})
		fmt.Fprintf(w, "%-7d %-12.0f %-12v\n", batch, r.Throughput, r.Mean.Round(100*time.Microsecond))
	}
}

// A2LeaderReputation crashes one replica under chained HotStuff with and
// without DiemBFT-style leader demotion. Without it, every three-chain of
// consecutive views touches all four replicas, so commits starve — the
// implementation note in internal/protocols/hotstuff, measured.
func A2LeaderReputation(w io.Writer) {
	fmt.Fprintln(w, "A2: chained HotStuff, n=4, leader crash at t=15ms, 20 requests × 2 clients")
	fmt.Fprintf(w, "%-14s %-11s %-10s\n", "pacemaker", "completed", "wallclock(virtual)")
	for _, plain := range []bool{false, true} {
		plain := plain
		c := harness.NewCluster(harness.Options{
			Protocol: "hotstuff", N: 4, Clients: 2, Seed: 3,
			MakeReplica: func(id types.NodeID, cfg core.Config) core.Protocol {
				return hotstuff.NewWithOptions(cfg, hotstuff.Options{PlainRoundRobin: plain})
			},
		})
		c.Start()
		c.ClosedLoop(20, op)
		c.Run(15 * time.Millisecond)
		c.Crash(2)
		c.Run(30 * time.Second) // bounded: the ablated variant never finishes
		name := "reputation"
		if plain {
			name = "round-robin"
		}
		fmt.Fprintf(w, "%-14s %-11d %-10v\n", name, c.Metrics.Completed, c.Sched.Now().Round(time.Millisecond))
	}
}

// A3ProgressTimer shows why the τ2 suspicion timer must be
// level-triggered: if fresh requests reset the deadline (edge-triggered),
// a faulty leader is never suspected under continuous load. We emulate
// the broken behavior by shrinking the client retransmission interval
// below the view-change timeout and verifying progress still happens —
// the level-triggered timer fires regardless of request arrivals.
func A3ProgressTimer(w io.Writer) {
	fmt.Fprintln(w, "A3: silent leader + clients retransmitting every 40ms (< 250ms timeout)")
	_, r := run(runCfg{Proto: "pbft", F: 1, Clients: 2, PerClient: 10, Seed: 9,
		Tune:      func(cfg *core.Config) { cfg.RequestTimeout = 40 * time.Millisecond },
		Byzantine: map[types.NodeID]byz.Behavior{0: silentLeader}})
	fmt.Fprintf(w, "completed=%d viewchanges=%d (level-triggered timers fire despite the request stream)\n",
		r.Completed, r.ViewChgs)
}
