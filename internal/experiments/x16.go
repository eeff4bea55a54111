package experiments

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"bftkit/internal/byz"
	"bftkit/internal/core"
	"bftkit/internal/forensics"
	"bftkit/internal/harness"
	"bftkit/internal/obsv"
	"bftkit/internal/types"
)

// x16Run executes one protocol under one Byzantine behavior assigned to
// one replica, returning the cluster (for kind counts and audit) and the
// aggregate result. A nil behavior is the fault-free baseline.
//
// Tuning: BatchSize 1 with CheckpointInterval 5 keeps the 30-request
// workload an exact checkpoint multiple, so the speculative protocols'
// lazy-commit tails quiesce instead of rotating views forever after the
// run drains; the Window bounds the equivocation runs, whose conflicting
// leftover slots keep view-change timers armed indefinitely.
func x16Run(proto string, b byz.Behavior, node types.NodeID, prepare func(*harness.Cluster)) (*harness.Cluster, result) {
	rc := runCfg{Proto: proto, F: 1, Clients: 2, PerClient: 15, Seed: 7, Prepare: prepare,
		Window: 20 * time.Second,
		Tune: func(cfg *core.Config) {
			cfg.BatchSize = 1
			cfg.CheckpointInterval = 5
			cfg.RequestTimeout = 100 * time.Millisecond
		}}
	if b != nil {
		rc.Byzantine = map[types.NodeID]byz.Behavior{node: b}
	}
	return run(rc)
}

// X16ByzantineFallback measures the paper's DC5–DC8 fallback claims
// against live adversaries from internal/byz. Three speculative
// protocols face a vote/reply withholder and an equivocating leader:
//
//   - Zyzzyva (DC8): its 3f+1 speculative quorum dies with one silent
//     replica — the client falls back to the 2f+1 commit-certificate
//     repair path (ZYZ-COMMIT traffic); an equivocating leader splits
//     speculative histories and costs a view change.
//   - SBFT (DC6): the all-replica fast path falls back to the τ3 slow
//     path (prepare/commit proofs replace fast-commit proofs).
//   - PoE (DC7): 2f+1 certificates absorb a withholder with no timeout
//     and no view change — the responsiveness argument — while an
//     equivocator still forces a view change.
//
// The last row is P6: a result-corrupting replica that also stuffs
// forged-identity votes cannot make any client accept a wrong result,
// because clients key votes by authenticated sender and need f+1
// matching replies.
func X16ByzantineFallback(w io.Writer) {
	fmt.Fprintln(w, "X16: Byzantine behaviors vs speculative fast paths (f=1, one Byzantine replica)")
	fmt.Fprintf(w, "%-9s %-11s %-10s %-9s %-9s %-8s %s\n",
		"protocol", "behavior", "completed", "fastpath", "slowpath", "viewchg", "p50")

	type probe struct {
		fast, slow string // message kinds distinguishing the paths
	}
	probes := map[string]probe{
		"zyzzyva": {fast: "PROPOSE", slow: "ZYZ-COMMIT"},
		"sbft":    {fast: "FAST-COMMIT-CERT", slow: "PREPARE-CERT"},
		"poe":     {fast: "SHARE-CERT", slow: "VIEW-CHANGE"},
	}
	for _, proto := range []string{"zyzzyva", "sbft", "poe"} {
		for _, row := range []struct {
			label string
			b     byz.Behavior
			node  types.NodeID
		}{
			{"none", nil, 0},
			{"withhold", byz.WithholdVotes(), 3},
			{"equivocate", byz.Equivocate{}, 0}, // the initial leader lies
		} {
			c, r := x16Run(proto, row.b, row.node, nil)
			kinds, _ := c.Net.KindCounts()
			p := probes[proto]
			fmt.Fprintf(w, "%-9s %-11s %-10d %-9d %-9d %-8d %v\n",
				proto, row.label, r.Completed, kinds[p.fast], kinds[p.slow],
				r.ViewChgs, r.P50.Round(time.Millisecond))
		}
	}

	// P6: the client's last line of defense against a lying executor.
	var corrupted int
	c, r := x16Run("pbft", byz.CorruptResults{Stuff: true}, 3, func(c *harness.Cluster) {
		c.DoneHook = func(_ types.NodeID, _ *types.Request, result []byte, _ time.Duration) {
			if bytes.Equal(result, byz.CorruptValue) {
				corrupted++
			}
		}
	})
	fmt.Fprintf(w, "%-9s %-11s %-10d corrupted results accepted: %d (f+1 matching replies, keyed by sender)\n",
		"pbft", "stuff", r.Completed, corrupted)
	if err := c.Audit(); err != nil {
		fmt.Fprintf(w, "  AUDIT FAILED: %v\n", err)
	}
	fmt.Fprintln(w, "  withhold: sbft pays the τ3 slow path, poe stays responsive (DC6 vs DC7),")
	fmt.Fprintln(w, "  zyzzyva's client repairs via commit certificates (DC8); equivocation costs a view change.")
}

// RunByzantine is the bftbench -byz entry point: one protocol, one
// behavior on chosen replicas, with per-phase obsv accounting showing
// what the attack costs next to the fault-free baseline.
func RunByzantine(w io.Writer, proto, spec string, nodes []types.NodeID, seed int64) error {
	b, err := byz.Parse(spec)
	if err != nil {
		return err
	}
	if len(nodes) == 0 {
		nodes = []types.NodeID{0}
	}
	byzMap := make(map[types.NodeID]byz.Behavior, len(nodes))
	for _, id := range nodes {
		byzMap[id] = b
	}

	tune := func(cfg *core.Config) {
		cfg.BatchSize = 1
		cfg.CheckpointInterval = 5
		cfg.RequestTimeout = 100 * time.Millisecond
	}
	baseTr := obsv.New(obsv.Options{})
	_, base := run(runCfg{Proto: proto, F: 1, Clients: 2, PerClient: 15, Seed: seed,
		Window: 20 * time.Second, Tune: tune, Trace: baseTr})
	atkTr := obsv.New(obsv.Options{})
	c, atk := run(runCfg{Proto: proto, F: 1, Clients: 2, PerClient: 15, Seed: seed,
		Window: 20 * time.Second, Tune: tune, Byzantine: byzMap, Trace: atkTr,
		Forensics: &forensics.Options{}})

	ids := make([]string, len(nodes))
	for i, id := range nodes {
		ids[i] = fmt.Sprint(id)
	}
	fmt.Fprintf(w, "byz: %s under %q on replica(s) %s (f=%d, n=%d)\n",
		proto, b.Name(), strings.Join(ids, ","), c.Cfg.F, c.Cfg.N)
	fmt.Fprintf(w, "%-10s %-10s %-10s %-10s %-10s %s\n", "run", "completed", "p50", "p99", "msgs/req", "viewchgs")
	for _, row := range []struct {
		label string
		r     result
	}{{"baseline", base}, {"attacked", atk}} {
		fmt.Fprintf(w, "%-10s %-10d %-10v %-10v %-10.1f %d\n", row.label, row.r.Completed,
			row.r.P50.Round(time.Millisecond), row.r.P99.Round(time.Millisecond),
			row.r.MsgsPerReq, row.r.ViewChgs)
	}
	if err := c.Audit(); err != nil {
		fmt.Fprintf(w, "SAFETY AUDIT FAILED: %v\n", err)
	} else {
		fmt.Fprintln(w, "safety audit: honest replicas executed identical histories")
	}

	// Per-phase deltas: where the attack's extra traffic landed.
	fmt.Fprintln(w, "\nper-phase traffic (attacked vs baseline):")
	basePh, atkPh := baseTr.PerPhase(), atkTr.PerPhase()
	phases := make([]string, 0, len(atkPh))
	for ph := range atkPh {
		phases = append(phases, ph)
	}
	for ph := range basePh {
		if _, ok := atkPh[ph]; !ok {
			phases = append(phases, ph)
		}
	}
	sort.Strings(phases)
	fmt.Fprintf(w, "%-14s %12s %12s %14s %14s\n", "phase", "msgs", "Δmsgs", "bytes", "Δbytes")
	for _, ph := range phases {
		a, bl := atkPh[ph], basePh[ph]
		fmt.Fprintf(w, "%-14s %12d %+12d %14d %+14d\n",
			ph, a.MsgsSent, a.MsgsSent-bl.MsgsSent, a.BytesSent, a.BytesSent-bl.BytesSent)
	}

	// Accountability: what the forensic auditor, watching only delivered
	// messages, can pin on the attacker — and whether its proofs survive
	// an offline re-check against the deployment's public keys.
	fmt.Fprintln(w)
	rep := c.Forensics.Report(c.Sched.Now())
	rep.WriteTable(w)
	ring := c.Auth.KeyRing(c.Cfg.N)
	for _, p := range rep.Proofs {
		if err := p.Verify(ring, c.Cfg.F); err != nil {
			fmt.Fprintf(w, "  PROOF FAILED OFFLINE RE-VERIFICATION: %v\n", err)
		}
	}
	return nil
}
