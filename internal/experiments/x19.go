package experiments

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bftkit/internal/byz"
	"bftkit/internal/chaos"
	"bftkit/internal/core"
	"bftkit/internal/forensics"
	"bftkit/internal/harness"
	"bftkit/internal/kvstore"
	"bftkit/internal/monitor"
	"bftkit/internal/types"
)

// x19Interval is the monitoring plane's scrape period for this
// experiment. Detection latency is reported in multiples of it, so the
// numbers stay meaningful if the absolute period is retuned.
const x19Interval = 250 * time.Millisecond

// x19Fault is one detection scenario: a fault injected into a live TCP
// deployment, the alert rule that must flag it, a pinned bound on how
// many scrape intervals detection may take, and the set of correlated
// alerts the fault is allowed to raise alongside the expected one
// (killing the leader also severs every link to it, so link-fault and
// partition alerts are a correct side reading, not noise).
type x19Fault struct {
	name    string
	rule    string   // expected alert; "" = clean run, nothing may fire
	bound   int      // max scrape intervals from injection to firing
	allowed []string // correlated rules that may legitimately co-fire
	inject  func(clu *harness.TCPCluster, nn *chaos.NetemNet)
}

var x19Faults = []x19Fault{
	{name: "clean"},
	{
		name:  "leader-kill",
		rule:  "node_unreachable",
		bound: 6,
		allowed: []string{"link_failures", "partition_suspected",
			"view_change_storm", "replica_straggler", "progress_stall"},
		inject: func(clu *harness.TCPCluster, _ *chaos.NetemNet) {
			clu.KillReplica(0)
		},
	},
	{
		name:  "link-sever",
		rule:  "link_failures",
		bound: 10,
		allowed: []string{"partition_suspected", "view_change_storm",
			"replica_straggler"},
		inject: func(_ *harness.TCPCluster, nn *chaos.NetemNet) {
			// The leader loses its way to backup 1: the socket it
			// writes on drops and every redial is refused. 1→0 stays up.
			if l := nn.Link(0, 1); l != nil {
				l.Sever()
			}
		},
	},
	{
		name:  "byzantine-restart",
		rule:  "byzantine_proof",
		bound: 20,
		allowed: []string{"link_failures", "partition_suspected",
			"view_change_storm", "replica_straggler"},
		inject: func(clu *harness.TCPCluster, _ *chaos.NetemNet) {
			// Respawn a backup with result corruption attached: its
			// signed replies diverge from the honest quorum's, which
			// the forensics auditor converts into an offline-checkable
			// divergent-result proof the monitor then scrapes.
			clu.KillReplica(3)
			clu.SetByzantine(3, byz.CorruptResults{})
			if err := clu.RestartReplica(3); err != nil {
				panic(err)
			}
		},
	},
}

// errX19NeverSettled marks a deployment that never committed a single
// request before the baseline window. A dead-on-arrival cluster (port
// steal, boot stall under CPU contention) says nothing about detection
// latency, so the scenario is retried on a fresh deployment instead of
// being measured.
var errX19NeverSettled = errors.New("deployment never committed a request while settling")

// x19Result is one scenario's measurement.
type x19Result struct {
	fault     string
	rule      string
	bound     int
	detected  int // scrape intervals from injection to firing; -1 = never
	extras    []string
	completed int // client requests completed over the whole run
	err       error
}

// x19Run boots a pbft n=4 TCP deployment with the ops surface enabled,
// points a monitor at the four scrape targets, runs a closed-loop
// client workload throughout, injects the scenario's fault, and counts
// scrape intervals until the expected alert fires.
func x19Run(f x19Fault) (res x19Result) {
	res = x19Result{fault: f.name, rule: f.rule, bound: f.bound, detected: -1}
	nn := chaos.NewNetemNet(7)
	defer nn.Close()

	clu, err := harness.NewTCPCluster(harness.TCPOptions{
		Protocol: "pbft", N: 4, F: 1, Seed: 42,
		Tune: func(cfg *core.Config) {
			cfg.Delta = 20 * time.Millisecond
			// τ2 far above real commit latency (single-digit ms): a
			// clean run must never trigger a timeout-driven view
			// change, or the storm rule's false-positive gate would be
			// unmeasurable. Scenarios run concurrently on shared CPUs,
			// so scheduling stalls near the 250ms default do happen.
			cfg.ViewChangeTimeout = 5 * time.Second
			cfg.RequestTimeout = time.Second
			cfg.CheckpointInterval = 8
		},
		PeerView:  nn.View,
		Forensics: &forensics.Options{},
		Ops:       true,
	})
	if err != nil {
		res.err = err
		return res
	}
	defer clu.Stop()

	targets := make([]monitor.Target, 0, clu.Cfg.N)
	for i := 0; i < clu.Cfg.N; i++ {
		targets = append(targets, monitor.Target{
			Name:    fmt.Sprintf("r%d", i),
			BaseURL: clu.OpsAddrs[types.NodeID(i)],
		})
	}
	m := monitor.New(monitor.Config{Targets: targets, Interval: x19Interval})

	// Closed-loop workload for the whole run: detection must happen
	// under traffic, and the stall/straggler signals are only defined
	// while there is client demand. Timeouts are tolerated — a view
	// change or a rejoining replica slows requests without failing the
	// scenario.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var completed atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			clu.Submit(kvstore.Put(fmt.Sprintf("x19-%d", i), []byte("v")))
			if _, err := clu.AwaitDone(2 * time.Second); err == nil {
				completed.Add(1)
			}
		}
	}()
	defer func() {
		close(stop)
		wg.Wait()
		res.completed = int(completed.Load())
	}()

	// Let the mesh settle before the baseline scrape so startup churn
	// (initial dials, first-request slow path) never enters a window
	// delta: wait until the pipeline demonstrably commits, then pad.
	for wait := time.Duration(0); completed.Load() < 3 && wait < 10*time.Second; wait += 50 * time.Millisecond {
		time.Sleep(50 * time.Millisecond)
	}
	if completed.Load() == 0 {
		res.err = errX19NeverSettled
		return res
	}
	time.Sleep(2 * x19Interval)
	record := func(prefix string, alerts []monitor.Alert) {
		for _, a := range alerts {
			if a.State == "firing" {
				res.extras = append(res.extras, prefix+a.Rule)
			}
		}
	}
	// Warmup ticks establish rate baselines. Only the clean scenario
	// records alerts here: it is the false-positive gate, so startup
	// noise counts against it, while fault scenarios are judged purely
	// on what fires after injection (a slow boot under CPU contention
	// can cost a genuine view change that has nothing to do with the
	// fault being measured).
	const warm = 6
	for i := 0; i < warm; i++ {
		alerts := m.Tick(time.Now())
		if f.inject == nil {
			record("warmup:", alerts)
		}
		time.Sleep(x19Interval)
	}

	if f.inject == nil {
		// Clean run: keep scraping over the same horizon a fault would
		// get; any firing transition is a false positive.
		for i := 0; i < 10; i++ {
			record("", m.Tick(time.Now()))
			time.Sleep(x19Interval)
		}
		return res
	}

	f.inject(clu, nn)
	for i := 1; i <= f.bound+6; i++ {
		time.Sleep(x19Interval)
		for _, a := range m.Tick(time.Now()) {
			if a.State != "firing" {
				continue
			}
			if a.Rule == f.rule {
				if res.detected < 0 {
					res.detected = i
				}
			} else {
				res.extras = append(res.extras, a.Rule)
			}
		}
		if res.detected >= 0 {
			break
		}
	}
	return res
}

// x19Measure runs one scenario, rebooting it on a fresh deployment when
// the cluster never got off the ground. Everything past settling is
// measured on the first working boot only.
func x19Measure(f x19Fault) (r x19Result) {
	for attempt := 0; attempt < 3; attempt++ {
		r = x19Run(f)
		if !errors.Is(r.err, errX19NeverSettled) {
			return r
		}
	}
	return r
}

// x19Dedup sorts and uniques the co-fired rule names for display.
func x19Dedup(extras []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, e := range extras {
		if !seen[e] {
			seen[e] = true
			out = append(out, e)
		}
	}
	sort.Strings(out)
	return out
}

// X19FaultDetection measures the monitoring plane end to end: how many
// scrape intervals pass between injecting a fault into a live TCP
// deployment and the correct alert firing in the bftmon engine. The
// scrape path is the real one — per-replica HTTP ops surfaces, the
// strict Prometheus parser, windowed rate derivation, hysteresis rules
// — not a shortcut into in-process state. The clean row is the
// false-positive gate: a healthy cluster under load must stay silent.
func X19FaultDetection(w io.Writer) {
	fmt.Fprintf(w, "X19: fault-detection latency through the monitoring plane (pbft n=4 over TCP, scrape every %v)\n", x19Interval)
	fmt.Fprintf(w, "%-18s %-18s %-12s %-6s %-9s %s\n",
		"fault", "expected-alert", "detected-in", "bound", "requests", "co-fired")
	for _, f := range x19Faults {
		r := x19Measure(f)
		if r.err != nil {
			fmt.Fprintf(w, "%-18s error: %v\n", r.fault, r.err)
			continue
		}
		rule, det, bound := r.rule, "-", "-"
		if rule == "" {
			rule = "-"
		}
		if r.bound > 0 {
			bound = fmt.Sprintf("%d", r.bound)
		}
		if r.detected >= 0 {
			det = fmt.Sprintf("%d ticks", r.detected)
		} else if r.rule != "" {
			det = "MISSED"
		}
		co := strings.Join(x19Dedup(r.extras), ",")
		if co == "" {
			co = "none"
		}
		fmt.Fprintf(w, "%-18s %-18s %-12s %-6s %-9d %s\n",
			r.fault, rule, det, bound, r.completed, co)
	}
	fmt.Fprintln(w, "  detected-in = scrape intervals from fault injection to the alert's firing transition;")
	fmt.Fprintln(w, "  co-fired lists correlated alerts (killing a node also kills its links). The clean")
	fmt.Fprintln(w, "  row is the false-positive gate: under healthy load nothing may fire.")
}
