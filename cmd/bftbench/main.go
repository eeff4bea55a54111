// Command bftbench regenerates the experiment tables of EXPERIMENTS.md:
// every table and figure claim of the paper, reproduced on the
// deterministic simulator.
//
// Usage:
//
//	bftbench                 # run all experiments
//	bftbench -experiment X4  # run one experiment
//	bftbench -list           # list experiment IDs and titles
//	bftbench -stats          # print a per-phase message/byte/crypto
//	                         # breakdown after every cluster run
//	bftbench -trace t.jsonl  # dump every trace event as JSON lines
//	bftbench -csv phases.csv # per-node per-phase counters as CSV
//	bftbench -perfetto t.json    # Chrome/Perfetto trace_event timeline
//	bftbench -perfetto t.json.gz # same, gzip-compressed (-trace too)
//
// Byzantine mode runs one protocol against a live adversary from
// internal/byz and prints the attacked run next to the fault-free
// baseline, with per-phase traffic deltas:
//
//	bftbench -protocol zyzzyva -byz withhold            # replica 0 withholds votes
//	bftbench -protocol sbft -byz equivocate -byz-nodes 0
//	bftbench -protocol pbft -byz delay:10ms -byz-nodes 1,3
//	bftbench -byz list                                  # behavior catalog
//
// Forensics mode attaches the accountability auditor and prints its
// verdict table — suspicion scores per replica plus any misbehavior
// proofs, each re-verified offline against the public keys:
//
//	bftbench -forensics                                 # honest pbft run: clean verdict
//	bftbench -protocol pbft -byz equivocate -forensics  # convict the equivocator
//
// Fuzz mode explores random fault schedules (crashes, partitions, delay
// spikes, Byzantine replicas, client churn) across random protocol and
// cluster configurations on the deterministic simulator, checking the
// invariant oracle continuously. Failures are shrunk to a minimal
// schedule and written as JSON reproducers:
//
//	bftbench -fuzz -fuzz-budget 200 -seed 1      # explore 200 schedules
//	bftbench -fuzz -fuzz-time 10m                # nightly: cap on wall clock
//	bftbench -fuzz -fuzz-protocols pbft,hotstuff # restrict the sweep
//	bftbench -fuzz-replay chaos-out/chaos-pbft-seed1-case0007.json
//
// Perf mode runs the benchmark matrix (perf.DefaultMatrix: every
// registration fault-free and under a leader crash) on the simulator and
// writes/diffs BENCH_*.json snapshots, failing on any virtual-metric
// drift not acknowledged in .perf-allow (see perf.go and internal/perf).
// Flags must precede the positional candidate:
//
//	bftbench -snapshot BENCH_head.json
//	bftbench -compare BENCH_baseline.json BENCH_head.json
//	bftbench -perf-allow-file other.allow -compare old.json new.json
package main

import (
	"bufio"
	"compress/gzip"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"bftkit/internal/byz"
	"bftkit/internal/chaos"
	"bftkit/internal/experiments"
	"bftkit/internal/types"
)

func main() {
	one := flag.String("experiment", "", "run a single experiment by ID (e.g. X4)")
	list := flag.Bool("list", false, "list experiments")
	stats := flag.Bool("stats", false, "print per-phase breakdown after each run")
	trace := flag.String("trace", "", "write JSON-lines trace events to this file (.gz compresses)")
	perfetto := flag.String("perfetto", "", "write a Chrome/Perfetto trace_event JSON to this file (.gz compresses)")
	csv := flag.String("csv", "", "write per-node per-phase counters to this CSV file")
	proto := flag.String("protocol", "pbft", "protocol for -byz and -forensics runs")
	forensic := flag.Bool("forensics", false, "print the forensic verdict table for -protocol (honest run, or under -byz on -byz-nodes)")
	byzSpec := flag.String("byz", "", "Byzantine behavior spec (see -byz list), e.g. equivocate or delay:10ms")
	byzNodes := flag.String("byz-nodes", "0", "comma-separated replica IDs that turn Byzantine")
	seed := flag.Int64("seed", 7, "simulator seed for -byz and -fuzz runs")
	fuzz := flag.Bool("fuzz", false, "run a chaos campaign: random fault schedules under the invariant oracle")
	fuzzBudget := flag.Int("fuzz-budget", 256, "schedules to explore per -fuzz campaign")
	fuzzTime := flag.Duration("fuzz-time", 0, "wall-clock cap for -fuzz (0 = budget only)")
	fuzzOut := flag.String("fuzz-out", "chaos-out", "directory for shrunken JSON reproducers")
	fuzzProtos := flag.String("fuzz-protocols", "", "comma-separated protocol subset for -fuzz (default: all)")
	fuzzReplay := flag.String("fuzz-replay", "", "re-execute one reproducer (artifact or bare schedule JSON)")
	snapshot := flag.String("snapshot", "", "run the perf matrix and write a BENCH_*.json snapshot to this file")
	compare := flag.String("compare", "", "baseline snapshot; the candidate follows as a positional arg (nonzero exit on regression)")
	virtual := flag.String("perf-virtual", "", "print a snapshot's deterministic virtual-metric section and exit")
	allowFile := flag.String("perf-allow-file", defaultAllowFile, "allowlist file for -compare (one cell-ID pattern per line, #-comments)")
	flag.Parse()

	if *virtual != "" {
		os.Exit(perfVirtual(*virtual))
	}
	if *snapshot != "" {
		os.Exit(perfSnapshot(*snapshot))
	}
	if *compare != "" {
		if flag.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "bftbench: -compare wants exactly one candidate snapshot: bftbench -compare old.json new.json")
			os.Exit(2)
		}
		os.Exit(perfCompare(*compare, flag.Arg(0), *allowFile))
	}
	if *fuzzReplay != "" {
		os.Exit(replayOne(*fuzzReplay))
	}
	if *fuzz {
		var protos []string
		for _, p := range strings.Split(*fuzzProtos, ",") {
			if p = strings.TrimSpace(p); p != "" {
				protos = append(protos, p)
			}
		}
		res := chaos.Fuzz(chaos.FuzzOptions{
			Seed:      *seed,
			Budget:    *fuzzBudget,
			MaxTime:   *fuzzTime,
			Protocols: protos,
			OutDir:    *fuzzOut,
			Logf: func(format string, args ...any) {
				fmt.Printf(format+"\n", args...)
			},
		})
		fmt.Println(res.Verdict())
		if len(res.Failures) > 0 {
			os.Exit(1)
		}
		return
	}

	if *list {
		for _, e := range experiments.All {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		return
	}

	if *byzSpec == "list" {
		for _, e := range byz.Catalog() {
			fmt.Printf("%-12s %s\n", e.Name, e.Help)
		}
		return
	}

	if *stats {
		experiments.Observe.Stats = os.Stdout
	}
	if *trace != "" {
		w, err := traceFile(*trace)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bftbench: %v\n", err)
			os.Exit(1)
		}
		defer w.Close()
		experiments.Observe.TraceJSON = w
	}
	if *perfetto != "" {
		path := *perfetto
		// Reopened per cluster run — see experiments.Observe.Perfetto.
		experiments.Observe.Perfetto = func() (io.WriteCloser, error) {
			return traceFile(path)
		}
	}
	if *csv != "" {
		f, err := os.Create(*csv)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bftbench: %v\n", err)
			os.Exit(1)
		}
		w := bufio.NewWriter(f)
		defer func() { w.Flush(); f.Close() }()
		experiments.Observe.CSV = w
	}

	if *forensic || *byzSpec != "" {
		var nodes []types.NodeID
		for _, part := range strings.Split(*byzNodes, ",") {
			part = strings.TrimSpace(part)
			if part == "" {
				continue
			}
			id, err := strconv.Atoi(part)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bftbench: bad -byz-nodes entry %q\n", part)
				os.Exit(1)
			}
			nodes = append(nodes, types.NodeID(id))
		}
		var err error
		if *forensic {
			err = experiments.RunForensics(os.Stdout, *proto, *byzSpec, nodes, *seed)
		} else {
			err = experiments.RunByzantine(os.Stdout, *proto, *byzSpec, nodes, *seed)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bftbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *one != "" {
		e, ok := experiments.ByID(*one)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; try -list\n", *one)
			os.Exit(1)
		}
		runOne(e)
		return
	}
	for _, e := range experiments.All {
		runOne(e)
		fmt.Println()
	}
}

func replayOne(path string) int {
	rep, tracer, err := chaos.ReplayRecorded(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bftbench: %v\n", err)
		return 1
	}
	fmt.Printf("replay %s: protocol=%s n=%d completed=%d/%d end=%v msgs=%d\n",
		path, rep.Schedule.Config.Protocol, rep.Schedule.Config.N,
		rep.Completed, rep.Expected, rep.EndTime, rep.Msgs)
	if rep.Failed() {
		for _, v := range rep.Violations {
			fmt.Printf("  VIOLATION [%s] at %v: %s\n", v.Invariant, v.At, v.Detail)
		}
		fp := chaos.FlightPath(path)
		if err := chaos.NewFlight(rep, tracer).Write(fp); err != nil {
			fmt.Fprintf(os.Stderr, "bftbench: writing flight dump: %v\n", err)
		} else {
			fmt.Printf("  flight recorder: span timeline of the failure → %s\n", fp)
		}
		if rep.Forensics != nil && !rep.Forensics.Clean() {
			pp := chaos.ForensicsPath(path)
			if err := rep.Forensics.WriteJSON(pp); err != nil {
				fmt.Fprintf(os.Stderr, "bftbench: writing forensics bundle: %v\n", err)
			} else {
				fmt.Printf("  forensics: accountability evidence → %s\n", pp)
			}
		}
		return 1
	}
	fmt.Println("  all invariants hold")
	return 0
}

// traceFile opens a trace output file, transparently gzip-compressing
// when the name ends in .gz (event dumps compress ~10×). Close flushes
// every layer in order.
func traceFile(path string) (io.WriteCloser, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if strings.HasSuffix(path, ".gz") {
		zw := gzip.NewWriter(f)
		return &stackedWriter{Writer: bufio.NewWriter(zw), closers: []io.Closer{zw, f}}, nil
	}
	return &stackedWriter{Writer: bufio.NewWriter(f), closers: []io.Closer{f}}, nil
}

// stackedWriter is a buffered writer over a stack of wrapped layers;
// Close flushes the buffer and closes outermost-first.
type stackedWriter struct {
	*bufio.Writer
	closers []io.Closer
}

func (s *stackedWriter) Close() error {
	if err := s.Writer.Flush(); err != nil {
		return err
	}
	for _, c := range s.closers {
		if err := c.Close(); err != nil {
			return err
		}
	}
	return nil
}

func runOne(e experiments.Experiment) {
	fmt.Printf("=== %s: %s ===\n", e.ID, e.Title)
	start := time.Now()
	e.Run(os.Stdout)
	fmt.Printf("--- %s done in %v (wall clock) ---\n", e.ID, time.Since(start).Round(time.Millisecond))
}
