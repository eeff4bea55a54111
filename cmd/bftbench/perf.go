package main

// Performance-snapshot mode: the CLI surface over internal/perf.
//
//	bftbench -snapshot BENCH_head.json            # run the matrix, write a snapshot
//	bftbench -compare BENCH_baseline.json BENCH_head.json
//	                                              # diff; nonzero exit on regression
//	bftbench -compare old.json new.json -profile-dir perf-profiles
//	                                              # + pprof CPU/heap per regressed cell
//	bftbench -perf-virtual BENCH_head.json        # print the deterministic section
//	bftbench -snapshot slow.json -snapshot-slow pbft
//	                                              # self-test: intentionally regressed run
//
// Virtual metrics must match the baseline exactly (the simulator is
// deterministic); intended changes are acknowledged per cell via
// -perf-allow / -perf-allow-file. Host metrics compare against
// -perf-tolerance and only gate with -perf-gate-wall.

import (
	"fmt"
	"os"
	"strings"
	"time"

	"bftkit/internal/harness"
	"bftkit/internal/perf"
)

// perfFlags carries the parsed -perf-* / -snapshot-* options.
type perfFlags struct {
	repeats     int
	slow        string
	allow       string
	allowFile   string
	tolerance   float64
	gateWall    bool
	profDir     string
	verifyCache int
}

func perfLogf(format string, args ...any) {
	fmt.Printf(format+"\n", args...)
}

// perfSnapshot runs the default matrix and writes a snapshot file.
func perfSnapshot(out string, pf perfFlags) int {
	opts := perf.RunOptions{Repeats: pf.repeats, Logf: perfLogf}
	if pf.slow != "" {
		fmt.Printf("perf: SELF-TEST — %s cells run with a delay replica; do not commit this snapshot\n", pf.slow)
		opts.Wrap = perf.SlowWrap(pf.slow, 2*time.Millisecond)
	}
	if pf.verifyCache != 0 {
		prev := opts.Wrap
		opts.Wrap = func(cell perf.Cell, h *harness.Options) {
			h.VerifyCache = pf.verifyCache
			if prev != nil {
				prev(cell, h)
			}
		}
	}
	start := time.Now()
	snap, err := perf.Take(opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bftbench: %v\n", err)
		return 1
	}
	if err := snap.WriteFile(out); err != nil {
		fmt.Fprintf(os.Stderr, "bftbench: %v\n", err)
		return 1
	}
	fmt.Printf("perf: %d cells × %d repeats → %s (rev %.12s, %v wall)\n",
		len(snap.Cells), snap.Repeats, out, snap.GitRev, time.Since(start).Round(time.Millisecond))
	return 0
}

// perfCompare diffs two snapshots and, on regression, optionally
// captures pprof profiles for every regressed cell.
func perfCompare(oldPath, newPath string, pf perfFlags) int {
	old, err := perf.ReadFile(oldPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bftbench: %v\n", err)
		return 1
	}
	nw, err := perf.ReadFile(newPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bftbench: %v\n", err)
		return 1
	}
	allow, err := perfAllowlist(pf)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bftbench: %v\n", err)
		return 1
	}
	rep := perf.Compare(old, nw, perf.CompareOptions{
		Allow:         allow,
		WallTolerance: pf.tolerance,
		GateWall:      pf.gateWall,
	})
	fmt.Printf("perf: %s (rev %.12s) vs %s (rev %.12s)\n", oldPath, old.GitRev, newPath, nw.GitRev)
	rep.Render(os.Stdout)
	if !rep.Failed() {
		return 0
	}
	if pf.profDir != "" {
		cells, unknown := perf.FindCells(nw, rep.RegressedCells())
		for _, id := range unknown {
			fmt.Fprintf(os.Stderr, "bftbench: cannot profile %s: not in the new snapshot\n", id)
		}
		if err := perf.CaptureProfiles(pf.profDir, cells, pf.repeats, nil, perfLogf); err != nil {
			fmt.Fprintf(os.Stderr, "bftbench: %v\n", err)
		}
	}
	return 1
}

// perfVirtual prints a snapshot's deterministic section — the bytes the
// CI determinism guard diffs between back-to-back snapshots.
func perfVirtual(path string) int {
	snap, err := perf.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bftbench: %v\n", err)
		return 1
	}
	os.Stdout.Write(snap.VirtualSection())
	return 0
}

// perfAllowlist merges -perf-allow patterns with -perf-allow-file lines.
// An explicitly named file must exist; the conventional default
// (.perf-allow) is optional so a fresh checkout needs no stub file.
func perfAllowlist(pf perfFlags) ([]string, error) {
	var allow []string
	for _, p := range strings.Split(pf.allow, ",") {
		if p = strings.TrimSpace(p); p != "" {
			allow = append(allow, p)
		}
	}
	if pf.allowFile != "" {
		fromFile, err := perf.ReadAllowFile(pf.allowFile, pf.allowFile == defaultAllowFile)
		if err != nil {
			return nil, err
		}
		allow = append(allow, fromFile...)
	}
	return allow, nil
}

// defaultAllowFile is the conventional committed allowlist; see
// EXPERIMENTS.md "Performance trajectory" for the workflow.
const defaultAllowFile = ".perf-allow"
