package main

// Performance-snapshot mode: the CLI surface over internal/perf.
//
//	bftbench -snapshot BENCH_head.json            # run the matrix, write a snapshot
//	bftbench -compare BENCH_baseline.json BENCH_head.json
//	                                              # diff; nonzero exit on drift
//	bftbench -perf-virtual BENCH_head.json        # print the deterministic section
//
// Virtual metrics must match the baseline exactly (the simulator is
// deterministic); intended changes are acknowledged per cell in the
// -perf-allow-file allowlist (default .perf-allow). Allocation counts
// are recorded in the snapshot and never compared.

import (
	"fmt"
	"os"
	"time"

	"bftkit/internal/perf"
)

// perfSnapshot runs the default matrix and writes a snapshot file.
func perfSnapshot(out string) int {
	start := time.Now()
	snap, err := perf.Take(perf.RunOptions{Logf: func(format string, args ...any) {
		fmt.Printf(format+"\n", args...)
	}})
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

// perfCompare diffs two snapshots under the allowlist in allowFile
// (none when empty); it returns nonzero on unacknowledged drift.
func perfCompare(oldPath, newPath, allowFile string) int {
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
	var allow []string
	if allowFile != "" {
		// An explicitly named file must exist; the conventional default
		// is optional so a fresh checkout needs no stub file.
		if allow, err = perf.ReadAllowFile(allowFile, allowFile == defaultAllowFile); err != nil {
			fmt.Fprintf(os.Stderr, "bftbench: %v\n", err)
			return 1
		}
	}
	rep := perf.Compare(old, nw, allow)
	fmt.Printf("perf: %s (rev %.12s) vs %s (rev %.12s)\n", oldPath, old.GitRev, newPath, nw.GitRev)
	rep.Render(os.Stdout)
	if rep.Failed() {
		return 1
	}
	return 0
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

// defaultAllowFile is the conventional committed allowlist; see
// EXPERIMENTS.md "Performance trajectory" for the workflow.
const defaultAllowFile = ".perf-allow"
