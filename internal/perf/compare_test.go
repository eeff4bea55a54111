package perf

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// synthetic builds a snapshot without touching the simulator, for
// comparator-logic tests.
func synthetic(cells ...CellResult) *Snapshot {
	return &Snapshot{Schema: SchemaVersion, GitRev: "test", Date: "t", GoVersion: "go", Repeats: 1, Cells: cells}
}

func cellResult(id string, v Virtual, h Host) CellResult {
	return CellResult{ID: id, Virtual: v, Host: h}
}

func baseVirtual() Virtual {
	return Virtual{Completed: 100, ElapsedUS: 50000, ThroughputRPS: 2000, P50US: 400, P95US: 700, P99US: 900,
		Msgs: 1200, WireBytes: 300000, SigOps: 800, MACOps: 0, MsgsPerTxn: 12, BytesPerTxn: 3000, SigOpsPerTxn: 8}
}

// TestHostMetricsNeverGate: allocation counts are recorded, not
// compared, so snapshots that differ only there are identical to the
// gate.
func TestHostMetricsNeverGate(t *testing.T) {
	old := synthetic(cellResult("a", baseVirtual(), Host{Allocs: 1000, AllocBytes: 5000}))
	nw := synthetic(cellResult("a", baseVirtual(), Host{Allocs: 10000, AllocBytes: 50000}))
	if rep := Compare(old, nw, nil); len(rep.Deltas) != 0 || rep.Failed() {
		t.Fatalf("host-only change reported: %+v", rep.Deltas)
	}
}

// TestCommittedSnapshotsReadAndCompare: every committed trajectory point
// still reads under this binary's schema (they carry fields the format
// has since dropped, which JSON ignores), and the latest one is the
// baseline the CI gate diffs against.
func TestCommittedSnapshotsReadAndCompare(t *testing.T) {
	paths, err := filepath.Glob("../../BENCH_[0-9]*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no committed BENCH_<seq>.json found")
	}
	var head *Snapshot
	latest, latestSeq := "", -1
	for _, p := range paths {
		snap, err := ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		seq, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(filepath.Base(p), "BENCH_"), ".json"))
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if seq > latestSeq {
			head, latest, latestSeq = snap, p, seq
		}
	}
	base, err := ReadFile("../../BENCH_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	if rep := Compare(head, base, nil); len(rep.Deltas) != 0 || rep.Failed() {
		var buf bytes.Buffer
		rep.Render(&buf)
		t.Fatalf("%s against BENCH_baseline.json:\n%s", latest, buf.String())
	}
}

func TestVirtualDriftAlwaysGates(t *testing.T) {
	old := synthetic(cellResult("a", baseVirtual(), Host{}))
	v := baseVirtual()
	v.P99US = 901 // one microsecond of drift is still drift
	nw := synthetic(cellResult("a", v, Host{}))
	rep := Compare(old, nw, nil)
	if !rep.Failed() {
		t.Fatal("1µs virtual drift passed")
	}
	if cells := rep.RegressedCells(); len(cells) != 1 || cells[0] != "a" {
		t.Fatalf("regressed cells %v", cells)
	}
	if rep := Compare(old, nw, []string{"a"}); rep.Failed() {
		t.Fatal("exact-match allowlist did not acknowledge the drift")
	}
}

// TestEndStateDriftGates: a cell that ends in a different state fails
// the gate like any numeric drift, ranks first, and is acknowledged the
// same way.
func TestEndStateDriftGates(t *testing.T) {
	ov, nv, slower := baseVirtual(), baseVirtual(), baseVirtual()
	ov.EndState, nv.EndState = strings.Repeat("a", 64), strings.Repeat("b", 64)
	slower.EndState = ov.EndState
	slower.P99US *= 2
	old := synthetic(cellResult("state", ov, Host{}), cellResult("slow", ov, Host{}))
	nw := synthetic(cellResult("state", nv, Host{}), cellResult("slow", slower, Host{}))
	rep := Compare(old, nw, nil)
	if !rep.Failed() || len(rep.Deltas) != 2 {
		t.Fatalf("end_state change: failed=%v deltas %+v", rep.Failed(), rep.Deltas)
	}
	d := rep.Deltas[0]
	if d.Cell != "state" || d.Metric != "end_state" || d.OldState != ov.EndState || d.NewState != nv.EndState {
		t.Fatalf("first delta %+v, want the end_state change", d)
	}
	var buf bytes.Buffer
	rep.Render(&buf)
	if !strings.Contains(buf.String(), "aaaaaaaaaaaa   bbbbbbbbbbbb   changed  VIRTUAL DRIFT") {
		t.Fatalf("end_state row not rendered:\n%s", buf.String())
	}
	if rep := Compare(old, nw, []string{"state", "slow"}); rep.Failed() || len(rep.Deltas) != 2 {
		t.Fatalf("allowlisted end_state change: failed=%v deltas %d", rep.Failed(), len(rep.Deltas))
	}
}

// TestEndStateSkippedOnlyWithoutBaseline: a baseline recorded before
// end_state existed has none, and then there is nothing to compare; a
// candidate that lost the field is still drift.
func TestEndStateSkippedOnlyWithoutBaseline(t *testing.T) {
	with := baseVirtual()
	with.EndState = strings.Repeat("c", 64)
	if rep := Compare(synthetic(cellResult("a", baseVirtual(), Host{})), synthetic(cellResult("a", with, Host{})), nil); rep.Failed() || len(rep.Deltas) != 0 {
		t.Fatalf("baseline without end_state: %+v", rep.Deltas)
	}
	if rep := Compare(synthetic(cellResult("a", with, Host{})), synthetic(cellResult("a", baseVirtual(), Host{})), nil); !rep.Failed() {
		t.Fatal("candidate without end_state passed against a baseline that has one")
	}
}

func TestMissingAndAddedCells(t *testing.T) {
	old := synthetic(
		cellResult("a", baseVirtual(), Host{}),
		cellResult("b", baseVirtual(), Host{}),
	)
	nw := synthetic(
		cellResult("a", baseVirtual(), Host{}),
		cellResult("c", baseVirtual(), Host{}),
	)
	rep := Compare(old, nw, nil)
	if !rep.Failed() {
		t.Fatal("missing baseline cell passed the gate")
	}
	if len(rep.Missing) != 1 || rep.Missing[0] != "b" || len(rep.Added) != 1 || rep.Added[0] != "c" {
		t.Fatalf("missing=%v added=%v", rep.Missing, rep.Added)
	}
	if rep := Compare(old, nw, []string{"b"}); rep.Failed() {
		t.Fatal("allowlisted missing cell still failed")
	}
	var buf bytes.Buffer
	rep.Render(&buf)
	if !strings.Contains(buf.String(), "MISSING") || !strings.Contains(buf.String(), "new cells") {
		t.Fatalf("render missing cell report:\n%s", buf.String())
	}
}

// TestWorstFirstOrdering: the delta table leads with the biggest
// regression, and improvements sort below regressions.
func TestWorstFirstOrdering(t *testing.T) {
	old := synthetic(
		cellResult("small", baseVirtual(), Host{}),
		cellResult("big", baseVirtual(), Host{}),
		cellResult("better", baseVirtual(), Host{}),
	)
	small, big, better := baseVirtual(), baseVirtual(), baseVirtual()
	small.P99US += 90            // +10%
	big.P99US += 450             // +50%
	better.ThroughputRPS += 1000 // improvement: throughput up
	nw := synthetic(
		cellResult("small", small, Host{}),
		cellResult("big", big, Host{}),
		cellResult("better", better, Host{}),
	)
	rep := Compare(old, nw, nil)
	if len(rep.Deltas) != 3 {
		t.Fatalf("want 3 deltas, got %+v", rep.Deltas)
	}
	if rep.Deltas[0].Cell != "big" || rep.Deltas[1].Cell != "small" || rep.Deltas[2].Cell != "better" {
		order := []string{rep.Deltas[0].Cell, rep.Deltas[1].Cell, rep.Deltas[2].Cell}
		t.Fatalf("order %v, want [big small better]", order)
	}
	if rep.Deltas[2].Badness >= 0 {
		t.Fatalf("throughput improvement has non-negative badness: %+v", rep.Deltas[2])
	}
}

func TestMatchPattern(t *testing.T) {
	cases := []struct {
		pattern, id string
		want        bool
	}{
		{"pbft/n=4/c=2x50/lan/closed", "pbft/n=4/c=2x50/lan/closed", true},
		{"pbft/*", "pbft/n=4/c=2x50/lan/closed", true},
		{"*/wan/*", "hotstuff/n=4/c=2x50/wan/closed", true},
		{"pbft/*", "sbft/n=4/c=2x50/lan/closed", false},
		{"*", "anything", true},
		{"pbft", "pbft/n=4/c=2x50/lan/closed", false}, // no implicit prefix match
	}
	for _, c := range cases {
		if got := matchPattern(c.pattern, c.id); got != c.want {
			t.Errorf("matchPattern(%q, %q) = %v, want %v", c.pattern, c.id, got, c.want)
		}
	}
}

func TestReadAllowFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, ".perf-allow")
	content := "# intended changes\n\npbft/*\n  hotstuff/n=4/c=2x50/wan/closed  \n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAllowFile(path, false)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"pbft/*", "hotstuff/n=4/c=2x50/wan/closed"}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("parsed %v, want %v", got, want)
	}
	if _, err := ReadAllowFile(filepath.Join(dir, "absent"), false); err == nil {
		t.Fatal("missing file with missingOK=false passed")
	}
	if pats, err := ReadAllowFile(filepath.Join(dir, "absent"), true); err != nil || pats != nil {
		t.Fatalf("missing file with missingOK=true: %v %v", pats, err)
	}
}

func TestSchemaVersionEnforced(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_old.json")
	if err := os.WriteFile(path, []byte(`{"schema": 999, "cells": []}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("foreign schema accepted: %v", err)
	}
}
