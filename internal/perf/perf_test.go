package perf

import (
	"bytes"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bftkit/internal/byz"
	"bftkit/internal/core"
	"bftkit/internal/harness"
	"bftkit/internal/types"
)

// smallMatrix keeps sim work per test in the tens of milliseconds while
// still exercising two protocols and both comparison paths.
func smallMatrix() []Cell {
	return []Cell{
		{Protocol: "pbft", N: 4, Clients: 2, PerClient: 10, Net: "lan", Workload: "closed", Seed: 1},
		{Protocol: "zyzzyva", N: 4, Clients: 2, PerClient: 10, Net: "lan", Workload: "closed", Seed: 1},
	}
}

// TestSnapshotDeterminism is the guard the CI perf job relies on: two
// back-to-back snapshots at the same revision must produce byte-identical
// virtual-metric sections (headers and allocation counts may differ).
func TestSnapshotDeterminism(t *testing.T) {
	a, err := Take(RunOptions{Matrix: smallMatrix(), Repeats: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Take(RunOptions{Matrix: smallMatrix(), Repeats: 2})
	if err != nil {
		t.Fatal(err)
	}
	va, vb := a.VirtualSection(), b.VirtualSection()
	if !bytes.Equal(va, vb) {
		t.Fatalf("virtual sections differ between back-to-back snapshots:\n--- a ---\n%s\n--- b ---\n%s", va, vb)
	}
	if len(a.Cells) != len(smallMatrix()) {
		t.Fatalf("got %d cells, want %d", len(a.Cells), len(smallMatrix()))
	}
	for _, c := range a.Cells {
		if c.Virtual.Completed != c.Cell.Clients*c.Cell.PerClient {
			t.Errorf("%s: completed %d, want %d", c.ID, c.Virtual.Completed, c.Cell.Clients*c.Cell.PerClient)
		}
		if c.Virtual.Msgs == 0 || c.Virtual.WireBytes == 0 || c.Virtual.ThroughputRPS == 0 {
			t.Errorf("%s: empty virtual metrics: %+v", c.ID, c.Virtual)
		}
		if c.Host.Allocs <= 0 {
			t.Errorf("%s: non-positive alloc count %d", c.ID, c.Host.Allocs)
		}
	}
	if a.Schema != SchemaVersion || a.GoVersion == "" || a.Date == "" {
		t.Errorf("incomplete header: %+v", a)
	}
}

// SlowWrap returns a Wrap hook that makes every cell of one protocol run
// with replica 1 delaying its ordering messages by d (zero = byz's 5ms
// default) — an intentionally regressed build.
func SlowWrap(protocol string, d time.Duration) func(Cell, *harness.Options) {
	return func(cell Cell, opts *harness.Options) {
		if cell.Protocol != protocol {
			return
		}
		opts.Byzantine = map[types.NodeID]byz.Behavior{
			1: byz.DelayProposals{Delay: d},
		}
	}
}

// TestCompareCatchesSlowdown pins the acceptance criterion: a snapshot
// taken with one protocol intentionally slowed (a byz delay replica)
// must fail the comparison and name the regressed cells.
func TestCompareCatchesSlowdown(t *testing.T) {
	base, err := Take(RunOptions{Matrix: smallMatrix(), Repeats: 1})
	if err != nil {
		t.Fatal(err)
	}
	slow, err := Take(RunOptions{
		Matrix:  smallMatrix(),
		Repeats: 1,
		Wrap:    SlowWrap("pbft", 2*time.Millisecond),
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := Compare(base, slow, nil)
	if !rep.Failed() {
		t.Fatal("comparator passed a run with a delay replica injected")
	}
	pbftID := smallMatrix()[0].ID()
	zyzID := smallMatrix()[1].ID()
	regressed := rep.RegressedCells()
	if len(regressed) == 0 || regressed[0] != pbftID {
		t.Fatalf("regressed cells %v, want [%s ...]", regressed, pbftID)
	}
	for _, id := range regressed {
		if id == zyzID {
			t.Fatalf("untouched cell %s reported as regressed", zyzID)
		}
	}
	var buf bytes.Buffer
	rep.Render(&buf)
	out := buf.String()
	if !strings.Contains(out, "VIRTUAL DRIFT") || !strings.Contains(out, pbftID) || !strings.Contains(out, "FAIL") {
		t.Fatalf("render missing drift verdict or cell name:\n%s", out)
	}

	// The same drift, acknowledged per-cell, passes the gate but is
	// still visible in the table — the intended-change workflow.
	allowed := Compare(base, slow, []string{"pbft/*"})
	if allowed.Failed() {
		t.Fatal("allowlisted drift still failed the gate")
	}
	buf.Reset()
	allowed.Render(&buf)
	if !strings.Contains(buf.String(), "drift (allowed)") || !strings.Contains(buf.String(), "PASS") {
		t.Fatalf("allowed drift not rendered as such:\n%s", buf.String())
	}
}

// TestCompareSelf: a snapshot against itself is a clean pass with no
// deltas.
func TestCompareSelf(t *testing.T) {
	snap, err := Take(RunOptions{Matrix: smallMatrix()[:1], Repeats: 1})
	if err != nil {
		t.Fatal(err)
	}
	rep := Compare(snap, snap, nil)
	if rep.Failed() || len(rep.Deltas) != 0 || len(rep.Missing) != 0 || len(rep.Added) != 0 {
		t.Fatalf("self-comparison not clean: %+v", rep)
	}
}

// TestSnapshotRoundTrip pins the on-disk format: write, read back,
// identical virtual section and header.
func TestSnapshotRoundTrip(t *testing.T) {
	snap, err := Take(RunOptions{Matrix: smallMatrix()[:1], Repeats: 1})
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/BENCH_test.json"
	if err := snap.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap.VirtualSection(), got.VirtualSection()) {
		t.Fatal("virtual section changed across write/read")
	}
	if got.GitRev != snap.GitRev || got.Repeats != snap.Repeats {
		t.Fatalf("header changed across write/read: %+v vs %+v", got, snap)
	}
}

// TestTakeRejectsBadCells: unknown net/workload names are errors, not
// silently skipped cells (a silently shrinking matrix would make every
// comparison vacuously green).
func TestTakeRejectsBadCells(t *testing.T) {
	bad := []Cell{{Protocol: "pbft", N: 4, Clients: 1, PerClient: 1, Net: "dialup", Workload: "closed", Seed: 1}}
	if _, err := Take(RunOptions{Matrix: bad, Repeats: 1}); err == nil {
		t.Fatal("unknown net accepted")
	}
	bad[0].Net, bad[0].Workload = "lan", "adversarial"
	if _, err := Take(RunOptions{Matrix: bad, Repeats: 1}); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

// TestTakeFillsEndState: every cell, whatever its workload, records a
// SHA-256 end state.
func TestTakeFillsEndState(t *testing.T) {
	matrix := append(smallMatrix(),
		Cell{Protocol: "pbft", N: 4, Clients: 2, PerClient: 10, Net: "lan", Workload: "zipf", Seed: 1},
		Cell{Protocol: "pbft", N: 4, Clients: 2, PerClient: 10, Net: "lan", Workload: "leader-crash", Seed: 1})
	snap, err := Take(RunOptions{Matrix: matrix, Repeats: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range snap.Cells {
		if b, err := hex.DecodeString(c.Virtual.EndState); err != nil || len(b) != 32 {
			t.Errorf("%s: end_state %q is not a hex SHA-256", c.ID, c.Virtual.EndState)
		}
	}
}

// TestCrashCellCatchesViewChangeDrift: a setting that only the crash
// path reads — the view-change timeout, doubled — drifts the
// leader-crash cell and leaves the fault-free cell of the same protocol
// bit-identical, so the crash cells gate what the good case cannot see.
func TestCrashCellCatchesViewChangeDrift(t *testing.T) {
	closed := smallMatrix()[0]
	crash := closed
	crash.Workload = "leader-crash"
	matrix := []Cell{closed, crash}
	slowTimeout := func(_ Cell, opts *harness.Options) {
		prev := opts.Tune
		opts.Tune = func(cfg *core.Config) {
			if prev != nil {
				prev(cfg)
			}
			cfg.ViewChangeTimeout *= 2
		}
	}
	base, err := Take(RunOptions{Matrix: matrix, Repeats: 1})
	if err != nil {
		t.Fatal(err)
	}
	if base.Cells[1].Virtual.ViewChanges == 0 {
		t.Fatalf("%s ran no view change", crash.ID())
	}
	tuned, err := Take(RunOptions{Matrix: matrix, Repeats: 1, Wrap: slowTimeout})
	if err != nil {
		t.Fatal(err)
	}
	rep := Compare(base, tuned, nil)
	if cells := rep.RegressedCells(); len(cells) != 1 || cells[0] != crash.ID() {
		var buf bytes.Buffer
		rep.Render(&buf)
		t.Fatalf("regressed cells %v, want [%s]:\n%s", cells, crash.ID(), buf.String())
	}
}

// TestDefaultMatrixCoversEveryRegistration: every registration has one
// fault-free LAN cell at its minimum n for f = 1 and leader-crash cells
// at seeds 1–3, and every cell ID of the last ten-cell trajectory point
// is still in the matrix, byte for byte.
func TestDefaultMatrixCoversEveryRegistration(t *testing.T) {
	// The matrix is derived from the registry, so a protocol package
	// this package does not import would silently have no cells. Count
	// the registrations the protocol sources make instead.
	sources, err := filepath.Glob("../protocols/*/*.go")
	if err != nil {
		t.Fatal(err)
	}
	registered := 0
	for _, path := range sources {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		registered += strings.Count(string(b), "core.Register(")
	}
	names := core.Names()
	if len(names) != registered {
		t.Fatalf("%d registrations linked into internal/perf, the protocol packages make %d: import the missing package in run.go",
			len(names), registered)
	}

	matrix := DefaultMatrix()
	for _, name := range names {
		reg, _ := core.Lookup(name)
		n := reg.Profile.MinReplicas(1)
		lan, seeds := 0, make(map[int64]bool)
		for _, c := range matrix {
			switch {
			case c.Protocol != name:
			case c.Net == "lan" && c.Workload == "closed" && c.N == n:
				lan++
			case c.Net == "lan" && c.Workload == "leader-crash" && c.N == n:
				seeds[c.Seed] = true
			}
		}
		if lan != 1 {
			t.Errorf("%s: %d lan/closed cells at n=%d, want 1", name, lan, n)
		}
		if len(seeds) != 3 || !seeds[1] || !seeds[2] || !seeds[3] {
			t.Errorf("%s: leader-crash cells at seeds %v, want 1, 2 and 3", name, seeds)
		}
	}

	ids := make(map[string]bool)
	for _, c := range matrix {
		ids[c.ID()] = true
	}
	prior, err := ReadFile("../../BENCH_15.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(prior.Cells) != 10 {
		t.Fatalf("BENCH_15.json has %d cells, want 10", len(prior.Cells))
	}
	for _, c := range prior.Cells {
		if !ids[c.ID] {
			t.Errorf("BENCH_15.json cell %s is not in the matrix", c.ID)
		}
	}
}

// TestDefaultMatrixIDsUnique: the allowlist and comparator key on cell
// IDs, so duplicates would silently merge cells.
func TestDefaultMatrixIDsUnique(t *testing.T) {
	seen := make(map[string]bool)
	for _, c := range DefaultMatrix() {
		id := c.ID()
		if seen[id] {
			t.Fatalf("duplicate cell ID %s", id)
		}
		seen[id] = true
	}
}
