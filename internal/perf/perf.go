// Package perf is the sameness gate, the repository's one sameness
// ledger: it runs a benchmark matrix (protocol × cluster size × network
// × workload cells) on the deterministic simulator and emits
// schema-versioned BENCH_<seq>.json snapshots, so every PR answers "did
// the protocols' behaviour change?" with a diff instead of a guess.
//
// The matrix (DefaultMatrix) is derived from the protocol registry:
// every registration has a fault-free LAN cell and three leader-crash
// cells, so the view change, the τ2 timers and recovery are gated like
// the good case.
//
// Each cell records virtual metrics — throughput, latency percentiles,
// messages, wire bytes, signature/MAC operations, view changes, all in
// virtual time, from harness.Metrics and the obsv counters — and an
// end_state hash of where each replica ended. They are exactly
// reproducible: the simulator is deterministic, so two snapshots taken
// at the same revision are byte-identical in their virtual sections. Any
// drift between two revisions is a real behavioural change, and the
// comparator (compare.go) fails it unless the cell is allowlisted as an
// intended change.
//
// Each cell also records its allocation count and bytes (median over the
// repeats) as data. The comparator never reads them: cost is judged by
// the benchmark (`go run ./benchmark`, allocs_per_txn among its
// metrics), not here.
//
// cmd/bftbench exposes the subsystem as -snapshot / -compare /
// -perf-virtual; `make bench-snapshot` and `make bench-compare` wrap the
// common flows, and the CI perf job gates every PR on unacknowledged
// virtual-metric drift against the committed BENCH_baseline.json.
package perf

import (
	"encoding/json"
	"fmt"
	"os"
)

// SchemaVersion stamps every snapshot; the comparator refuses to diff
// snapshots whose schemas differ, so a format change can never be
// misread as a performance change.
const SchemaVersion = 1

// Snapshot is one BENCH_*.json file: a header identifying the revision
// and environment, plus one result per benchmark-matrix cell.
type Snapshot struct {
	Schema    int    `json:"schema"`
	GitRev    string `json:"git_rev"`
	Date      string `json:"date"`
	GoVersion string `json:"go_version"`
	// Repeats is how many times each cell ran on the host; virtual
	// metrics must agree across all repeats (the runner enforces it) and
	// the allocation counts are the median of the repeats.
	Repeats int          `json:"repeats"`
	Cells   []CellResult `json:"cells"`
}

// CellResult is one matrix cell's measurements. The full cell spec is
// embedded so a snapshot is self-describing: a regressed cell can be
// re-run from the snapshot alone, even if the default matrix has since
// changed.
type CellResult struct {
	ID      string  `json:"id"`
	Cell    Cell    `json:"cell"`
	Virtual Virtual `json:"virtual"`
	Host    Host    `json:"host"`
}

// Virtual holds the deterministic virtual-time metrics for one cell.
// Every field is exactly reproducible for a given revision: the
// comparator demands equality, not closeness.
type Virtual struct {
	// Completed counts finished requests; the cell's workload issues
	// Clients×PerClient, so a shortfall is itself a liveness regression.
	Completed int `json:"completed"`
	// ElapsedUS is virtual time from first submission to last
	// completion, in microseconds.
	ElapsedUS int64 `json:"elapsed_us"`
	// ThroughputRPS is completed requests per second of virtual time
	// (harness.Metrics.Throughput over the elapsed window).
	ThroughputRPS float64 `json:"throughput_rps"`
	// P50US/P95US/P99US are nearest-rank latency percentiles in
	// microseconds (harness.Metrics.LatencyPercentile).
	P50US int64 `json:"p50_us"`
	P95US int64 `json:"p95_us"`
	P99US int64 `json:"p99_us"`
	// Msgs and WireBytes total every message sent by every node across
	// all phases (obsv per-phase counters).
	Msgs      int64 `json:"msgs"`
	WireBytes int64 `json:"wire_bytes"`
	// SigOps counts signature create+verify operations; MACOps counts
	// MAC create+verify (obsv crypto accounting).
	SigOps int64 `json:"sig_ops"`
	MACOps int64 `json:"mac_ops"`
	// ViewChanges totals view changes across replicas — the good case
	// should stay at zero; a nonzero delta means timers started firing.
	ViewChanges int `json:"view_changes"`
	// Per-committed-transaction rates, the paper's cost dimensions.
	MsgsPerTxn   float64 `json:"msgs_per_txn"`
	BytesPerTxn  float64 `json:"bytes_per_txn"`
	SigOpsPerTxn float64 `json:"sig_ops_per_txn"`
	MACOpsPerTxn float64 `json:"mac_ops_per_txn"`
	// EndState is a hex SHA-256 of where the run ended: each replica's
	// last view, last executed slot and state hash, and the VIEW-CHANGE
	// and NEW-VIEW send counts (run.go's endState). It moves when a
	// change alters which view the replicas settle in, what they
	// executed or how many view-change messages it took, even if every
	// numeric column happens to agree.
	EndState string `json:"end_state"`
}

// Host holds the machine-dependent metrics for one cell: the median
// over the snapshot's repeats. They are recorded, never compared.
type Host struct {
	Allocs     int64 `json:"allocs_median"`
	AllocBytes int64 `json:"alloc_bytes_median"`
}

// WriteFile marshals the snapshot as indented JSON (stable field order,
// trailing newline) — the on-disk BENCH_*.json format.
func (s *Snapshot) WriteFile(path string) error {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// ReadFile loads a snapshot and validates its schema version.
func ReadFile(path string) (*Snapshot, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Snapshot
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("perf: %s: %w", path, err)
	}
	if s.Schema != SchemaVersion {
		return nil, fmt.Errorf("perf: %s: schema %d, this binary speaks %d", path, s.Schema, SchemaVersion)
	}
	return &s, nil
}

// VirtualSection renders just the deterministic portion of the snapshot
// — (cell ID, virtual metrics) pairs — as canonical indented JSON. Two
// snapshots taken at the same revision must produce byte-identical
// virtual sections; the CI determinism guard and the tests pin this.
func (s *Snapshot) VirtualSection() []byte {
	type row struct {
		ID      string  `json:"id"`
		Virtual Virtual `json:"virtual"`
	}
	rows := make([]row, 0, len(s.Cells))
	for _, c := range s.Cells {
		rows = append(rows, row{ID: c.ID, Virtual: c.Virtual})
	}
	b, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		// Virtual is a plain struct of numbers; marshaling cannot fail.
		panic(err)
	}
	return append(b, '\n')
}
