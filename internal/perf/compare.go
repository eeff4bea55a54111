package perf

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"sort"
	"strings"
)

// The comparison rule, in one place: virtual metrics are deterministic,
// so ANY difference is a real behavioral change and fails the gate
// unless the cell is allowlisted as an intended change. Host metrics are
// not compared at all. end_state is compared like the numbers, except
// that a baseline cell recorded before the field existed has none, and
// then there is nothing to compare it with.

// Delta is one virtual metric's change in one cell.
type Delta struct {
	Cell   string
	Metric string
	Old    float64
	New    float64
	// Change is the signed fractional change (new-old)/old; ±Inf when
	// old is zero and new is not.
	Change float64
	// Badness orients Change so positive means "worse" (latency up =
	// bad, throughput up = good). Deltas render worst-first.
	Badness float64
	// Allowed marks deltas in allowlisted cells.
	Allowed bool
	// OldState and NewState are set, and Old and New are zero, for the
	// end_state metric: a hash has no magnitude, only a difference.
	OldState, NewState string
}

// Report is the outcome of comparing two snapshots.
type Report struct {
	Deltas []Delta
	// Missing lists cells present in the old snapshot but absent from
	// the new one — treated as virtual drift of the strongest kind.
	Missing []string
	// Added lists new cells with no baseline; informational only.
	Added []string
	// allow is Compare's allowlist; Failed and Render match missing
	// cells against it.
	allow []string
}

// virtualMetrics enumerates the exactly-compared fields. higherBetter
// orients the badness of a change for sorting and reporting.
var virtualMetrics = []struct {
	name         string
	higherBetter bool
	get          func(Virtual) float64
}{
	{"completed", true, func(v Virtual) float64 { return float64(v.Completed) }},
	{"elapsed_us", false, func(v Virtual) float64 { return float64(v.ElapsedUS) }},
	{"throughput_rps", true, func(v Virtual) float64 { return v.ThroughputRPS }},
	{"p50_us", false, func(v Virtual) float64 { return float64(v.P50US) }},
	{"p95_us", false, func(v Virtual) float64 { return float64(v.P95US) }},
	{"p99_us", false, func(v Virtual) float64 { return float64(v.P99US) }},
	{"msgs", false, func(v Virtual) float64 { return float64(v.Msgs) }},
	{"wire_bytes", false, func(v Virtual) float64 { return float64(v.WireBytes) }},
	{"sig_ops", false, func(v Virtual) float64 { return float64(v.SigOps) }},
	{"mac_ops", false, func(v Virtual) float64 { return float64(v.MACOps) }},
	{"view_changes", false, func(v Virtual) float64 { return float64(v.ViewChanges) }},
	{"msgs_per_txn", false, func(v Virtual) float64 { return v.MsgsPerTxn }},
	{"bytes_per_txn", false, func(v Virtual) float64 { return v.BytesPerTxn }},
	{"sig_ops_per_txn", false, func(v Virtual) float64 { return v.SigOpsPerTxn }},
	{"mac_ops_per_txn", false, func(v Virtual) float64 { return v.MACOpsPerTxn }},
}

// Compare diffs two snapshots' virtual metrics exactly. old is the
// baseline; new is the candidate. allow holds wildcard patterns over
// cell IDs ('*' matches any run of characters): a matching cell's drift
// is acknowledged — still reported, but not a gate failure. The
// committed .perf-allow file feeds it.
func Compare(old, nw *Snapshot, allow []string) *Report {
	r := &Report{allow: allow}
	newCells := make(map[string]CellResult, len(nw.Cells))
	for _, c := range nw.Cells {
		newCells[c.ID] = c
	}
	oldSeen := make(map[string]bool, len(old.Cells))
	for _, oc := range old.Cells {
		oldSeen[oc.ID] = true
		nc, ok := newCells[oc.ID]
		if !ok {
			r.Missing = append(r.Missing, oc.ID)
			continue
		}
		allowed := matchAny(allow, oc.ID)
		for _, m := range virtualMetrics {
			ov, nv := m.get(oc.Virtual), m.get(nc.Virtual)
			if ov == nv {
				continue
			}
			r.Deltas = append(r.Deltas, delta(oc.ID, m.name, ov, nv, m.higherBetter, allowed))
		}
		if was, now := oc.Virtual.EndState, nc.Virtual.EndState; was != "" && was != now {
			// A different end state ranks with the worst drift: the run
			// ended somewhere else.
			r.Deltas = append(r.Deltas, Delta{Cell: oc.ID, Metric: "end_state", Change: math.Inf(1),
				Badness: math.Inf(1), Allowed: allowed, OldState: was, NewState: now})
		}
	}
	for _, c := range nw.Cells {
		if !oldSeen[c.ID] {
			r.Added = append(r.Added, c.ID)
		}
	}
	sort.SliceStable(r.Deltas, func(i, j int) bool { return r.Deltas[i].Badness > r.Deltas[j].Badness })
	return r
}

func delta(cell, metric string, ov, nv float64, higherBetter, allowed bool) Delta {
	var change float64
	switch {
	case ov != 0:
		change = (nv - ov) / math.Abs(ov)
	case nv > 0:
		change = math.Inf(1)
	default:
		change = math.Inf(-1)
	}
	bad := change
	if higherBetter {
		bad = -change
	}
	return Delta{Cell: cell, Metric: metric, Old: ov, New: nv, Change: change, Badness: bad, Allowed: allowed}
}

// Failed reports whether the comparison should exit nonzero: any
// unacknowledged virtual drift or missing cell.
func (r *Report) Failed() bool {
	for _, id := range r.Missing {
		if !matchAny(r.allow, id) {
			return true
		}
	}
	return len(r.RegressedCells()) > 0
}

// RegressedCells returns the distinct cells with unacknowledged drift,
// worst first — the list the FAIL line names.
func (r *Report) RegressedCells() []string {
	var out []string
	seen := make(map[string]bool)
	for _, d := range r.Deltas {
		if !d.Allowed && !seen[d.Cell] {
			seen[d.Cell] = true
			out = append(out, d.Cell)
		}
	}
	return out
}

// Render writes the human-readable delta table, worst regression first,
// then the verdict line.
func (r *Report) Render(w io.Writer) {
	if len(r.Added) > 0 {
		fmt.Fprintf(w, "new cells (no baseline): %s\n", strings.Join(r.Added, ", "))
	}
	for _, id := range r.Missing {
		mark := "MISSING"
		if matchAny(r.allow, id) {
			mark = "MISSING (allowed)"
		}
		fmt.Fprintf(w, "%-44s %s — cell present in baseline but not in new snapshot\n", id, mark)
	}
	if len(r.Deltas) > 0 {
		fmt.Fprintf(w, "%-44s %-16s %14s %14s %9s  %s\n", "cell", "metric", "old", "new", "Δ", "verdict")
		for _, d := range r.Deltas {
			verdict := "VIRTUAL DRIFT"
			if d.Allowed {
				verdict = "drift (allowed)"
			}
			old, nw, change := num(d.Old), num(d.New), pct(d.Change)
			if d.Metric == "end_state" {
				old, nw, change = short(d.OldState), short(d.NewState), "changed"
			}
			fmt.Fprintf(w, "%-44s %-16s %14s %14s %9s  %s\n", d.Cell, d.Metric, old, nw, change, verdict)
		}
	}
	if r.Failed() {
		fmt.Fprintf(w, "PERF GATE: FAIL — %d virtual drift(s), %d missing cell(s); regressed cells: %s\n",
			len(r.Deltas), len(r.Missing), strings.Join(r.RegressedCells(), ", "))
	} else {
		fmt.Fprintf(w, "PERF GATE: PASS — %d virtual drift(s) (all allowed)\n", len(r.Deltas))
	}
}

func num(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.3f", v)
}

// short abbreviates a hash to the table's column width.
func short(state string) string {
	if len(state) > 12 {
		return state[:12]
	}
	if state == "" {
		return "none"
	}
	return state
}

func pct(change float64) string {
	if math.IsInf(change, 1) {
		return "+inf"
	}
	if math.IsInf(change, -1) {
		return "-inf"
	}
	return fmt.Sprintf("%+.1f%%", change*100)
}

// matchAny reports whether any allowlist pattern matches the cell ID.
// Patterns are literal except '*', which matches any run of characters
// (including '/'), so "pbft/*" acknowledges every pbft cell.
func matchAny(patterns []string, id string) bool {
	for _, p := range patterns {
		if matchPattern(p, id) {
			return true
		}
	}
	return false
}

func matchPattern(pattern, id string) bool {
	re := "^" + strings.ReplaceAll(regexp.QuoteMeta(pattern), `\*`, ".*") + "$"
	ok, err := regexp.MatchString(re, id)
	return err == nil && ok
}

// ReadAllowFile parses an allowlist file: one pattern per line, blank
// lines and #-comments ignored. A missing file is an empty allowlist
// only when missingOK.
func ReadAllowFile(path string, missingOK bool) ([]string, error) {
	f, err := os.Open(path)
	if err != nil {
		if missingOK && os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	defer f.Close()
	var out []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		out = append(out, line)
	}
	return out, sc.Err()
}
