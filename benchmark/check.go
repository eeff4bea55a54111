package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
)

// exactOnSim reports whether a metric of a simulator workload is a count
// or a virtual time that must repeat bit for bit between two runs of the
// same seed.
func exactOnSim(workload, metric string) bool {
	if !strings.HasPrefix(workload, "sim-") {
		return false
	}
	switch {
	case metric == "latency_p50_ms", metric == "latency_p99_ms",
		metric == "failover_ms", metric == "missed_limit_share",
		metric == "sim.events_per_txn", metric == "crypto.mac_per_txn",
		strings.HasPrefix(metric, "sim.msgs_per_txn."), strings.HasPrefix(metric, "sim.bytes_per_txn."),
		strings.HasPrefix(metric, "crypto.sign_per_txn."), strings.HasPrefix(metric, "crypto.verify_per_txn."),
		strings.HasPrefix(metric, "protocols.virt_p50_ms."):
		return true
	}
	return false
}

// disagreements compares two documents of the same seed: every
// end-to-end metric must agree within its bound, every exact simulator
// figure must be identical.
func disagreements(a, b *document) []string {
	var out []string
	for _, w := range workloads {
		ma, mb := a.Workloads[w.Name], b.Workloads[w.Name]
		if ma == nil || mb == nil {
			continue
		}
		for _, d := range endToEnd {
			if exactOnSim(w.Name, d.Name) {
				continue // checked exactly below
			}
			va, vb := ma[d.Name].Value, mb[d.Name].Value
			if rel := math.Abs(va-vb) / math.Min(va, vb); rel > d.Bound {
				out = append(out, fmt.Sprintf("%s %s: %.6g vs %.6g differ by %.1f%%, bound %.1f%%",
					w.Name, d.Name, va, vb, 100*rel, 100*d.Bound))
			}
		}
		for name, va := range ma {
			if vb := mb[name]; exactOnSim(w.Name, name) && va.Value != vb.Value {
				out = append(out, fmt.Sprintf("%s %s: %v vs %v must be identical", w.Name, name, va.Value, vb.Value))
			}
		}
	}
	return out
}

// runCheck runs the set twice in one invocation and fails unless the two
// runs agree.
func runCheck(names []string, seed int64, seconds int) error {
	var docs [2]*document
	for i := range docs {
		fmt.Fprintf(os.Stderr, "\n== check: set %d of 2 ==\n", i+1)
		doc, err := runSet(names, seed, seconds, -1)
		if err != nil {
			return err
		}
		if !doc.Correct {
			return fmt.Errorf("set %d: correctness check failed", i+1)
		}
		docs[i] = doc
	}
	if err := writeJSON("result.json", docs[1]); err != nil {
		return err
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(docs[1]); err != nil {
		return err
	}
	bad := disagreements(docs[0], docs[1])
	for _, line := range bad {
		fmt.Fprintln(os.Stderr, "check:", line)
	}
	if len(bad) > 0 {
		return fmt.Errorf("check: %d metrics disagree between two runs of the same code", len(bad))
	}
	fmt.Fprintln(os.Stderr, "check: two runs agree within every bound; simulator counts identical")
	return nil
}
