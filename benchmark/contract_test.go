package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"regexp"
	"testing"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the metric table")

const contractPath = "../BENCHMARK.json"

func contractJSON(t *testing.T) []byte {
	t.Helper()
	data, err := json.MarshalIndent(buildContract(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(data, '\n')
}

// BENCHMARK.json is generated from the table in metrics.go
// (go test ./benchmark -run TestContractFile -update); the two must not
// drift, or the program would report metrics the driver does not expect.
func TestContractFile(t *testing.T) {
	want := contractJSON(t)
	if *update {
		if err := os.WriteFile(contractPath, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(contractPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s is out of date with metrics.go; regenerate it with -update", contractPath)
	}
}

// The limits the benchmark driver refuses a contract for.
func TestContractLimits(t *testing.T) {
	c := buildContract()
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q is not a valid name", kind, n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(c.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range c.Workloads {
		name("workload", w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
		if _, tcp := tcpSpecs[w.Name]; !tcp && w.Name != "sim-sweep" && w.Name != "sim-failover" {
			t.Errorf("workload %s has no implementation", w.Name)
		}
	}
	if n := len(c.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	setup := false
	for _, m := range c.EndToEnd {
		name("end-to-end", m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		t.Error("end-to-end metrics must include setup_s, in s, lower is better")
	}
	if n := len(c.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	for _, m := range c.PerLayer {
		name("per-layer", m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
	if c.RunSeconds < 1 || c.RunSeconds > 60 {
		t.Errorf("run_seconds %d", c.RunSeconds)
	}
	if len(contractJSON(t)) > 64<<10 {
		t.Error("contract larger than 64 KiB")
	}
}

// A result must carry every metric of its pass and only those, in the
// declared unit — the driver matches the key set exactly.
func TestResultFill(t *testing.T) {
	res := &result{Correct: true}
	vals := make(map[string]float64)
	for _, d := range endToEnd {
		vals[d.Name] = 1.5
	}
	res.fill(endToEnd, vals, true)
	if !res.Correct || len(res.Metrics) != len(endToEnd) {
		t.Fatalf("fill: correct=%v, %d metrics", res.Correct, len(res.Metrics))
	}
	if res.Metrics["setup_s"].Unit != "s" {
		t.Errorf("setup_s unit %q", res.Metrics["setup_s"].Unit)
	}
	delete(vals, "latency_p99_ms")
	res.fill(endToEnd, vals, true)
	if res.Correct {
		t.Error("a missing end-to-end metric must fail the run")
	}
	layer := &result{Correct: true}
	layer.fill(perLayer, map[string]float64{"crypto.sign_us": 24}, false)
	if !layer.Correct || len(layer.Metrics) != len(perLayer) || layer.Metrics["sim.events_per_txn"].Value != 0 {
		t.Error("per-layer metrics that do not apply must be present and read 0")
	}
}

func TestDisagreements(t *testing.T) {
	doc := func(p50, allocs, simCount float64) *document {
		return &document{Workloads: map[string]map[string]metricValue{
			"tcp-sat32": {"latency_p50_ms": {Value: p50}, "allocs_per_txn": {Value: allocs}},
			"sim-sweep": {"latency_p50_ms": {Value: 262.971}, "sim.msgs_per_txn.pbft": {Value: simCount}},
		}}
	}
	fill := func(d *document) *document {
		for _, w := range d.Workloads {
			for _, m := range endToEnd {
				if _, ok := w[m.Name]; !ok {
					w[m.Name] = metricValue{Value: 1}
				}
			}
		}
		return d
	}
	a := fill(doc(35, 1000, 495))
	if got := disagreements(a, fill(doc(36, 1010, 495))); len(got) != 0 {
		t.Errorf("within bounds, flagged: %v", got)
	}
	if got := disagreements(a, fill(doc(35, 1100, 495))); len(got) != 1 {
		t.Errorf("allocs 10%% apart against a 3%% bound: %v", got)
	}
	if got := disagreements(a, fill(doc(35, 1000, 495.5))); len(got) != 1 {
		t.Errorf("a simulator count that moved at all must be flagged: %v", got)
	}
}
