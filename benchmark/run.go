package main

import (
	"fmt"
	"time"
)

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run of one workload reports: the line the driver
// reads. Correct is false when any check failed, even if no single
// request did.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	// notes explain failures and carry counts that are not metrics; they
	// go to stderr and the trace file, not into the contract line.
	notes []string
	// samples is the latency sample count, printed beside p99.
	samples int
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fill turns a name → value map into the result's metrics, in the units
// the contract table declares, and fails the run if a declared metric is
// missing or an end-to-end metric is not positive.
func (r *result) fill(defs []metricDef, vals map[string]float64, positive bool) {
	r.Metrics = make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := vals[d.Name]
		if positive && !(v > 0) {
			r.Correct = false
			r.note("metric %s is %v; an end-to-end metric must be positive", d.Name, v)
		}
		if !positive && !ok {
			v = 0 // does not apply to this workload
		}
		r.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
}

// pass is one set-up-and-measure cycle of a workload: a TCP round, or one
// pass over a simulator workload.
type pass struct {
	setup     time.Duration
	cost      bracket
	completed int
	liveHeap  float64
	latencies []float64 // ms
}

// endToEndOf folds a workload's passes into the end-to-end metrics:
// medians over passes for what the host decides, pooled samples for
// latency. It also returns the latency sample count.
func endToEndOf(passes []pass) (map[string]float64, int) {
	var setup, rps, cpu, allocs, kb, heap, pooled []float64
	for _, p := range passes {
		pt := p.cost.perTxn(p.completed)
		setup = append(setup, p.setup.Seconds())
		rps = append(rps, pt.rps)
		cpu = append(cpu, pt.cpuMS)
		allocs = append(allocs, pt.allocs)
		kb = append(kb, pt.allocKB)
		heap = append(heap, p.liveHeap)
		pooled = append(pooled, p.latencies...)
	}
	vals := map[string]float64{
		"setup_s":          median(setup),
		"throughput_rps":   median(rps),
		"cpu_ms_per_txn":   median(cpu),
		"allocs_per_txn":   median(allocs),
		"alloc_kb_per_txn": median(kb),
		"live_heap_mb":     median(heap),
	}
	if len(pooled) > 0 {
		s := sortedCopy(pooled)
		vals["latency_p50_ms"] = percentile(s, 50)
		vals["latency_p99_ms"] = percentile(s, 99)
	}
	return vals, len(pooled)
}

// runWorkload runs one workload once, untraced (end-to-end metrics) or
// traced (per-layer metrics).
func runWorkload(name string, seed int64, seconds int, traced bool) (*result, error) {
	budget := time.Duration(seconds) * time.Second
	if spec, ok := tcpSpecs[name]; ok {
		if traced {
			return traceTCP(spec, seed, budget)
		}
		return measureTCP(spec, seed, budget)
	}
	switch name {
	case "sim-sweep", "sim-failover":
		if traced {
			return traceSim(name, seed)
		}
		return measureSim(name, seed, budget)
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// measureTCP is the untraced run of a TCP workload: tcpRounds rounds
// sharing the measurement budget equally.
func measureTCP(spec tcpSpec, seed int64, budget time.Duration) (*result, error) {
	res := &result{Correct: true}
	var passes []pass
	for i := 0; i < tcpRounds; i++ {
		round, err := runTCPRound(spec, seed, budget/tcpRounds, false)
		res.absorb(round.attempted, round.failed, round.notes)
		if err != nil {
			return res, err
		}
		if round.retries > 0 {
			res.note("round %d: %d bind retries, counted in setup_s", i+1, round.retries)
		}
		pt := round.cost.perTxn(round.completed)
		res.note("round %d: %.0f req/s, p50 %.3f ms, cpu %.3f ms/txn, set-up %.2fs", i+1, pt.rps,
			percentile(sortedCopy(round.latencies), 50), pt.cpuMS, round.setup.Seconds())
		passes = append(passes, pass{setup: round.setup, cost: round.cost, completed: round.completed,
			liveHeap: round.liveHeap, latencies: round.latencies})
	}
	vals, n := endToEndOf(passes)
	res.finish(vals, n)
	return res, nil
}

// minSimPasses is the fewest passes an untraced simulator run makes, so
// that its host-side medians and its repeat check have three samples
// even when one pass is half the budget.
const minSimPasses = 3

// measureSim is the untraced run of a simulator workload: whole passes
// repeated until the budget is spent. A pass is deterministic, so its
// virtual latencies and counts must repeat exactly; the host-side
// figures take the median over passes.
func measureSim(name string, seed int64, budget time.Duration) (*result, error) {
	res := &result{Correct: true}
	var passes []pass
	var first simPass
	start := time.Now()
	for len(passes) < minSimPasses || time.Since(start) < budget {
		sp := runSimPass(name, seed, false)
		res.absorb(sp.attempted, sp.failed, sp.notes)
		if len(passes) == 0 {
			first = sp
		} else if diff := first.exactDiff(sp); diff != "" {
			res.Correct = false
			res.note("pass %d differs from pass 1 in %s: the simulator run is not deterministic", len(passes)+1, diff)
		}
		passes = append(passes, sp.pass)
	}
	// Latency is virtual and identical in every pass: take pass 1's
	// samples alone rather than n copies of them.
	for i := 1; i < len(passes); i++ {
		passes[i].latencies = nil
	}
	vals, n := endToEndOf(passes)
	res.note("%d passes", len(passes))
	res.finish(vals, n)
	return res, nil
}

func (r *result) absorb(attempted, failed int, notes []string) {
	r.Attempted += attempted
	r.Failed += failed
	r.notes = append(r.notes, notes...)
}

// finish checks the sample-count rule behind p99 and publishes the
// end-to-end metrics.
func (r *result) finish(vals map[string]float64, samples int) {
	r.samples = samples
	if !supportsPercentile(samples, 99) {
		r.Correct = false
		r.note("only %d latency samples: p99 needs at least %d beyond it", samples, minBeyond)
	}
	if r.Failed > 0 || r.Attempted == 0 {
		r.Correct = false
	}
	r.fill(endToEnd, vals, true)
}
