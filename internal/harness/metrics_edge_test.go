package harness

import (
	"testing"
	"time"

	"bftkit/internal/types"
)

// Edge-case pins for the Metrics arithmetic the perf snapshots report:
// empty measured windows, percentile boundaries, and the nearest-rank
// rule. These are the values BENCH_*.json cells are built from, so their
// boundary behavior must stay put.

func doneAt(m *Metrics, key types.RequestKey, submit, done time.Duration) {
	req := &types.Request{Client: key.Client, ClientSeq: key.ClientSeq}
	m.onSubmit(req, submit)
	m.OnDone(key.Client, req, nil, done)
}

func key(i uint64) types.RequestKey {
	return types.RequestKey{Client: types.ClientIDBase, ClientSeq: i}
}

func TestThroughputEmptyWindow(t *testing.T) {
	m := NewMetrics()
	m.MeasureFrom = 5 * time.Second
	doneAt(m, key(1), time.Second, 2*time.Second) // completes inside warmup

	// until == MeasureFrom: the window is empty, not a division by zero.
	if got := m.Throughput(5 * time.Second); got != 0 {
		t.Fatalf("Throughput over empty window = %v, want 0", got)
	}
	// until < MeasureFrom: a negative window must also yield zero, not a
	// negative rate.
	if got := m.Throughput(time.Second); got != 0 {
		t.Fatalf("Throughput over negative window = %v, want 0", got)
	}
	// Warmup-only completions never enter the numerator even once the
	// window opens.
	if got := m.Throughput(10 * time.Second); got != 0 {
		t.Fatalf("warmup completion leaked into throughput: %v", got)
	}
	if m.Completed != 1 || m.Measured != 0 {
		t.Fatalf("Completed=%d Measured=%d, want 1/0", m.Completed, m.Measured)
	}
}

func TestThroughputCountsOnlyMeasured(t *testing.T) {
	m := NewMetrics()
	m.MeasureFrom = time.Second
	doneAt(m, key(1), 0, 500*time.Millisecond) // warmup
	doneAt(m, key(2), time.Second, 1500*time.Millisecond)
	doneAt(m, key(3), time.Second, 2*time.Second)
	// Two measured completions over the [1s, 3s] window.
	if got := m.Throughput(3 * time.Second); got != 1.0 {
		t.Fatalf("Throughput = %v, want 1.0", got)
	}
}

func TestLatencyPercentileNoSamples(t *testing.T) {
	m := NewMetrics()
	for _, p := range []float64{0, 50, 100} {
		if got := m.LatencyPercentile(p); got != 0 {
			t.Fatalf("p%v with no completed requests = %v, want 0", p, got)
		}
	}
}

func TestLatencyPercentileBounds(t *testing.T) {
	m := NewMetrics()
	// Latencies 1ms..10ms, completed out of order to prove sorting.
	for _, i := range []uint64{7, 2, 10, 1, 9, 3, 5, 4, 8, 6} {
		doneAt(m, key(i), 0, time.Duration(i)*time.Millisecond)
	}
	// p=0: nearest-rank ⌈0⌉ clamps to rank 1 — the minimum, not a panic.
	if got := m.LatencyPercentile(0); got != time.Millisecond {
		t.Fatalf("p0 = %v, want 1ms", got)
	}
	// p=100: rank ⌈n⌉ = n — the maximum, with no off-by-one overflow.
	if got := m.LatencyPercentile(100); got != 10*time.Millisecond {
		t.Fatalf("p100 = %v, want 10ms", got)
	}
	// Nearest rank at p=50 over 10 samples: rank ⌈5⌉ = 5th → 5ms.
	if got := m.LatencyPercentile(50); got != 5*time.Millisecond {
		t.Fatalf("p50 = %v, want 5ms", got)
	}
	// p=99 over 10 samples: rank ⌈9.9⌉ = 10 → the maximum.
	if got := m.LatencyPercentile(99); got != 10*time.Millisecond {
		t.Fatalf("p99 = %v, want 10ms", got)
	}
}

func TestLatencyPercentileSingleSample(t *testing.T) {
	m := NewMetrics()
	doneAt(m, key(1), 0, 3*time.Millisecond)
	for _, p := range []float64{0, 1, 50, 99, 100} {
		if got := m.LatencyPercentile(p); got != 3*time.Millisecond {
			t.Fatalf("p%v over one sample = %v, want 3ms", p, got)
		}
	}
}

// TestLatencyExcludesUnknownSubmit: a completion whose submission was
// never recorded (replayed or duplicate reply) contributes no latency
// sample — and therefore cannot skew percentiles with a zero.
func TestLatencyExcludesUnknownSubmit(t *testing.T) {
	m := NewMetrics()
	req := &types.Request{Client: types.ClientIDBase, ClientSeq: 42}
	m.OnDone(req.Client, req, nil, 7*time.Millisecond)
	if len(m.Latencies) != 0 {
		t.Fatalf("latency recorded for unknown submit: %v", m.Latencies)
	}
	if m.Completed != 1 {
		t.Fatalf("Completed = %d, want 1", m.Completed)
	}
}
