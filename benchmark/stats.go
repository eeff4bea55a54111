package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// percentile returns the p-th percentile (0..100) of sorted by the
// nearest-rank method: the sample at rank ⌈p/100·n⌉, the rule
// harness.Metrics.LatencyPercentile pins. sorted must be ascending and
// non-empty.
func percentile(sorted []float64, p float64) float64 {
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// samplesBeyond counts the samples ranked strictly above the p-th
// percentile's nearest rank. A percentile is reportable only with at
// least minBeyond of them (choosing-metrics §1): below that the figure
// is one or two outliers, not a tail.
func samplesBeyond(n int, p float64) int {
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return n - rank
}

const minBeyond = 10

// supportsPercentile reports whether n samples leave at least minBeyond
// samples beyond the p-th percentile.
func supportsPercentile(n int, p float64) bool { return samplesBeyond(n, p) >= minBeyond }

// median returns the middle value of vals (mean of the two middle ones
// for an even count). vals is not modified.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// usage is one reading of the process-wide cost counters.
type usage struct {
	wall       time.Time
	cpu        time.Duration // user+sys, whole process
	mallocs    uint64
	allocBytes uint64
}

func readUsage() usage {
	var ru syscall.Rusage
	// Getrusage on RUSAGE_SELF cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return usage{
		wall:       time.Now(),
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs:    m.Mallocs,
		allocBytes: m.TotalAlloc,
	}
}

// bracket is the cost of one measured window: the difference of two
// usage readings. The opening reading is GC-fenced so garbage left by
// set-up is not collected on the window's account.
type bracket struct {
	wall       time.Duration
	cpu        time.Duration
	mallocs    uint64
	allocBytes uint64
}

func openBracket() usage {
	runtime.GC()
	return readUsage()
}

func (u usage) close() bracket {
	e := readUsage()
	return bracket{
		wall:       e.wall.Sub(u.wall),
		cpu:        e.cpu - u.cpu,
		mallocs:    e.mallocs - u.mallocs,
		allocBytes: e.allocBytes - u.allocBytes,
	}
}

func (b *bracket) add(o bracket) {
	b.wall += o.wall
	b.cpu += o.cpu
	b.mallocs += o.mallocs
	b.allocBytes += o.allocBytes
}

// perTxn divides a window's cost by the transactions it completed.
type perTxn struct {
	cpuMS   float64
	allocs  float64
	allocKB float64
	rps     float64
}

func (b bracket) perTxn(completed int) perTxn {
	if completed <= 0 || b.wall <= 0 {
		return perTxn{}
	}
	n := float64(completed)
	return perTxn{
		cpuMS:   ms(b.cpu) / n,
		allocs:  float64(b.mallocs) / n,
		allocKB: float64(b.allocBytes) / 1024 / n,
		rps:     n / b.wall.Seconds(),
	}
}

// liveHeapMB is the heap still reachable after a full collection.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// interval is a half-open time range on one clock.
type interval struct{ start, end time.Duration }

// selfTime is a span's duration minus the part of it its children cover
// (choosing-metrics §4): children are clipped to the parent, and
// overlapping children are counted once.
func selfTime(parent interval, children []interval) time.Duration {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start < parent.start {
			c.start = parent.start
		}
		if c.end > parent.end {
			c.end = parent.end
		}
		if c.end > c.start {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	covered := time.Duration(0)
	cursor := parent.start
	for _, c := range clipped {
		if c.end <= cursor {
			continue
		}
		if c.start > cursor {
			cursor = c.start
		}
		covered += c.end - cursor
		cursor = c.end
	}
	return (parent.end - parent.start) - covered
}

// sortedCopy returns vals sorted ascending without modifying vals.
func sortedCopy(vals []float64) []float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s
}
