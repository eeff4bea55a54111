// Package sim is the deterministic discrete-event substrate every
// experiment in this repository runs on. It provides a virtual clock with
// an event queue (Scheduler) and a partially synchronous network model
// (Network) matching the paper's system assumptions: unreliable links
// that may drop or delay messages, an unknown global stabilization time
// (GST) after which messages between correct replicas arrive within a
// known bound, and a strong adversary that can intercept traffic but not
// break cryptography.
//
// Determinism rule: protocol code never reads the wall clock or the
// global math/rand source; all time comes from Scheduler.Now and all
// randomness from the seeded Scheduler.Rand. Two runs with the same seed
// and configuration produce byte-identical histories.
package sim

import (
	"container/heap"
	"math/rand"
	"time"
)

// event is one scheduled callback. seq breaks ties so same-instant events
// fire in scheduling order, which keeps runs deterministic.
type event struct {
	at        time.Duration
	seq       uint64
	fn        func()
	cancelled bool
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Scheduler is a single-threaded virtual-time event loop.
type Scheduler struct {
	now time.Duration
	seq uint64
	pq  eventHeap
	rng *rand.Rand
}

// NewScheduler returns a scheduler whose randomness is derived from seed.
func NewScheduler(seed int64) *Scheduler {
	return &Scheduler{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time (elapsed since run start).
func (s *Scheduler) Now() time.Duration { return s.now }

// Rand returns the seeded random source for this run.
func (s *Scheduler) Rand() *rand.Rand { return s.rng }

// Timer handles cancellation of a scheduled event.
type Timer struct{ ev *event }

// Stop cancels the timer; the callback will not fire.
func (t *Timer) Stop() {
	if t != nil && t.ev != nil {
		t.ev.cancelled = true
	}
}

// At schedules fn at absolute virtual time t (clamped to now).
func (s *Scheduler) At(t time.Duration, fn func()) *Timer {
	if t < s.now {
		t = s.now
	}
	s.seq++
	ev := &event{at: t, seq: s.seq, fn: fn}
	heap.Push(&s.pq, ev)
	return &Timer{ev: ev}
}

// After schedules fn d from now.
func (s *Scheduler) After(d time.Duration, fn func()) *Timer {
	return s.At(s.now+d, fn)
}

// Step executes the next pending event, advancing the clock to it.
// It returns false when the queue is empty.
func (s *Scheduler) Step() bool {
	for s.pq.Len() > 0 {
		ev := heap.Pop(&s.pq).(*event)
		if ev.cancelled {
			continue
		}
		s.now = ev.at
		ev.fn()
		return true
	}
	return false
}

// Run executes events until virtual time exceeds `until` or the queue
// drains. The clock is left at min(until, time of last work).
func (s *Scheduler) Run(until time.Duration) {
	for s.pq.Len() > 0 {
		// Peek without popping: heap root is the earliest event.
		if s.pq[0].at > until {
			break
		}
		s.Step()
	}
	if s.now < until {
		s.now = until
	}
}

// RunUntilIdle executes all pending events, up to a safety cap on virtual
// time so a livelocked protocol cannot spin a test forever.
func (s *Scheduler) RunUntilIdle(cap time.Duration) {
	for s.pq.Len() > 0 && (s.pq[0].at <= cap) {
		s.Step()
	}
}

// Pending returns the number of queued (uncancelled) events.
func (s *Scheduler) Pending() int {
	n := 0
	for _, ev := range s.pq {
		if !ev.cancelled {
			n++
		}
	}
	return n
}
