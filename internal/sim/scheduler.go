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
	"math/rand"
	"time"

	"bftkit/internal/types"
)

// event is one scheduled occurrence, held by value in the queue. A
// callback carries fn. A message delivery (fn == nil) carries its
// endpoints, payload and accounted size as data and is handed to the
// scheduler's network when it fires, so scheduling one allocates nothing.
// seq breaks ties so same-instant events fire in scheduling order, which
// keeps runs deterministic.
type event struct {
	at       time.Duration
	seq      uint64
	fn       func()
	m        types.Message
	from, to types.NodeID
	size     int
}

// before is the queue order: earliest time first, then scheduling order.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// Scheduler is a single-threaded virtual-time event loop. Its queue is a
// binary min-heap of event values ordered by (at, seq).
type Scheduler struct {
	now time.Duration
	seq uint64
	pq  []event
	rng *rand.Rand
	net *Network // receives delivery events (NewNetwork registers it)

	// cancelled holds the seqs of stopped events still in pq; Step drops
	// them when they reach the root.
	cancelled map[uint64]struct{}
	// firedAt/firedSeq is the last event that fired. Fired events are
	// strictly increasing in (at, seq), and none is ever scheduled before
	// the last one, so an event at or before it has left the queue.
	firedAt  time.Duration
	firedSeq uint64
	// drainedSeq is the last seq handed out when Step last found the
	// queue empty; every event up to it has left. It covers the cancelled
	// events Step discarded after the last fired one: discarding does not
	// move the clock, so a later event may be scheduled before them.
	drainedSeq uint64
}

// NewScheduler returns a scheduler whose randomness is derived from seed.
func NewScheduler(seed int64) *Scheduler {
	return &Scheduler{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time (elapsed since run start).
func (s *Scheduler) Now() time.Duration { return s.now }

// Rand returns the seeded random source for this run.
func (s *Scheduler) Rand() *rand.Rand { return s.rng }

// Timer is the handle of one scheduled event. Stop cancels it by sequence
// number; the zero Timer is valid and stops nothing.
type Timer struct {
	s   *Scheduler
	at  time.Duration
	seq uint64
}

// Stop cancels the event; its callback will not fire. Stop after the
// event fired, or a second Stop, does nothing.
func (t Timer) Stop() {
	s := t.s
	if s == nil || t.seq <= s.drainedSeq || t.at < s.firedAt || (t.at == s.firedAt && t.seq <= s.firedSeq) {
		return
	}
	if s.cancelled == nil {
		s.cancelled = make(map[uint64]struct{})
	}
	s.cancelled[t.seq] = struct{}{}
}

// At schedules fn at absolute virtual time t (clamped to now).
func (s *Scheduler) At(t time.Duration, fn func()) Timer {
	return s.schedule(event{at: t, fn: fn})
}

// After schedules fn d from now.
func (s *Scheduler) After(d time.Duration, fn func()) Timer {
	return s.At(s.now+d, fn)
}

// schedule queues ev at ev.at (clamped to now) under the next seq.
func (s *Scheduler) schedule(ev event) Timer {
	if ev.at < s.now {
		ev.at = s.now
	}
	s.seq++
	ev.seq = s.seq
	s.pq = append(s.pq, ev)
	// Sift up, moving parents into the hole instead of swapping.
	h := s.pq
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !ev.before(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ev
	return Timer{s: s, at: ev.at, seq: ev.seq}
}

// pop removes and returns the root of the non-empty queue.
func (s *Scheduler) pop() event {
	h := s.pq
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{} // release fn and m to the collector
	h = h[:n]
	s.pq = h
	if n > 0 {
		// Sift the former last element down from the root.
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if r := c + 1; r < n && h[r].before(&h[c]) {
				c = r
			}
			if !h[c].before(&last) {
				break
			}
			h[i] = h[c]
			i = c
		}
		h[i] = last
	}
	return top
}

// Step executes the next pending event, advancing the clock to it.
// Cancelled events on the way are discarded without touching the clock.
// It returns false when the queue is empty.
func (s *Scheduler) Step() bool {
	for len(s.pq) > 0 {
		ev := s.pop()
		if len(s.cancelled) > 0 {
			if _, ok := s.cancelled[ev.seq]; ok {
				delete(s.cancelled, ev.seq)
				continue
			}
		}
		s.now = ev.at
		s.firedAt, s.firedSeq = ev.at, ev.seq
		if ev.fn != nil {
			ev.fn()
		} else {
			s.net.arrive(ev.from, ev.to, ev.m, ev.size)
		}
		return true
	}
	s.drainedSeq = s.seq
	return false
}

// Run executes events until the earliest queued one lies past until or
// the queue drains, then moves the clock up to until. A Step taken for a
// cancelled event at or before until goes on to the next live event even
// past until, and the clock is then left at that event's time.
func (s *Scheduler) Run(until time.Duration) { s.RunLimit(until, -1) }

// RunLimit is Run that stops after max events have fired (max < 0: no
// limit) and returns how many fired. Stopped by the limit, it leaves the
// clock at the last event.
func (s *Scheduler) RunLimit(until time.Duration, max int) int {
	fired := 0
	for len(s.pq) > 0 && s.pq[0].at <= until {
		if fired == max {
			return fired
		}
		if s.Step() {
			fired++
		}
	}
	if s.now < until {
		s.now = until
	}
	return fired
}

// RunUntilIdle executes all pending events, up to a safety cap on virtual
// time so a livelocked protocol cannot spin a test forever.
func (s *Scheduler) RunUntilIdle(cap time.Duration) {
	for len(s.pq) > 0 && s.pq[0].at <= cap {
		s.Step()
	}
}

// Pending returns the number of queued (uncancelled) events.
func (s *Scheduler) Pending() int { return len(s.pq) - len(s.cancelled) }
