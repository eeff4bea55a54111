package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"bftkit/internal/types"
)

type probeMsg struct{ N int }

func (*probeMsg) Kind() string { return "PROBE" }

func TestSchedulerOrdering(t *testing.T) {
	s := NewScheduler(1)
	var got []int
	s.After(3*time.Millisecond, func() { got = append(got, 3) })
	s.After(1*time.Millisecond, func() { got = append(got, 1) })
	s.After(2*time.Millisecond, func() { got = append(got, 2) })
	s.Run(10 * time.Millisecond)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events fired out of order: %v", got)
	}
	if s.Now() != 10*time.Millisecond {
		t.Fatalf("clock = %v", s.Now())
	}
}

func TestSchedulerTieBreakBySchedulingOrder(t *testing.T) {
	s := NewScheduler(1)
	var got []int
	for i := 0; i < 5; i++ {
		i := i
		s.After(time.Millisecond, func() { got = append(got, i) })
	}
	s.RunUntilIdle(time.Second)
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant events reordered: %v", got)
		}
	}
}

func TestTimerCancel(t *testing.T) {
	s := NewScheduler(1)
	fired := false
	tm := s.After(time.Millisecond, func() { fired = true })
	tm.Stop()
	s.RunUntilIdle(time.Second)
	if fired {
		t.Fatal("cancelled timer fired")
	}
}

// A cancelled event that Step discards does not move the clock, so an
// event scheduled after the queue drains may lie before it, and Stop must
// still cancel that event.
func TestStopAfterDrainThroughCancelled(t *testing.T) {
	s := NewScheduler(1)
	late := s.At(10*time.Millisecond, func() { t.Fatal("cancelled 10ms event fired") })
	late.Stop()
	if s.Step() {
		t.Fatal("Step fired an event from a queue of cancelled ones")
	}
	fired := false
	early := s.At(5*time.Millisecond, func() { fired = true })
	early.Stop()
	late.Stop() // already discarded: must not count against Pending
	if got := s.Pending(); got != 0 {
		t.Fatalf("Pending = %d after stopping the only event, want 0", got)
	}
	s.RunUntilIdle(time.Second)
	if fired {
		t.Fatal("stopped 5ms event fired")
	}
	s.After(time.Millisecond, func() {})
	if got := s.Pending(); got != 1 {
		t.Fatalf("Pending = %d with one live event, want 1", got)
	}
}

func TestRunStopsAtBoundary(t *testing.T) {
	s := NewScheduler(1)
	fired := false
	s.After(5*time.Millisecond, func() { fired = true })
	s.Run(4 * time.Millisecond)
	if fired {
		t.Fatal("event beyond the boundary fired")
	}
	s.Run(6 * time.Millisecond)
	if !fired {
		t.Fatal("event within the boundary missed")
	}
}

func TestNetworkDelivery(t *testing.T) {
	s := NewScheduler(1)
	n := NewNetwork(s, NetConfig{Delay: time.Millisecond})
	var got []types.Message
	n.Register(1, HandlerFunc(func(from types.NodeID, m types.Message) {
		got = append(got, m)
	}))
	n.Send(0, 1, &probeMsg{N: 7})
	s.RunUntilIdle(time.Second)
	if len(got) != 1 {
		t.Fatalf("delivered %d", len(got))
	}
	d, drop := n.Totals()
	if d != 1 || drop != 0 {
		t.Fatalf("totals %d/%d", d, drop)
	}
}

func TestCrashSilencesNode(t *testing.T) {
	s := NewScheduler(1)
	n := NewNetwork(s, NetConfig{Delay: time.Millisecond})
	delivered := 0
	n.Register(1, HandlerFunc(func(types.NodeID, types.Message) { delivered++ }))
	n.Crash(1)
	n.Send(0, 1, &probeMsg{})
	n.Crash(0)
	n.Send(0, 2, &probeMsg{})
	s.RunUntilIdle(time.Second)
	if delivered != 0 {
		t.Fatal("crashed node received traffic")
	}
	if _, dropped := n.Totals(); dropped != 2 {
		t.Fatalf("dropped %d, want 2", dropped)
	}
	n.Restart(1)
	n.Send(2, 1, &probeMsg{})
	s.RunUntilIdle(time.Second)
	if delivered != 1 {
		t.Fatal("restarted node unreachable")
	}
}

func TestPartitionAndHeal(t *testing.T) {
	s := NewScheduler(1)
	n := NewNetwork(s, NetConfig{Delay: time.Millisecond})
	delivered := 0
	n.Register(1, HandlerFunc(func(types.NodeID, types.Message) { delivered++ }))
	n.Partition([]types.NodeID{0}, []types.NodeID{1})
	n.Send(0, 1, &probeMsg{})
	s.RunUntilIdle(time.Second)
	if delivered != 0 {
		t.Fatal("message crossed the partition")
	}
	n.Heal()
	n.Send(0, 1, &probeMsg{})
	s.RunUntilIdle(2 * time.Second)
	if delivered != 1 {
		t.Fatal("healed partition still blocks")
	}
}

func TestDropRate(t *testing.T) {
	s := NewScheduler(1)
	n := NewNetwork(s, NetConfig{Delay: time.Millisecond, DropRate: 0.5})
	delivered := 0
	n.Register(1, HandlerFunc(func(types.NodeID, types.Message) { delivered++ }))
	for i := 0; i < 1000; i++ {
		n.Send(0, 1, &probeMsg{N: i})
	}
	s.RunUntilIdle(time.Minute)
	if delivered < 350 || delivered > 650 {
		t.Fatalf("drop rate off: %d of 1000 delivered", delivered)
	}
}

func TestPreGSTBehavior(t *testing.T) {
	cfg := NetConfig{
		Delay: time.Millisecond, GST: time.Second,
		PreGSTMaxDelay: 500 * time.Millisecond, PreGSTDropRate: 1.0,
	}
	s := NewScheduler(1)
	n := NewNetwork(s, cfg)
	delivered := 0
	n.Register(1, HandlerFunc(func(types.NodeID, types.Message) { delivered++ }))
	n.Send(0, 1, &probeMsg{}) // before GST: dropped (rate 1.0)
	s.Run(2 * time.Second)
	if delivered != 0 {
		t.Fatal("pre-GST message survived a 100% drop rate")
	}
	n.Send(0, 1, &probeMsg{}) // after GST: normal
	s.RunUntilIdle(3 * time.Second)
	if delivered != 1 {
		t.Fatal("post-GST message lost")
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() []int {
		s := NewScheduler(99)
		n := NewNetwork(s, NetConfig{Delay: time.Millisecond, Jitter: time.Millisecond, DropRate: 0.2})
		var got []int
		n.Register(1, HandlerFunc(func(_ types.NodeID, m types.Message) {
			got = append(got, m.(*probeMsg).N)
		}))
		for i := 0; i < 100; i++ {
			n.Send(0, 1, &probeMsg{N: i})
		}
		s.RunUntilIdle(time.Minute)
		return got
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("non-deterministic delivery counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("non-deterministic delivery order")
		}
	}
}

type sizedMsg struct{}

func (*sizedMsg) Kind() string     { return "SIZED" }
func (*sizedMsg) EncodedSize() int { return 12345 }

func TestSizeAccounting(t *testing.T) {
	s := NewScheduler(1)
	n := NewNetwork(s, NetConfig{Delay: time.Millisecond})
	n.Register(1, HandlerFunc(func(types.NodeID, types.Message) {}))
	n.Send(0, 1, &sizedMsg{})
	s.RunUntilIdle(time.Second)
	if st := n.Stats(0); st.BytesSent != 12345 {
		t.Fatalf("Sizer override ignored: %d bytes", st.BytesSent)
	}
	_, bytes := n.KindCounts()
	if bytes["SIZED"] != 12345 {
		t.Fatalf("kind bytes %v", bytes)
	}
}

type interceptDrop struct{}

func (interceptDrop) OnSend(from, to types.NodeID, m types.Message) Action {
	if to == 1 {
		return Action{Drop: true}
	}
	return Action{}
}

func TestInterceptor(t *testing.T) {
	s := NewScheduler(1)
	n := NewNetwork(s, NetConfig{Delay: time.Millisecond})
	delivered := map[types.NodeID]int{}
	for _, id := range []types.NodeID{1, 2} {
		id := id
		n.Register(id, HandlerFunc(func(types.NodeID, types.Message) { delivered[id]++ }))
	}
	n.SetInterceptor(interceptDrop{})
	n.Send(0, 1, &probeMsg{})
	n.Send(0, 2, &probeMsg{})
	s.RunUntilIdle(time.Second)
	if delivered[1] != 0 || delivered[2] != 1 {
		t.Fatalf("interceptor misapplied: %v", delivered)
	}
}

func TestDuplicateDelivery(t *testing.T) {
	s := NewScheduler(1)
	n := NewNetwork(s, NetConfig{Delay: time.Millisecond, DuplicateRate: 1.0})
	got := 0
	n.Register(1, HandlerFunc(func(types.NodeID, types.Message) { got++ }))
	n.Send(0, 1, &probeMsg{})
	s.RunUntilIdle(time.Second)
	if got != 2 {
		t.Fatalf("DuplicateRate=1 delivered %d copies, want 2", got)
	}
}

func TestDuplicateStatsSymmetry(t *testing.T) {
	// A duplicated message is one send and two deliveries; sender and
	// receiver counters must agree with the delivered total.
	s := NewScheduler(1)
	n := NewNetwork(s, NetConfig{Delay: time.Millisecond, DuplicateRate: 1.0})
	n.Register(1, HandlerFunc(func(types.NodeID, types.Message) {}))
	n.Send(0, 1, &probeMsg{})
	s.RunUntilIdle(time.Second)

	ss, rs := n.Stats(0), n.Stats(1)
	if ss.MsgsSent != 1 {
		t.Fatalf("MsgsSent = %d, want 1", ss.MsgsSent)
	}
	if rs.MsgsRecv != 2 {
		t.Fatalf("MsgsRecv = %d, want 2 (duplicate must be counted at the receiver)", rs.MsgsRecv)
	}
	if rs.BytesRecv != 2*ss.BytesSent {
		t.Fatalf("BytesRecv = %d, want 2×BytesSent = %d", rs.BytesRecv, 2*ss.BytesSent)
	}
	if delivered, dropped := n.Totals(); delivered != 2 || dropped != 0 {
		t.Fatalf("Totals = (%d, %d), want (2, 0)", delivered, dropped)
	}
}

func TestDuplicateNeverBeatsOriginal(t *testing.T) {
	// Egress serialization delays the original copy; the duplicate must
	// be held to at least the same schedule instead of sneaking out on
	// the pre-serialization delay.
	s := NewScheduler(1)
	cost := 10 * time.Millisecond
	n := NewNetwork(s, NetConfig{Delay: time.Millisecond, DuplicateRate: 1.0, SendCostPerMsg: cost})
	first := make(map[int]time.Duration)
	n.Register(1, HandlerFunc(func(_ types.NodeID, m types.Message) {
		k := m.(*probeMsg).N
		if _, seen := first[k]; !seen {
			first[k] = s.Now()
		}
	}))
	const msgs = 4
	for i := 0; i < msgs; i++ {
		n.Send(0, 1, &probeMsg{N: i})
	}
	s.RunUntilIdle(time.Second)
	for i := 0; i < msgs; i++ {
		// Message i leaves the sender only after i+1 serialization slots.
		if min := time.Duration(i+1) * cost; first[i] < min {
			t.Fatalf("msg %d first arrived at %v, before its egress-serialized schedule %v (duplicate beat the original)", i, first[i], min)
		}
	}
}

func TestDuplicateRespectsMidFlightPartition(t *testing.T) {
	s := NewScheduler(1)
	n := NewNetwork(s, NetConfig{Delay: 10 * time.Millisecond, DuplicateRate: 1.0})
	got := 0
	n.Register(1, HandlerFunc(func(types.NodeID, types.Message) { got++ }))
	n.Send(0, 1, &probeMsg{})
	s.After(time.Millisecond, func() { n.Partition([]types.NodeID{0}, []types.NodeID{1}) })
	s.RunUntilIdle(time.Second)
	if got != 0 {
		t.Fatalf("partition imposed mid-flight, yet %d copies were delivered", got)
	}
	if delivered, dropped := n.Totals(); delivered != 0 || dropped != 2 {
		t.Fatalf("Totals = (%d, %d), want both copies dropped (0, 2)", delivered, dropped)
	}
}

func TestDuplicateRespectsMidFlightCrash(t *testing.T) {
	s := NewScheduler(1)
	n := NewNetwork(s, NetConfig{Delay: 10 * time.Millisecond, DuplicateRate: 1.0})
	got := 0
	n.Register(1, HandlerFunc(func(types.NodeID, types.Message) { got++ }))
	n.Send(0, 1, &probeMsg{})
	s.After(time.Millisecond, func() { n.Crash(1) })
	s.RunUntilIdle(time.Second)
	if got != 0 {
		t.Fatalf("receiver crashed mid-flight, yet %d copies were delivered", got)
	}
	if delivered, dropped := n.Totals(); delivered != 0 || dropped != 2 {
		t.Fatalf("Totals = (%d, %d), want both copies dropped (0, 2)", delivered, dropped)
	}
}

func TestLinkDelayStillAdversarialPreGST(t *testing.T) {
	// A per-link override replaces the base delay but must not disable
	// the pre-GST adversary: before GST an explicitly slow link can be
	// slowed further, up to PreGSTMaxDelay.
	link := 200 * time.Millisecond
	s := NewScheduler(1)
	n := NewNetwork(s, NetConfig{
		Delay:          time.Millisecond,
		GST:            10 * time.Second,
		PreGSTMaxDelay: 500 * time.Millisecond,
	})
	n.SetLinkDelay(0, 1, link)
	var arrivals []time.Duration
	n.Register(1, HandlerFunc(func(types.NodeID, types.Message) { arrivals = append(arrivals, s.Now()) }))
	const msgs = 10
	for i := 0; i < msgs; i++ {
		n.Send(0, 1, &probeMsg{N: i})
	}
	s.RunUntilIdle(20 * time.Second)
	if len(arrivals) != msgs {
		t.Fatalf("delivered %d of %d", len(arrivals), msgs)
	}
	max := time.Duration(0)
	for _, a := range arrivals {
		if a < link {
			t.Fatalf("arrival at %v is below the link override %v", a, link)
		}
		if a > max {
			max = a
		}
	}
	if max <= link {
		t.Fatalf("all %d pre-GST arrivals at exactly the override %v — adversarial delay was discarded", msgs, link)
	}
}

// zeroSource makes every random draw zero: no jitter, and a duplicate
// drawn at dup = 0, the same instant as its original.
type zeroSource struct{}

func (zeroSource) Int63() int64 { return 0 }
func (zeroSource) Seed(int64)   {}

func TestDuplicateAtZeroDelayKeepsSendOrder(t *testing.T) {
	// Two copies of one message are indistinguishable, so watch the order
	// across messages: sent back to back with no jitter and dup = 0, all
	// copies arrive at one instant, and each message's pair must arrive
	// together and in send order. That holds only if same-instant arrivals
	// fire in scheduling order, the rule that keeps a duplicate behind its
	// original.
	s := NewScheduler(1)
	s.rng = rand.New(zeroSource{})
	n := NewNetwork(s, NetConfig{Delay: time.Millisecond, Jitter: time.Millisecond, DuplicateRate: 1})
	var got []int
	n.Register(1, HandlerFunc(func(_ types.NodeID, m types.Message) {
		if s.Now() != time.Millisecond {
			t.Fatalf("arrival at %v, want every copy at 1ms", s.Now())
		}
		got = append(got, m.(*probeMsg).N)
	}))
	for i := 0; i < 3; i++ {
		n.Send(0, 1, &probeMsg{N: i})
	}
	s.RunUntilIdle(time.Second)
	if want := []int{0, 0, 1, 1, 2, 2}; !slices.Equal(got, want) {
		t.Fatalf("arrivals %v, want %v", got, want)
	}
}

// refEvent, refHeap and refScheduler are the scheduler as it was before
// events became values: a pointer heap, one *refTimer per event, and a
// cancelled flag on the event. The value heap must behave exactly alike.
type refEvent struct {
	at        time.Duration
	seq       uint64
	fn        func()
	cancelled bool
}

type refHeap []*refEvent

func (h refHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h refHeap) up(j int) {
	for {
		i := (j - 1) / 2
		if i == j || !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (h refHeap) down(i, n int) {
	for {
		j := 2*i + 1
		if j >= n || j < 0 {
			break
		}
		if r := j + 1; r < n && h.less(r, j) {
			j = r
		}
		if !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

func (h *refHeap) push(ev *refEvent) {
	*h = append(*h, ev)
	h.up(len(*h) - 1)
}

func (h *refHeap) pop() *refEvent {
	old := *h
	n := len(old) - 1
	old[0], old[n] = old[n], old[0]
	old.down(0, n)
	ev := old[n]
	old[n] = nil
	*h = old[:n]
	return ev
}

type refTimer struct{ ev *refEvent }

func (t *refTimer) Stop() { t.ev.cancelled = true }

type refScheduler struct {
	now time.Duration
	seq uint64
	pq  refHeap
}

func (s *refScheduler) At(t time.Duration, fn func()) *refTimer {
	if t < s.now {
		t = s.now
	}
	s.seq++
	ev := &refEvent{at: t, seq: s.seq, fn: fn}
	s.pq.push(ev)
	return &refTimer{ev: ev}
}

func (s *refScheduler) Step() bool {
	for len(s.pq) > 0 {
		ev := s.pq.pop()
		if ev.cancelled {
			continue
		}
		s.now = ev.at
		ev.fn()
		return true
	}
	return false
}

func (s *refScheduler) Run(until time.Duration) {
	for len(s.pq) > 0 && s.pq[0].at <= until {
		s.Step()
	}
	if s.now < until {
		s.now = until
	}
}

func (s *refScheduler) RunUntilIdle(cap time.Duration) {
	for len(s.pq) > 0 && s.pq[0].at <= cap {
		s.Step()
	}
}

func (s *refScheduler) Pending() int {
	n := 0
	for _, ev := range s.pq {
		if !ev.cancelled {
			n++
		}
	}
	return n
}

// schedOps is what the random program drives; both schedulers adapt to it.
type schedOps struct {
	at           func(t time.Duration, fn func()) (stop func())
	now          func() time.Duration
	step         func() bool
	run          func(until time.Duration)
	runUntilIdle func(cap time.Duration)
	pending      func() int
}

func valueOps(s *Scheduler) schedOps {
	return schedOps{
		at:           func(t time.Duration, fn func()) func() { return s.At(t, fn).Stop },
		now:          s.Now,
		step:         s.Step,
		run:          s.Run,
		runUntilIdle: s.RunUntilIdle,
		pending:      s.Pending,
	}
}

func refOps(s *refScheduler) schedOps {
	return schedOps{
		at:           func(t time.Duration, fn func()) func() { return s.At(t, fn).Stop },
		now:          func() time.Duration { return s.now },
		step:         s.Step,
		run:          s.Run,
		runUntilIdle: s.RunUntilIdle,
		pending:      s.Pending,
	}
}

// schedProgram runs a seeded random program of At/After (on a 1 ms grid,
// so many events share an instant), Stop (before firing, after firing,
// twice, and from inside callbacks), Step, Run and RunUntilIdle, and
// returns a transcript: what fired, then Now and Pending after every
// operation. One operation stops everything and steps the queue empty
// through the cancelled events, which leaves the clock behind them, then
// schedules before them and stops old and new events again.
func schedProgram(seed int64, s schedOps) []string {
	rng := rand.New(rand.NewSource(seed))
	var out []string
	var stops []func()
	var schedule func(t time.Duration)
	schedule = func(t time.Duration) {
		id := len(stops)
		stops = append(stops, s.at(t, func() {
			out = append(out, fmt.Sprintf("fire %d at %v", id, s.now()))
			switch id % 7 {
			case 0: // schedule a follow-up at this very instant
				schedule(s.now())
			case 3: // and one a little later
				schedule(s.now() + time.Duration(id%3)*time.Millisecond)
			case 5: // stop an earlier event, fired or not
				stops[id/2]()
			}
		}))
	}
	for op := 0; op < 4000; op++ {
		now := s.now()
		switch r := rng.Intn(21); {
		case r < 8: // At, up to 2 ms in the past (clamped) or 8 ms ahead
			schedule(now + time.Duration(rng.Intn(11)-2)*time.Millisecond)
		case r < 10: // After
			schedule(s.now() + time.Duration(rng.Intn(4))*time.Millisecond)
		case r < 13:
			if len(stops) > 0 {
				stop := stops[rng.Intn(len(stops))]
				stop()
				if rng.Intn(4) == 0 {
					stop()
				}
			}
		case r < 17:
			out = append(out, fmt.Sprintf("step %v", s.step()))
		case r < 19:
			s.run(now + time.Duration(rng.Intn(4))*time.Millisecond)
		case r < 20:
			s.runUntilIdle(now + time.Duration(rng.Intn(6))*time.Millisecond)
		default:
			for _, stop := range stops {
				stop()
			}
			out = append(out, fmt.Sprintf("drain %v", s.step()))
			schedule(s.now() + time.Duration(rng.Intn(3))*time.Millisecond)
			if rng.Intn(2) == 0 {
				stops[len(stops)-1]()
			}
			stops[rng.Intn(len(stops))]()
		}
		out = append(out, fmt.Sprintf("op %d: now %v pending %d", op, s.now(), s.pending()))
	}
	return out
}

func TestValueHeapMatchesPointerHeap(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		want := schedProgram(seed, refOps(&refScheduler{}))
		got := schedProgram(seed, valueOps(NewScheduler(seed)))
		for i := range want {
			if i >= len(got) || got[i] != want[i] {
				var g string
				if i < len(got) {
					g = got[i]
				}
				t.Fatalf("seed %d: transcripts diverge at line %d: value heap %q, pointer heap %q", seed, i, g, want[i])
			}
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: value heap transcript has %d lines, pointer heap %d", seed, len(got), len(want))
		}
	}
}
