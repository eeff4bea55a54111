package main

import (
	"testing"
	"time"

	"bftkit/internal/core"
	"bftkit/internal/harness"
	"bftkit/internal/kvstore"
	"bftkit/internal/obsv"
	"bftkit/internal/sim"
	"bftkit/internal/types"
)

func TestPercentileNearestRank(t *testing.T) {
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(i + 1)
	}
	cases := []struct {
		sorted []float64
		p      float64
		want   float64
	}{
		{hundred, 50, 50}, // rank ⌈0.5·100⌉ = 50, not the truncated index 49 or 51
		{hundred, 99, 99},
		{hundred, 99.1, 100},
		{hundred, 0, 1},
		{hundred, 100, 100},
		{[]float64{7}, 99, 7},
		{[]float64{1, 2, 3}, 50, 2},
		{[]float64{1, 2, 3, 4}, 50, 2}, // ⌈2⌉ = 2: nearest rank does not interpolate
	}
	for _, c := range cases {
		if got := percentile(c.sorted, c.p); got != c.want {
			t.Errorf("percentile(n=%d, p=%v) = %v, want %v", len(c.sorted), c.p, got, c.want)
		}
	}
}

func TestSamplesBeyondRule(t *testing.T) {
	cases := []struct {
		n      int
		p      float64
		beyond int
		ok     bool
	}{
		{1000, 99, 10, true}, // rank 990, ten samples above it: just enough
		{999, 99, 9, false},  // rank ⌈989.01⌉ = 990 of 999
		{1440, 99, 14, true}, // sim-sweep's measured sample count
		{100, 99, 1, false},
		{2000, 50, 1000, true},
		{1, 99, 0, false},
	}
	for _, c := range cases {
		if got := samplesBeyond(c.n, c.p); got != c.beyond {
			t.Errorf("samplesBeyond(%d, %v) = %d, want %d", c.n, c.p, got, c.beyond)
		}
		if got := supportsPercentile(c.n, c.p); got != c.ok {
			t.Errorf("supportsPercentile(%d, %v) = %v, want %v", c.n, c.p, got, c.ok)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %v", got)
	}
}

// An open loop times each request from when it was due, so a stall is
// charged to every request that was due during it, and a request that
// never completed counts as missing the limit.
func TestOpenLoopDueTimeAccounting(t *testing.T) {
	const interval = 10 * time.Millisecond
	key := func(i int) types.RequestKey {
		return types.RequestKey{Client: types.ClientIDBase, ClientSeq: uint64(i)}
	}
	// Ten requests due every 10 ms. The service answers in 2 ms, except
	// that it is away from t=25ms to t=75ms: requests due at 30..70 ms are
	// all answered at 75 ms + 2 ms, and the one due at 90 ms is lost.
	var done []completion
	for i := 0; i < 9; i++ {
		due := time.Duration(i) * interval
		at := due + 2*time.Millisecond
		if due >= 30*time.Millisecond && due <= 70*time.Millisecond {
			at = 77 * time.Millisecond
		}
		done = append(done, completion{key: key(i), submit: due, done: at})
	}
	lat := latenciesMS(done)
	if lat[3] != 47 || lat[7] != 7 || lat[2] != 2 {
		t.Errorf("latencies from due time = %v; want 47 ms for the request due at 30 ms", lat)
	}
	// Over 20 ms: due at 30, 40, 50 (47, 37, 27 ms) plus the lost one.
	if got, want := missedShare(done, 10, 20*time.Millisecond), 0.4; got != want {
		t.Errorf("missedShare = %v, want %v", got, want)
	}
	// Completions at 2, 12, 22, then 77: the gap is 55 ms.
	if got, want := largestGap(done), 55*time.Millisecond; got != want {
		t.Errorf("largestGap = %v, want %v", got, want)
	}
	if got := missedShare(nil, 5, time.Second); got != 1 {
		t.Errorf("nothing completed: missedShare = %v, want 1", got)
	}
}

func TestSelfTime(t *testing.T) {
	msec := func(a, b int) interval {
		return interval{time.Duration(a) * time.Millisecond, time.Duration(b) * time.Millisecond}
	}
	cases := []struct {
		name     string
		parent   interval
		children []interval
		want     time.Duration
	}{
		{"no children", msec(0, 10), nil, 10 * time.Millisecond},
		{"children tile the parent", msec(0, 10), []interval{msec(0, 4), msec(4, 9), msec(9, 10)}, 0},
		{"gap between children", msec(0, 10), []interval{msec(0, 3), msec(6, 10)}, 3 * time.Millisecond},
		{"overlap counted once", msec(0, 10), []interval{msec(0, 6), msec(4, 8)}, 2 * time.Millisecond},
		{"nested child adds nothing", msec(0, 10), []interval{msec(0, 8), msec(2, 5)}, 2 * time.Millisecond},
		{"clipped to the parent", msec(5, 10), []interval{msec(0, 6), msec(9, 20)}, 3 * time.Millisecond},
		{"outside and empty ignored", msec(5, 10), []interval{msec(0, 2), msec(7, 7), msec(12, 15)}, 5 * time.Millisecond},
		{"unsorted input", msec(0, 10), []interval{msec(6, 8), msec(1, 2)}, 7 * time.Millisecond},
	}
	for _, c := range cases {
		if got := selfTime(c.parent, c.children); got != c.want {
			t.Errorf("%s: selfTime = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestBuildSpans(t *testing.T) {
	rec := newRecorder(4, true)
	key := types.RequestKey{Client: types.ClientIDBase, ClientSeq: 1}
	req := &types.Request{Client: key.Client, ClientSeq: key.ClientSeq}
	batch := types.NewBatch(req)
	at := func(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }
	rec.OnCommit(2, 0, 1, batch, nil, at(5))
	rec.OnCommit(0, 0, 1, batch, nil, at(4)) // earlier commit reported later: first commit is the minimum seen first
	for i, ms := range []int{9, 6, 7, 12} {
		rec.OnExecute(types.NodeID(i), 1, batch, nil, at(ms))
	}
	// A request the replicas never reported is left out, not guessed at.
	ghost := types.RequestKey{Client: types.ClientIDBase, ClientSeq: 2}
	got := buildSpans(rec, 1, []completion{{key: key, submit: at(1), done: at(10)}, {key: ghost, submit: at(1), done: at(3)}})
	if len(got.traces) != 1 || len(got.traces[0].Spans) != 4 {
		t.Fatalf("traces = %+v, want one request with parent and three children", got.traces)
	}
	// First commit seen is t=5 (the recorder keeps the first report);
	// the f+1-th = 2nd execute by time is t=7.
	if got.orderMS[0] != 4 || got.replyMS[0] != 3 {
		t.Errorf("order %v ms, reply %v ms; want 4 and 3", got.orderMS[0], got.replyMS[0])
	}
	parent := got.traces[0].Spans[0]
	if parent.Name != "request" || parent.SelfUS != 0 {
		t.Errorf("parent %+v: children tile it, self time must be 0", parent)
	}
	if rec.batchOpsMean() != 1 {
		t.Errorf("batchOpsMean = %v, want 1", rec.batchOpsMean())
	}

	// A speculative protocol's client is done before any replica commits:
	// the children are cut off at the parent's end, never negative.
	spec := types.RequestKey{Client: types.ClientIDBase, ClientSeq: 3}
	specBatch := types.NewBatch(&types.Request{Client: spec.Client, ClientSeq: spec.ClientSeq})
	rec.OnCommit(0, 0, 2, specBatch, nil, at(30))
	rec.OnExecute(0, 2, specBatch, nil, at(30))
	rec.OnExecute(1, 2, specBatch, nil, at(31))
	got = buildSpans(rec, 1, []completion{{key: spec, submit: at(20), done: at(25)}})
	if got.orderMS[0] != 5 || got.replyMS[0] != 0 {
		t.Errorf("speculative request: order %v ms, reply %v ms; want 5 and 0", got.orderMS[0], got.replyMS[0])
	}
}

func TestBracket(t *testing.T) {
	b := bracket{wall: 2 * time.Second, cpu: time.Second, mallocs: 1000, allocBytes: 500 * 1024}
	pt := b.perTxn(500)
	if pt.cpuMS != 2 || pt.allocs != 2 || pt.allocKB != 1 || pt.rps != 250 {
		t.Errorf("perTxn = %+v", pt)
	}
	if (bracket{}).perTxn(10) != (perTxn{}) || b.perTxn(0) != (perTxn{}) {
		t.Error("an empty window or zero completions must yield zeros, not a division by zero")
	}
	sum := b
	sum.add(b)
	if sum.cpu != 2*time.Second || sum.mallocs != 2000 {
		t.Errorf("add = %+v", sum)
	}

	// The live bracket must see the allocations made inside it and
	// nothing like the garbage made before it.
	junk := make([][]byte, 0, 5000)
	for i := 0; i < 5000; i++ {
		junk = append(junk, make([]byte, 2048))
	}
	sink = junk
	u := openBracket()
	const n, size = 1000, 1024
	kept := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		kept = append(kept, make([]byte, size))
	}
	got := u.close()
	sink = kept
	if got.mallocs < n || got.mallocs > n+500 {
		t.Errorf("mallocs = %d, want about %d", got.mallocs, n)
	}
	if got.allocBytes < n*size || got.allocBytes > 2*n*size {
		t.Errorf("allocBytes = %d, want about %d", got.allocBytes, n*size)
	}
	if got.wall <= 0 || got.cpu < 0 {
		t.Errorf("wall %v cpu %v", got.wall, got.cpu)
	}
}

func TestGeneratorModelAndSpacing(t *testing.T) {
	const spacing = 64
	pool := newPool(3)
	g := newGenerator(3, pool, "", 32, 0.5, spacing)
	twin := newGenerator(3, pool, "", 32, 0.5, spacing)
	store := kvstore.New()
	for _, o := range g.prefill() {
		if res := store.Apply(o.raw); !o.matches(res) {
			t.Fatalf("prefill key %d: result %q, expected %q", o.key, res, o.expect)
		}
	}
	twin.prefill()
	last := make(map[int]int)
	for i := 1; i <= 5000; i++ {
		o, same := g.next(), twin.next()
		if string(o.raw) != string(same.raw) {
			t.Fatalf("op %d differs between two generators of one seed", i)
		}
		if prev, ok := last[o.key]; ok && i-prev <= spacing {
			t.Fatalf("key %d reused after %d ops, spacing is %d", o.key, i-prev, spacing)
		}
		last[o.key] = i
		// Applied in order to a real store, every expectation holds.
		if res := store.Apply(o.raw); !o.matches(res) {
			t.Fatalf("op %d (key %d): result %q, expected %q", i, o.key, res, o.expect)
		}
	}
	for _, o := range g.readBack() {
		if res := store.Apply(o.raw); !o.matches(res) {
			t.Fatalf("read-back key %d: store and model disagree", o.key)
		}
	}
	other := newGenerator(4, newPool(4), "", 32, 0.5, spacing)
	other.prefill()
	if string(other.next().raw) == string(newGenerator(3, pool, "", 32, 0.5, spacing).next().raw) {
		t.Error("different seeds produced the same first operation")
	}
}

// Every frame's self time is charged to exactly one bucket, so per
// replica the buckets must add up to the time spent in top-level
// protocol calls — otherwise handler time is lost or counted twice.
func TestTimingWrapperPartitionsHandlerTime(t *testing.T) {
	tm := newTiming()
	reg, _ := core.Lookup("pbft")
	c := harness.NewCluster(harness.Options{Protocol: "pbft", N: 4, Clients: 1, Net: sim.DefaultLAN(), Seed: 1,
		MakeReplica: func(id types.NodeID, cfg core.Config) core.Protocol { return tm.wrap(id, reg.NewReplica(cfg)) }})
	c.Start()
	c.ClosedLoop(10, func(_, k int) []byte { return kvstore.Put("warm", []byte{byte(k)}) })
	stepUntil(c, 10)
	for id, nt := range tm.nodes {
		if nt.calls != 0 || nt.busy != 0 {
			t.Fatalf("replica %v accumulated %d calls outside the measured window", id, nt.calls)
		}
	}
	tm.active.Store(true)
	c.ClosedLoop(40, func(_, k int) []byte { return kvstore.Put("k", []byte{byte(k)}) })
	stepUntil(c, 50)
	tm.active.Store(false)
	if err := c.Audit(); err != nil {
		t.Fatal(err)
	}
	for id, nt := range tm.nodes {
		var self time.Duration
		for _, d := range nt.self {
			self += d
		}
		if nt.calls == 0 || self != nt.busy {
			t.Errorf("replica %v: %d calls, buckets sum to %v, top-level time %v", id, nt.calls, self, nt.busy)
		}
		if len(nt.stack) != 0 {
			t.Errorf("replica %v: %d frames left on the stack", id, len(nt.stack))
		}
	}
	tot := tm.totals(0)
	for b, d := range tot.self {
		if d <= 0 {
			t.Errorf("bucket %d saw no time on a pbft run that commits, replies and sends", b)
		}
	}
	if tot.leaderBusy <= 0 || tot.backupBusy <= 0 {
		t.Errorf("leader %v backup %v", tot.leaderBusy, tot.backupBusy)
	}
}

// A window over a cumulative histogram must see only what was observed
// between its two snapshots: set-up and read-back run wider loops than
// the measured window and would otherwise set its p99.
func TestHistWindow(t *testing.T) {
	h := obsv.NewHistogram("depth", "msgs")
	for i := 0; i < 100; i++ {
		h.Observe(40) // before the window: bucket [32, 64)
	}
	from := h.Snapshot()
	for i := 0; i < 99; i++ {
		h.Observe(1)
	}
	h.Observe(5)
	w := histWindow{from, h.Snapshot()}
	if got := w.mean(); got != 1.04 {
		t.Errorf("mean = %v, want 1.04", got)
	}
	if got := w.quantile(0.5); got != 1 {
		t.Errorf("p50 = %v, want 1", got)
	}
	if got := w.quantile(1); got != 7 {
		t.Errorf("p100 = %v, want the [4, 8) bucket's upper edge 7", got)
	}
	if w.quantile(0.99) >= 32 || h.Quantile(0.99) < 32 {
		t.Errorf("p99: window %v, cumulative %v; only the cumulative histogram may see the 40s",
			w.quantile(0.99), h.Quantile(0.99))
	}
	empty := histWindow{from, from}
	if empty.mean() != 0 || empty.quantile(0.99) != 0 {
		t.Error("an empty window must read 0")
	}
}
