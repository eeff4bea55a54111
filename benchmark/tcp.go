package main

import (
	"fmt"
	"time"

	"bftkit/internal/chaos"
	"bftkit/internal/core"
	"bftkit/internal/harness"
	"bftkit/internal/obsv"
	"bftkit/internal/types"
)

// tcpSpec is one loopback-TCP workload. Every spec deploys what bftnode
// deploys by default: core.DefaultConfig untouched (BatchSize 1), the
// verification engine on with two async workers. Tuning the deployment
// here would hide a later change of those defaults from the benchmark.
type tcpSpec struct {
	name      string
	protocol  string
	window    int // closed-loop requests in flight
	valueSize int
	readShare float64
	prefill   bool // write every key during set-up, so Gets always hit
}

var tcpSpecs = map[string]tcpSpec{
	"tcp-closed1":  {name: "tcp-closed1", protocol: "pbft", window: 1, valueSize: 16},
	"tcp-sat32":    {name: "tcp-sat32", protocol: "pbft", window: 32, valueSize: 16},
	"tcp-bulk-mac": {name: "tcp-bulk-mac", protocol: "pbft-mac", window: 8, valueSize: 4096, readShare: 0.5, prefill: true},
}

const (
	tcpN             = 4
	tcpF             = 1
	tcpVerifyWorkers = 2
	// tcpRounds is how many times an untraced run sets the deployment
	// up, measures a window on it and tears it down. Medians over the
	// rounds absorb a round that drew a bad port order or a GC at the
	// wrong moment, and give setup_s several samples per run.
	tcpRounds = 3
	// tcpWarmup is the number of workload requests issued before the
	// measured window opens.
	tcpWarmup = 500
	// maxWindow is the widest closed loop the one harness client carries:
	// TCPCluster.doneCh holds 64 completions and Submit is single-goroutine.
	maxWindow = 32
	// doneTimeout is how long the generator waits for one completion
	// before it counts everything in flight as failed.
	doneTimeout = 20 * time.Second
	// bindAttempts bounds NewTCPCluster retries: reserveAddrs frees its
	// ports before the nodes bind them, so another process can win one.
	bindAttempts = 3
)

// sample is one completed request as the generator saw it.
type sample struct {
	completion
	ok       bool
	measured bool // submitted inside the measured window
}

type pending struct {
	op       op
	submit   time.Duration
	measured bool
}

// closedLoop drives the cluster's one client from one goroutine, keeping
// up to `window` requests in flight.
type closedLoop struct {
	clu      *harness.TCPCluster
	rec      *recorder
	window   int
	inflight map[uint64]pending
	samples  []sample
	// submitDur is the time spent inside TCPCluster.Submit (the enqueue
	// on the client's event loop, where the request is then signed).
	submitDur time.Duration
	submits   int
	timedOut  int
	err       error
}

func newClosedLoop(clu *harness.TCPCluster, rec *recorder, window int) *closedLoop {
	return &closedLoop{clu: clu, rec: rec, window: window, inflight: make(map[uint64]pending)}
}

func (l *closedLoop) submit(o op, measured bool) {
	at := l.clu.Now()
	req := l.clu.Submit(o.raw)
	l.submitDur += l.clu.Now() - at
	l.submits++
	l.inflight[req.ClientSeq] = pending{op: o, submit: at, measured: measured}
}

// await collects one completion. It reports false when the cluster
// stopped answering; everything in flight is then counted as timed out.
func (l *closedLoop) await() bool {
	req, err := l.clu.AwaitDone(doneTimeout)
	if err != nil {
		l.timedOut += len(l.inflight)
		l.inflight = make(map[uint64]pending)
		l.err = err
		return false
	}
	p, ok := l.inflight[req.ClientSeq]
	if !ok {
		return true // not issued by this loop; cannot occur with one generator
	}
	delete(l.inflight, req.ClientSeq)
	d := l.rec.take(req.Key())
	l.samples = append(l.samples, sample{
		completion: completion{key: req.Key(), submit: p.submit, done: d.at},
		ok:         p.op.matches(d.result),
		measured:   p.measured,
	})
	return true
}

// run keeps the window full from next until next reports false. What is
// in flight at that point stays in flight: the caller either continues
// with another source (warm-up flows into the measured window without
// the pipeline running dry) or drains.
func (l *closedLoop) run(measured bool, next func() (op, bool)) {
	for l.err == nil {
		for len(l.inflight) < l.window {
			o, ok := next()
			if !ok {
				return
			}
			l.submit(o, measured)
		}
		if !l.await() {
			return
		}
	}
}

func (l *closedLoop) drain() {
	for l.err == nil && len(l.inflight) > 0 {
		l.await()
	}
}

// runList pushes a fixed list of operations through and waits for all.
func (l *closedLoop) runList(ops []op) {
	i := 0
	l.run(false, func() (op, bool) {
		if i == len(ops) {
			return op{}, false
		}
		i++
		return ops[i-1], true
	})
	l.drain()
}

// bad counts requests that timed out or whose result did not match the
// model.
func (l *closedLoop) bad() int {
	n := l.timedOut
	for _, s := range l.samples {
		if !s.ok {
			n++
		}
	}
	return n
}

// tracerMark is a reading of the shared tracer's cumulative counters,
// taken at the edges of the measured window.
type tracerMark struct {
	totals obsv.PhaseStat
	pool   obsv.VerifyPoolStats
	outQ   obsv.HistogramSnapshot // per-peer outbound queue depth at each enqueue
	laneQ  obsv.HistogramSnapshot // inbound verify-lane depth at each enqueue
	batch  obsv.HistogramSnapshot // claims per VerifyBatch call
}

func markTracer(tr *obsv.Tracer) tracerMark {
	return tracerMark{
		totals: tr.Totals(), pool: tr.VerifyPoolStats(),
		outQ: tr.OutQueueDepth.Snapshot(), laneQ: tr.VerifyQueueDepth.Snapshot(), batch: tr.VerifyBatchSize.Snapshot(),
	}
}

// histWindow is the part of a cumulative obsv histogram that was
// observed between two snapshots.
type histWindow struct{ from, to obsv.HistogramSnapshot }

func (w histWindow) mean() float64 {
	n := w.to.Count - w.from.Count
	if n <= 0 {
		return 0
	}
	return float64(w.to.Sum-w.from.Sum) / float64(n)
}

// quantile returns an upper bound on the q-th quantile, with the
// fidelity of obsv.Histogram.Quantile: bucket i holds [2^(i-1), 2^i).
func (w histWindow) quantile(q float64) float64 {
	n := w.to.Count - w.from.Count
	if n <= 0 {
		return 0
	}
	rank := int64(q * float64(n-1))
	var seen int64
	for i := range w.to.Buckets {
		seen += w.to.Buckets[i] - w.from.Buckets[i]
		if seen > rank {
			if i == 0 {
				return 0
			}
			return float64(int64(1)<<uint(i) - 1)
		}
	}
	return float64(w.to.Max)
}

// tcpTrace is the traced pass's raw material from one round.
type tcpTrace struct {
	rec      *recorder
	tracer   *obsv.Tracer
	timing   *timing
	from, to tracerMark
	done     []completion // requests submitted and completed in the window
	submitUS float64      // mean time inside TCPCluster.Submit
}

// tcpRound is what one set-up/measure/tear-down cycle produced.
type tcpRound struct {
	setup     time.Duration
	retries   int           // lost bind races
	window    time.Duration // measured wall time
	completed int           // completions inside the window
	cost      bracket
	liveHeap  float64
	latencies []float64 // ms, requests submitted inside the window
	attempted int
	failed    int
	notes     []string
	trace     *tcpTrace // traced pass only
}

// newTCPCluster builds the deployment, retrying a lost bind race.
func newTCPCluster(opts harness.TCPOptions) (*harness.TCPCluster, int, error) {
	var err error
	for attempt := 0; attempt < bindAttempts; attempt++ {
		var clu *harness.TCPCluster
		if clu, err = harness.NewTCPCluster(opts); err == nil {
			return clu, attempt, nil
		}
	}
	return nil, bindAttempts, fmt.Errorf("tcp cluster: %w", err)
}

// runTCPRound sets one deployment up, measures one window on it, reads
// every key back and tears it down. With traced set it first installs
// the per-layer instrumentation: the timing wrapper on every replica, a
// shared counters-only tracer, the span recorder and the chaos oracle.
func runTCPRound(spec tcpSpec, seed int64, window time.Duration, traced bool) (tcpRound, error) {
	var round tcpRound
	// Earlier rounds leave timers and caches reachable for a while; the
	// round's live heap is what it adds on top of them.
	heapBefore := liveHeapMB()
	t0 := time.Now()

	rec := newRecorder(tcpN, traced)
	opts := harness.TCPOptions{
		Protocol:      spec.protocol,
		N:             tcpN,
		F:             tcpF,
		Seed:          seed,
		VerifyWorkers: tcpVerifyWorkers,
		Observers:     []harness.Observer{rec},
	}
	var tr *tcpTrace
	var oracle *chaos.Oracle
	if traced {
		tr = &tcpTrace{rec: rec, tracer: obsv.New(obsv.Options{Label: spec.name}), timing: newTiming()}
		round.trace = tr
		oracle = chaos.NewOracle(chaos.Config{Protocol: spec.protocol, N: tcpN, F: tcpF},
			func() time.Duration { return time.Since(t0) })
		opts.Trace = tr.tracer
		opts.Observers = append(opts.Observers, oracle)
		reg, _ := core.Lookup(spec.protocol)
		opts.MakeReplica = func(id types.NodeID, cfg core.Config) core.Protocol {
			return tr.timing.wrap(id, reg.NewReplica(cfg))
		}
	}
	clu, retries, err := newTCPCluster(opts)
	if err != nil {
		return round, err
	}
	defer clu.Stop()
	round.retries = retries

	gen := newGenerator(seed, newPool(seed), "", spec.valueSize, spec.readShare, 2*spec.window)
	if spec.prefill {
		pre := newClosedLoop(clu, rec, maxWindow)
		pre.runList(gen.prefill())
		round.attempted += keyspace
		round.failed += pre.bad()
		if pre.err != nil {
			return round, fmt.Errorf("%s prefill: %w", spec.name, pre.err)
		}
	}

	loop := newClosedLoop(clu, rec, spec.window)
	warm := 0
	loop.run(false, func() (op, bool) {
		if warm == tcpWarmup {
			return op{}, false
		}
		warm++
		return gen.next(), true
	})
	if loop.err != nil {
		return round, fmt.Errorf("%s warm-up: %w", spec.name, loop.err)
	}
	round.setup = time.Since(t0)

	u := openBracket()
	if tr != nil {
		tr.from = markTracer(tr.tracer)
		tr.timing.active.Store(true)
	}
	winStart := clu.Now()
	deadline := winStart + window
	loop.run(true, func() (op, bool) {
		if clu.Now() >= deadline {
			return op{}, false
		}
		return gen.next(), true
	})
	winEnd := clu.Now()
	if tr != nil {
		tr.timing.active.Store(false)
		tr.to = markTracer(tr.tracer)
	}
	round.cost = u.close()
	round.window = winEnd - winStart
	loop.drain()
	round.liveHeap = liveHeapMB() - heapBefore

	round.attempted += len(loop.samples) + loop.timedOut
	round.failed += loop.bad()
	for _, s := range loop.samples {
		if s.done >= winStart && s.done <= winEnd {
			round.completed++
		}
		if s.measured {
			round.latencies = append(round.latencies, ms(s.done-s.submit))
			if tr != nil && s.done <= winEnd {
				tr.done = append(tr.done, s.completion)
			}
		}
	}
	if loop.err != nil {
		return round, fmt.Errorf("%s window: %w", spec.name, loop.err)
	}

	// Read every key back: each acknowledged write must be there, and
	// nothing else.
	back := newClosedLoop(clu, rec, maxWindow)
	back.runList(gen.readBack())
	round.attempted += keyspace
	if bad := back.bad(); bad > 0 {
		round.failed += bad
		round.notes = append(round.notes, fmt.Sprintf("read-back: %d of %d keys wrong or unanswered", bad, keyspace))
	}

	// Everything below reads state the replica goroutines write; stop
	// them first. Stop leaves the replicas' armed timers in the runtime,
	// each holding its replica's ledger and store reachable until it
	// fires into the closed event loop; wait out the longest of them so
	// the next round's heap baseline does not count this deployment.
	clu.Stop()
	time.Sleep(clu.Cfg.RequestTimeout + 100*time.Millisecond)
	for _, v := range rec.violations {
		round.failed++
		round.notes = append(round.notes, "runtime violation: "+v.Error())
	}
	if tr != nil {
		if loop.submits > 0 {
			tr.submitUS = us(loop.submitDur) / float64(loop.submits)
		}
		issued := len(loop.samples) + len(back.samples)
		oracle.Finalize(issued, issued, true, time.Since(t0))
		for _, v := range oracle.Violations() {
			round.failed++
			round.notes = append(round.notes, "oracle: "+v.String())
		}
	}
	return round, nil
}
