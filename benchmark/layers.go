package main

import (
	"fmt"
	"maps"
	"time"

	"bftkit/internal/core"
	"bftkit/internal/harness"
	"bftkit/internal/sim"
)

// opCounts are per-transaction operation counts of one traced window.
type opCounts struct {
	msgs, wireBytes         float64 // messages sent and their bytes
	sign, verify            float64 // protocol-required signature operations
	mac, macVerify          float64
	performed, hits, misses float64 // what the verify engine actually did
}

// layerInputs is everything the per-layer reduction reads.
type layerInputs struct {
	micro  map[string]float64 // unit costs from the micro-suite
	txns   int                // requests completed in the traced window
	wall   time.Duration      // the window's wall time
	cpuMS  float64            // process CPU per transaction in the window
	timing timingTotals
	rec    *recorder
	counts opCounts
	spans  spanSummary
	// verifyInline says signature verification runs inside protocol
	// handlers (simulator); on TCP the async lanes do the Ed25519 math
	// off the event loop and handlers only look the result up.
	verifyInline bool
	// stateBytes is the application state a checkpoint hashes and
	// snapshots; replicas is how many replicas checkpoint it.
	stateBytes float64
	replicas   int
	interval   uint64 // checkpoint interval in slots
}

// deriveLayers reduces one traced window to the core, span and
// reconciliation metrics. perMsgUS is the encode-side cost of one
// message of the window's mean size, in µs: gob encode + decode on TCP,
// obsv.SizeOf on the simulator.
func deriveLayers(in layerInputs, perMsgUS float64, out map[string]float64) {
	if in.txns == 0 {
		return
	}
	n := float64(in.txns)
	m := in.micro
	tt := in.timing

	out["core.handler_us_per_txn.leader"] = us(tt.leaderBusy) / n
	out["core.handler_us_per_txn.backup"] = us(tt.backupBusy) / n
	out["core.handler_calls_per_txn"] = float64(tt.calls) / n
	if in.wall > 0 {
		out["core.loop_busy_share.leader"] = float64(tt.leaderBusy) / float64(in.wall)
		out["core.loop_busy_share.backup"] = float64(tt.backupBusy) / float64(in.wall)
	}
	out["core.commit_us_per_txn"] = us(tt.self[bucketCommit]) / n
	out["core.reply_us_per_txn"] = us(tt.self[bucketReply]) / n
	out["core.send_us_per_txn"] = us(tt.self[bucketSend]) / n
	out["protocols.self_us_per_txn"] = us(tt.self[bucketProto]) / n
	if in.rec != nil {
		out["core.batch_ops_mean"] = in.rec.batchOpsMean()
		out["core.follower_lag_slots_max"] = float64(in.rec.lagMax)
	}

	if len(in.spans.orderMS) > 0 {
		out["span.order_ms_p50"] = percentile(sortedCopy(in.spans.orderMS), 50)
		out["span.reply_ms_p50"] = percentile(sortedCopy(in.spans.replyMS), 50)
	}

	c := in.counts
	out["vpool.performed_per_txn"] = c.performed
	if c.hits+c.misses > 0 {
		out["vpool.memo_hit_ratio"] = c.hits / (c.hits + c.misses)
	}

	// Reconciliation: count × unit cost per layer, against measured CPU.
	// MAC vectors are timed four-wide with no self-MAC, so one MAC is a
	// third of one.
	macUS := m["crypto.mac_vector4_us"] / 3
	cryptoUS := c.sign*m["crypto.sign_us"] + c.performed*m["crypto.verify_cold_us"] +
		c.hits*m["crypto.verify_memo_us"] + c.mac*macUS + c.macVerify*m["crypto.mac_verify_us"]
	encodeUS := c.msgs * perMsgUS
	batch := out["core.batch_ops_mean"]
	if batch <= 0 {
		batch = 1
	}
	checkpointUS := 0.0
	if in.interval > 0 {
		perCheckpoint := (m["kvstore.hash_4mb_ms"] + m["kvstore.snapshot_4mb_ms"]) * 1e3 * in.stateBytes / (4 << 20)
		checkpointUS = perCheckpoint * float64(in.replicas) / (float64(in.interval) * batch)
	}
	out["est.crypto_ms_per_txn"] = cryptoUS / 1e3
	out["est.encode_ms_per_txn"] = encodeUS / 1e3
	out["est.checkpoint_ms_per_txn"] = checkpointUS / 1e3

	// Handler time already counted above: the crypto that runs inside
	// handlers, and the checkpoint. What is left is protocol and runtime
	// bookkeeping, accounted at its measured self time.
	inlineUS := c.sign*m["crypto.sign_us"] + c.mac*macUS + c.macVerify*m["crypto.mac_verify_us"]
	if in.verifyInline {
		inlineUS += c.performed*m["crypto.verify_cold_us"] + c.hits*m["crypto.verify_memo_us"]
	} else {
		inlineUS += c.verify * m["crypto.verify_memo_us"]
	}
	var selfUS float64
	for _, d := range tt.self {
		selfUS += us(d)
	}
	otherUS := selfUS/n - inlineUS - checkpointUS
	if otherUS < 0 {
		otherUS = 0
	}
	if in.cpuMS > 0 {
		out["est.accounted_share"] = (cryptoUS + encodeUS + checkpointUS + otherUS) / 1e3 / in.cpuMS
	}
}

// calibrate runs the workload's protocol on the simulator at the TCP
// deployment's size and returns its exact per-transaction sign, verify
// and MAC counts. The TCP driver has no crypto observer, but the protocol
// is the same code on both drivers, so the counts are.
func calibrate(protocol string, seed int64, valueSize int, readShare float64) opCounts {
	const requests = 512 // four checkpoint intervals, so checkpoint traffic is averaged in
	c := harness.NewCluster(harness.Options{Protocol: protocol, N: tcpN, F: tcpF, Clients: 1,
		Net: sim.DefaultLAN(), Seed: seed})
	c.Start()
	gen := newGenerator(seed, newPool(seed), "", valueSize, readShare, 1)
	c.ClosedLoop(requests, func(int, int) []byte { return gen.next().raw })
	before := readCounts(c)
	stepUntil(c, requests)
	d := readCounts(c).sub(before)
	n := float64(c.Metrics.Completed)
	if n == 0 {
		return opCounts{}
	}
	return opCounts{sign: float64(d.sign) / n, verify: float64(d.verify) / n,
		mac: float64(d.mac) / n, macVerify: float64(d.macVerify) / n}
}

// traceTCP is the traced run of a TCP workload: the micro-suite, an
// untraced reference window, then a traced window of the same length.
func traceTCP(spec tcpSpec, seed int64, budget time.Duration) (*result, error) {
	res := &result{Correct: true}
	micro, err := runMicro(seed)
	if err != nil {
		return res, err
	}
	out := maps.Clone(micro.unit)

	ref, err := runTCPRound(spec, seed, budget/2, false)
	res.absorb(ref.attempted, ref.failed, ref.notes)
	if err != nil {
		return res, err
	}
	round, err := runTCPRound(spec, seed, budget/2, true)
	res.absorb(round.attempted, round.failed, round.notes)
	if err != nil {
		return res, err
	}
	tr := round.trace
	pt := round.cost.perTxn(round.completed)
	if refRPS := ref.cost.perTxn(ref.completed).rps; refRPS > 0 {
		out["trace.overhead_share"] = 1 - pt.rps/refRPS
	}

	n := float64(round.completed)
	counts := calibrate(spec.protocol, seed, spec.valueSize, spec.readShare)
	if n > 0 {
		d := tr.to.totals
		counts.msgs = float64(d.MsgsSent-tr.from.totals.MsgsSent) / n
		counts.wireBytes = float64(d.BytesSent-tr.from.totals.BytesSent) / n
		counts.performed = float64(tr.to.pool.Performed-tr.from.pool.Performed) / n
		counts.hits = float64(tr.to.pool.MemoHits-tr.from.pool.MemoHits) / n
		counts.misses = float64(tr.to.pool.MemoMisses-tr.from.pool.MemoMisses) / n
	}
	out["transport.msgs_per_txn"] = counts.msgs
	out["transport.wire_bytes_per_txn"] = counts.wireBytes
	out["transport.out_queue_depth_p99"] = histWindow{tr.from.outQ, tr.to.outQ}.quantile(0.99)
	ts := tr.tracer.TransportStats()
	out["transport.send_drops"] = float64(ts.SendDrops)
	out["transport.reconnects"] = float64(ts.Reconnects)
	out["transport.frame_rejects"] = float64(ts.FrameRejects)
	out["vpool.batch_size_mean"] = histWindow{tr.from.batch, tr.to.batch}.mean()
	out["vpool.lane_depth_p99"] = histWindow{tr.from.laneQ, tr.to.laneQ}.quantile(0.99)
	out["crypto.sign_per_txn.pbft"] = counts.sign
	out["crypto.verify_per_txn.pbft"] = counts.verify
	out["crypto.mac_per_txn"] = counts.mac + counts.macVerify
	out["core.view_changes"] = float64(tr.rec.viewChanges)
	out["harness.submit_us"] = tr.submitUS
	out["failed_share"] = float64(res.Failed) / float64(res.Attempted)

	spans := buildSpans(tr.rec, tcpF, tr.done)
	perMsg := 0.0
	if counts.msgs > 0 {
		mean := counts.wireBytes / counts.msgs
		perMsg = micro.perMsg(mean, "transport.encode_small_us", "transport.encode_4k_us") +
			micro.perMsg(mean, "transport.decode_small_us", "transport.decode_4k_us")
	}
	deriveLayers(layerInputs{
		micro: micro.unit, txns: round.completed, wall: round.window, cpuMS: pt.cpuMS,
		timing: tr.timing.totals(0), rec: tr.rec, counts: counts, spans: spans,
		stateBytes: float64(keyspace * (spec.valueSize + len("k0000"))), replicas: tcpN,
		interval: core.DefaultConfig(tcpN).CheckpointInterval,
	}, perMsg, out)

	if tr.rec.viewChanges > 0 {
		res.note("%d view changes on a fault-free TCP run", tr.rec.viewChanges)
	}
	res.note("traced window: %d txns, %.0f req/s (untraced reference %.0f req/s)",
		round.completed, pt.rps, ref.cost.perTxn(ref.completed).rps)
	res.finishTraced(out)
	tf := traceFile{Workload: spec.name, Seed: seed, Clock: "wall", Metrics: out, Notes: res.notes, Requests: spans.traces}
	return res, writeJSON("trace-"+spec.name+".json", tf)
}

// simPass is one deterministic pass of a simulator workload: every leg
// of the sweep, or the failover schedule.
type simPass struct {
	pass
	legs      []simLeg
	attempted int
	failed    int
	notes     []string
}

func runSimPass(name string, seed int64, traced bool) simPass {
	var sp simPass
	if name == "sim-failover" {
		sp.legs = []simLeg{runFailover(seed, traced)}
	} else {
		for _, p := range sweepProtos {
			sp.legs = append(sp.legs, runSweepLeg(p, seed, traced))
		}
	}
	for _, leg := range sp.legs {
		sp.setup += leg.setup
		sp.cost.add(leg.cost)
		sp.completed += len(leg.done)
		if leg.liveHeap > sp.liveHeap {
			sp.liveHeap = leg.liveHeap
		}
		sp.latencies = append(sp.latencies, latenciesMS(leg.done)...)
		sp.attempted += leg.attempted
		sp.failed += leg.failed
		sp.notes = append(sp.notes, leg.notes...)
		sp.notes = append(sp.notes, fmt.Sprintf("%s: %d txns in %.2fs of wall, set-up %.2fs",
			leg.proto, len(leg.done), leg.cost.wall.Seconds(), leg.setup.Seconds()))
	}
	return sp
}

// exactDiff names the first simulated quantity in which two passes of
// the same seed differ, or returns "".
func (a simPass) exactDiff(b simPass) string {
	for i := range a.legs {
		la, lb := a.legs[i], b.legs[i]
		if la.counts != lb.counts {
			return la.proto + " counts"
		}
		if len(la.done) != len(lb.done) {
			return la.proto + " completions"
		}
		for k := range la.done {
			if la.done[k] != lb.done[k] {
				return la.proto + " completion times"
			}
		}
	}
	return ""
}

// traceSim is the traced run of a simulator workload: the micro-suite,
// one untraced reference pass, one traced pass.
func traceSim(name string, seed int64) (*result, error) {
	res := &result{Correct: true}
	micro, err := runMicro(seed)
	if err != nil {
		return res, err
	}
	out := maps.Clone(micro.unit)

	ref := runSimPass(name, seed, false)
	res.absorb(ref.attempted, ref.failed, ref.notes)
	sp := runSimPass(name, seed, true)
	res.absorb(sp.attempted, sp.failed, sp.notes)
	if diff := ref.exactDiff(sp); diff != "" {
		res.Correct = false
		res.note("traced pass differs from the untraced pass in %s: tracing changed the simulated run", diff)
	}
	pt := sp.cost.perTxn(sp.completed)
	refPT := ref.cost.perTxn(ref.completed)
	if refPT.rps > 0 {
		out["trace.overhead_share"] = 1 - pt.rps/refPT.rps
	}
	// The untraced reference pass is this workload measured as the
	// end-to-end run measures it.
	out["sim_txn_per_wall_s"] = refPT.rps
	out["failed_share"] = float64(res.Failed) / float64(res.Attempted)

	var total simCounts
	var timing timingTotals
	var spans spanSummary
	var rec *recorder
	views := 0
	hops := make(map[string]int)
	for _, leg := range sp.legs {
		n := float64(len(leg.done))
		if n == 0 {
			continue
		}
		total.add(leg.counts)
		out["crypto.sign_per_txn."+leg.proto] = float64(leg.counts.sign) / n
		out["crypto.verify_per_txn."+leg.proto] = float64(leg.counts.verify) / n
		out["sim.msgs_per_txn."+leg.proto] = float64(leg.counts.msgs) / n
		out["sim.bytes_per_txn."+leg.proto] = float64(leg.counts.bytes) / n
		out["protocols.virt_p50_ms."+leg.proto] = percentile(sortedCopy(latenciesMS(leg.done)), 50)
		timing.add(leg.timing)
		ls := buildSpans(leg.rec, leg.f, leg.done)
		spans.orderMS = append(spans.orderMS, ls.orderMS...)
		spans.replyMS = append(spans.replyMS, ls.replyMS...)
		spans.traces = append(spans.traces, ls.traces...)
		// Hotstuff's pacemaker advances a view per block by design; those
		// are not failures and are reported apart.
		if leg.proto == "hotstuff" {
			res.note("hotstuff pacemaker views: %d", leg.views)
		} else {
			views += leg.views
		}
		if rec == nil || leg.rec.lagMax > rec.lagMax {
			rec = leg.rec
		}
		if name == "sim-sweep" {
			hops[leg.proto] = sweepHops(leg.proto, seed)
		}
	}
	n := float64(sp.completed)
	counts := opCounts{}
	if n > 0 {
		counts = opCounts{
			msgs: float64(total.msgs) / n, wireBytes: float64(total.bytes) / n,
			sign: float64(total.sign) / n, verify: float64(total.verify) / n,
			mac: float64(total.mac) / n, macVerify: float64(total.macVerify) / n,
			performed: float64(total.performed) / n, hits: float64(total.memoHits) / n,
			misses: float64(total.memoMisses) / n,
		}
		out["sim.events_per_txn"] = float64(total.events) / n
	}
	out["crypto.mac_per_txn"] = counts.mac + counts.macVerify
	out["core.view_changes"] = float64(views)
	if name == "sim-failover" {
		leg := sp.legs[0]
		out["failover_ms"] = ms(largestGap(leg.done))
		out["missed_limit_share"] = missedShare(leg.done, leg.attempted, latencyLimit)
	}

	perMsg := 0.0
	if counts.msgs > 0 {
		perMsg = micro.perMsg(counts.wireBytes/counts.msgs, "obsv.sizeof_small_us", "obsv.sizeof_4k_us")
	}
	replicas := sp.legs[0].replicas
	deriveLayers(layerInputs{
		micro: micro.unit, txns: sp.completed, wall: sp.cost.wall, cpuMS: pt.cpuMS,
		timing: timing, rec: rec, counts: counts, spans: spans, verifyInline: true,
		stateBytes: float64(keyspace * (16 + len("c0-k0000"))), replicas: replicas,
		interval: core.DefaultConfig(replicas).CheckpointInterval,
	}, perMsg, out)

	res.note("traced pass: %d txns, %.0f txn/s of wall (untraced reference %.0f)", sp.completed, pt.rps, refPT.rps)
	res.finishTraced(out)
	tf := traceFile{Workload: name, Seed: seed, Clock: "virtual", Metrics: out, Hops: hops, Notes: res.notes, Requests: spans.traces}
	return res, writeJSON("trace-"+name+".json", tf)
}

// finishTraced publishes the per-layer metrics.
func (r *result) finishTraced(vals map[string]float64) {
	if r.Failed > 0 || r.Attempted == 0 {
		r.Correct = false
	}
	r.fill(perLayer, vals, false)
}
