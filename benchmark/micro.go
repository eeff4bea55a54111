package main

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math/rand"
	"net"
	"time"

	"bftkit/internal/crypto"
	"bftkit/internal/crypto/vpool"
	"bftkit/internal/kvstore"
	"bftkit/internal/ledger"
	"bftkit/internal/obsv"
	"bftkit/internal/protocols/pbft"
	"bftkit/internal/sim"
	"bftkit/internal/transport"
	"bftkit/internal/types"
)

// The micro-suite times each layer's public functions in isolation, on
// inputs built from the seed, on one goroutine. Its unit costs are what
// the traced pass multiplies counts by; a layer optimisation should move
// its unit cost here first and an end-to-end metric second.

const (
	microBatches  = 5
	microCalls    = 2000
	microBatchCap = 12 * time.Millisecond
)

// measure returns the median cost in nanoseconds of one call: the
// median over microBatches batches of the batch mean. run(n) performs n
// calls and returns the time they took. A batch is microCalls calls, cut
// short for slow functions so the whole suite stays within a few
// seconds.
func measure(run func(n int) time.Duration) float64 {
	first := run(1) // warms caches and sizes the batch
	n := microCalls
	if first > 0 {
		if fit := int(microBatchCap / first); fit < n {
			n = fit
		}
	}
	if n < 1 {
		n = 1
	}
	per := make([]float64, microBatches)
	for i := range per {
		per[i] = float64(run(n)) / float64(n)
	}
	return median(per)
}

// loop adapts a plain function to measure's batch form.
func loop(fn func()) func(n int) time.Duration {
	return func(n int) time.Duration {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		return time.Since(t0)
	}
}

// sink keeps the compiler from discarding measured calls.
var sink any

// microInputs are the seeded values the suite operates on.
type microInputs struct {
	rng      *rand.Rand
	small    []byte // 16 B value
	big      []byte // 4 KiB value
	reqSmall *types.Request
	reqBig   *types.Request
	msgSmall types.Message // a signed PREPARE: the commonest small frame
	msgBig   types.Message // a PRE-PREPARE carrying one 4 KiB request
}

func newMicroInputs(seed int64) *microInputs {
	in := &microInputs{rng: rand.New(rand.NewSource(seed))}
	in.small = make([]byte, 16)
	in.big = make([]byte, 4096)
	in.rng.Read(in.small)
	in.rng.Read(in.big)
	auth := crypto.NewAuthority(seed)
	mkReq := func(v []byte) *types.Request {
		r := &types.Request{Client: types.ClientIDBase, ClientSeq: uint64(in.rng.Int63()), Op: kvstore.Put("k0001", v)}
		r.Sig = auth.Signer(r.Client).Sign(r.Digest())
		return r
	}
	in.reqSmall, in.reqBig = mkReq(in.small), mkReq(in.big)
	prep := &pbft.PrepareMsg{View: 0, Seq: 7, Digest: in.reqSmall.Digest(), Replica: 1}
	prep.Sig = auth.Signer(1).Sign(prep.SigDigest())
	in.msgSmall = prep
	pp := &pbft.PrePrepareMsg{View: 0, Seq: 7, Batch: types.NewBatch(in.reqBig)}
	pp.Digest = pp.Batch.Digest()
	pp.Sig = auth.Signer(0).Sign(pp.SigDigest())
	in.msgBig = pp
	return in
}

// microCosts is the suite's result: unit costs by metric name, and the
// accounted sizes of the two frames the per-message costs were taken on.
type microCosts struct {
	unit                 map[string]float64
	smallBytes, bigBytes float64
}

// perMsg is the cost of one message of size bytes, on the line through
// the small and the 4 KiB frame's costs, never below the small one.
func (m microCosts) perMsg(bytes float64, small, big string) float64 {
	lo, hi := m.unit[small], m.unit[big]
	if m.bigBytes <= m.smallBytes || bytes <= m.smallBytes {
		return lo
	}
	return lo + (hi-lo)*(bytes-m.smallBytes)/(m.bigBytes-m.smallBytes)
}

// runMicro runs the whole suite.
func runMicro(seed int64) (microCosts, error) {
	in := newMicroInputs(seed)
	out := make(map[string]float64)
	microTypes(in, out)
	microCrypto(seed, in, out)
	microCodec(in, out)
	microSim(in, out)
	microObsv(in, out)
	microLedger(in, out)
	microKV(in, out)
	err := microTransport(seed, in, out)
	return microCosts{unit: out, smallBytes: float64(obsv.SizeOf(in.msgSmall)), bigBytes: float64(obsv.SizeOf(in.msgBig))}, err
}

func microTypes(in *microInputs, out map[string]float64) {
	out["types.request_digest_16_us"] = measure(loop(func() { sink = in.reqSmall.Digest() })) / 1e3
	out["types.request_digest_4k_us"] = measure(loop(func() { sink = in.reqBig.Digest() })) / 1e3
	reqs := make([]*types.Request, 16)
	for i := range reqs {
		r := *in.reqSmall
		r.ClientSeq = uint64(i + 1)
		reqs[i] = &r
	}
	batch := types.NewBatch(reqs...)
	out["types.batch_digest_16x16_us"] = measure(loop(func() { sink = batch.Digest() })) / 1e3
}

func microCrypto(seed int64, in *microInputs, out map[string]float64) {
	d := in.reqSmall.Digest()
	cold := crypto.NewAuthority(seed) // no engine: every verify is Ed25519 math
	signer := cold.Signer(0)
	sig := signer.Sign(d)
	out["crypto.sign_us"] = measure(loop(func() { sink = signer.Sign(d) })) / 1e3
	v := cold.VerifierFor(1)
	out["crypto.verify_cold_us"] = measure(loop(func() { sink = v.VerifySig(0, d, sig) })) / 1e3

	warm := crypto.NewAuthority(seed)
	warm.SetEngine(vpool.New(warm, vpool.Options{Cache: vpool.DefaultCache}))
	wv := warm.VerifierFor(1)
	wv.VerifySig(0, d, sig) // fill the memo
	out["crypto.verify_memo_us"] = measure(loop(func() { sink = wv.VerifySig(0, d, sig) })) / 1e3

	peers := []types.NodeID{0, 1, 2, 3}
	out["crypto.mac_vector4_us"] = measure(loop(func() { sink = signer.AuthVector(d, peers) })) / 1e3
	mac := signer.MAC(1, d)
	out["crypto.mac_verify_us"] = measure(loop(func() { sink = v.VerifyMAC(0, 1, d, mac) })) / 1e3

	cert := &crypto.Certificate{Digest: d}
	for id := types.NodeID(0); id < 3; id++ {
		cert.Add(id, cold.Signer(id).Sign(d))
	}
	out["crypto.cert_verify_q3_us"] = measure(loop(func() { sink = cert.Verify(v, 3) })) / 1e3

	// The pool with the memo off, so every batch is real work spread over
	// the two workers the TCP workloads run with.
	pooled := crypto.NewAuthority(seed)
	eng := vpool.New(pooled, vpool.Options{Workers: tcpVerifyWorkers})
	defer eng.Stop()
	claims := make([]crypto.SigClaim, 64)
	for i := range claims {
		var dd types.Digest
		in.rng.Read(dd[:])
		id := types.NodeID(i % 4)
		claims[i] = crypto.SigClaim{Signer: id, Digest: dd, Sig: pooled.Signer(id).Sign(dd)}
	}
	out["vpool.batch64_us_per_sig"] = measure(loop(func() { eng.VerifyBatch(claims) })) / 1e3 / float64(len(claims))
}

// microCodec times gob on a persistent stream, as wireConn.writeEnvelope
// and the read loop use it: type descriptors cross once, then each
// Encode/Decode is payload only.
func microCodec(in *microInputs, out map[string]float64) {
	for _, c := range []struct {
		name string
		msg  types.Message
	}{{"small", in.msgSmall}, {"4k", in.msgBig}} {
		env := &transport.Envelope{From: 1, Msg: c.msg}
		var buf bytes.Buffer
		enc := gob.NewEncoder(&buf)
		enc.Encode(env) // descriptors
		out["transport.encode_"+c.name+"_us"] = measure(loop(func() {
			buf.Reset()
			enc.Encode(env)
		})) / 1e3
		out["transport.decode_"+c.name+"_us"] = measure(func(n int) time.Duration {
			var stream bytes.Buffer
			e := gob.NewEncoder(&stream)
			for i := 0; i <= n; i++ {
				e.Encode(env)
			}
			dec := gob.NewDecoder(&stream)
			var first transport.Envelope
			dec.Decode(&first) // descriptors
			t0 := time.Now()
			for i := 0; i < n; i++ {
				var got transport.Envelope
				dec.Decode(&got)
			}
			return time.Since(t0)
		}) / 1e3
	}
}

func microSim(in *microInputs, out map[string]float64) {
	sched := sim.NewScheduler(1)
	noop := func() {}
	out["sim.sched_event_ns"] = measure(loop(func() {
		sched.After(0, noop)
		sched.Step()
	}))
	net := sim.NewNetwork(sched, sim.DefaultLAN())
	h := sim.HandlerFunc(func(types.NodeID, types.Message) {})
	net.Register(0, h)
	net.Register(1, h)
	out["sim.net_msg_us"] = measure(loop(func() {
		net.Send(0, 1, in.msgSmall)
		sched.Step()
	})) / 1e3
}

func microObsv(in *microInputs, out map[string]float64) {
	out["obsv.sizeof_small_us"] = measure(loop(func() { sink = obsv.SizeOf(in.msgSmall) })) / 1e3
	out["obsv.sizeof_4k_us"] = measure(loop(func() { sink = obsv.SizeOf(in.msgBig) })) / 1e3
	tr := obsv.New(obsv.Options{})
	out["obsv.msg_event_ns"] = measure(loop(func() {
		tr.MsgSent(0, 0, 1, in.msgSmall, 200)
		tr.MsgDelivered(0, 0, 1, in.msgSmall, 200)
	}))
}

func microLedger(in *microInputs, out map[string]float64) {
	batch := types.NewBatch(in.reqSmall)
	led := ledger.New()
	seq := types.SeqNum(0)
	out["ledger.commit_execute_us"] = measure(loop(func() {
		seq++
		led.Commit(&ledger.Entry{Seq: seq, Batch: batch})
		sink = led.NextExecutable()
		led.MarkExecuted(seq)
	})) / 1e3
	out["ledger.set_stable_128_us"] = measure(func(n int) time.Duration {
		l := ledger.New()
		s := types.SeqNum(0)
		var total time.Duration
		for i := 0; i < n; i++ {
			for k := 0; k < 128; k++ {
				s++
				l.Commit(&ledger.Entry{Seq: s, Batch: batch})
				l.MarkExecuted(s)
			}
			t0 := time.Now()
			l.SetStable(&ledger.Checkpoint{Seq: s})
			total += time.Since(t0)
		}
		return total
	}) / 1e3
}

func microKV(in *microInputs, out map[string]float64) {
	keys := make([]string, keyspace)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%04d", i)
	}
	encode := func(mk func(key string) []byte) [][]byte {
		ops := make([][]byte, keyspace)
		for i, k := range keys {
			ops[i] = mk(k)
		}
		return ops
	}
	cycle := func(s *kvstore.Store, ops [][]byte) func() {
		i := 0
		return func() {
			sink = s.Apply(ops[i%len(ops)])
			i++
		}
	}
	smallStore := kvstore.New()
	out["kvstore.put_16_us"] = measure(loop(cycle(smallStore, encode(func(k string) []byte { return kvstore.Put(k, in.small) })))) / 1e3

	// 1024 keys × 4 KiB: the 4 MiB state tcp-bulk-mac checkpoints.
	bigStore := kvstore.New()
	puts := encode(func(k string) []byte { return kvstore.Put(k, in.big) })
	for _, p := range puts {
		bigStore.Apply(p)
	}
	out["kvstore.put_4k_us"] = measure(loop(cycle(bigStore, puts))) / 1e3
	out["kvstore.get_4k_us"] = measure(loop(cycle(bigStore, encode(kvstore.Get)))) / 1e3
	out["kvstore.hash_4mb_ms"] = measure(loop(func() { sink = bigStore.Hash() })) / 1e6
	out["kvstore.snapshot_4mb_ms"] = measure(loop(func() { sink = bigStore.Snapshot() })) / 1e6
	out["kvstore.spec_rollback_us"] = measure(loop(func() {
		bigStore.SpecApply(puts[0])
		bigStore.Rollback(0)
	})) / 1e3
}

// echoHandler is one end of the two-node transport rig: it counts
// deliveries and, when pong is set, answers each one.
type echoHandler struct {
	node *transport.Node
	self types.NodeID
	peer types.NodeID
	pong bool
	got  chan struct{}
}

func (h *echoHandler) Deliver(_ types.NodeID, m types.Message) {
	if h.pong {
		h.node.Send(h.self, h.peer, m)
		return
	}
	h.got <- struct{}{}
}

// microTransport times two real transport.Nodes on loopback: streamed
// one-way cost per message, and a ping-pong round trip — the floor under
// every hop of tcp-closed1.
func microTransport(seed int64, in *microInputs, out map[string]float64) error {
	addrs := make(map[types.NodeID]string, 2)
	for id := types.NodeID(0); id < 2; id++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fmt.Errorf("micro transport: %w", err)
		}
		addrs[id] = ln.Addr().String()
		ln.Close()
	}
	a := transport.NewNode(0, addrs, seed)
	b := transport.NewNode(1, addrs, seed)
	// got is sized to a full batch so the receiving event loop never
	// blocks on the measuring goroutine.
	ha := &echoHandler{node: a, self: 0, peer: 1, got: make(chan struct{}, microCalls+1)}
	hb := &echoHandler{node: b, self: 1, peer: 0, got: make(chan struct{}, microCalls+1)}
	a.SetHandler(ha)
	b.SetHandler(hb)
	for _, n := range []*transport.Node{a, b} {
		if err := n.Start(); err != nil {
			a.Stop()
			b.Stop()
			return fmt.Errorf("micro transport: %w", err)
		}
	}
	defer a.Stop()
	defer b.Stop()

	var lost error
	wait := func(ch chan struct{}) {
		select {
		case <-ch:
		case <-time.After(5 * time.Second):
			lost = fmt.Errorf("micro transport: message not delivered within 5s")
		}
	}
	stream := func(m types.Message) func(n int) time.Duration {
		return func(n int) time.Duration {
			t0 := time.Now()
			for i := 0; i < n; i++ {
				a.Send(0, 1, m)
			}
			for i := 0; i < n && lost == nil; i++ {
				wait(hb.got)
			}
			return time.Since(t0)
		}
	}
	out["transport.oneway_small_us"] = measure(stream(in.msgSmall)) / 1e3
	out["transport.oneway_4k_us"] = measure(stream(in.msgBig)) / 1e3

	// Ping-pong: b answers, a counts the answers. Switching roles happens
	// on b's event loop so it is ordered with deliveries.
	b.Do(func() { hb.pong = true })
	out["transport.rtt_small_us"] = measure(func(n int) time.Duration {
		t0 := time.Now()
		for i := 0; i < n && lost == nil; i++ {
			a.Send(0, 1, in.msgSmall)
			wait(ha.got)
		}
		return time.Since(t0)
	}) / 1e3
	return lost
}
