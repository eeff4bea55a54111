package transport

// White-box tests for the connection manager: dial isolation (no
// head-of-line blocking), generation-checked drops racing reconnects,
// lossless first contact, wire-size accounting and the accept loop's
// pause. They run in-package so they can swap the dial function and the
// listener and poke peer lanes directly.

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"bftkit/internal/core"
	"bftkit/internal/obsv"
	"bftkit/internal/types"
)

func newTestRand() *rand.Rand { return rand.New(rand.NewSource(7)) }

// collectHandler records deliveries with their senders and signals each
// one.
type collectHandler struct {
	mu   sync.Mutex
	msgs []types.Message
	from []types.NodeID
	ch   chan struct{}
}

func newCollectHandler() *collectHandler {
	return &collectHandler{ch: make(chan struct{}, 1024)}
}

func (h *collectHandler) Deliver(from types.NodeID, m types.Message) {
	h.mu.Lock()
	h.msgs = append(h.msgs, m)
	h.from = append(h.from, from)
	h.mu.Unlock()
	h.ch <- struct{}{}
}

func (h *collectHandler) count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.msgs)
}

// seqsFrom lists, in arrival order, the ClientSeq of every testMsg that
// arrived from one sender.
func (h *collectHandler) seqsFrom(from types.NodeID) []uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	var seqs []uint64
	for i, m := range h.msgs {
		if h.from[i] == from {
			seqs = append(seqs, m.(*core.RequestMsg).Req.ClientSeq)
		}
	}
	return seqs
}

// testAddrs reserves n distinct loopback addresses; the listeners stay
// open until all are taken so the kernel cannot hand one out twice.
func testAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		addrs[i] = ln.Addr().String()
	}
	return addrs
}

func testMsg(seq uint64) types.Message {
	return &core.RequestMsg{Req: &types.Request{Client: types.ClientIDBase, ClientSeq: seq, Op: []byte("x")}}
}

// TestNoHeadOfLineBlockingThroughDial pins the tentpole fix: a send to a
// reachable peer completes promptly even while another peer's dial
// hangs. Under the old synchronous dial-under-lock design, the hanging
// dial held the node-wide mutex and every send on the node stalled
// behind it.
func TestNoHeadOfLineBlockingThroughDial(t *testing.T) {
	addrs := testAddrs(t, 3)
	peers := map[types.NodeID]string{0: addrs[0], 1: addrs[1], 2: addrs[2]}

	b := NewNode(1, peers, 1)
	bh := newCollectHandler()
	b.SetHandler(bh)
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	defer b.Stop()

	a := NewNode(0, peers, 1)
	a.SetHandler(newCollectHandler())
	realDial := a.dial
	dialHold := make(chan struct{})
	a.dial = func(addr string, timeout time.Duration) (net.Conn, error) {
		if addr == addrs[2] {
			// Peer 2 is "unreachable through a black hole": the dial hangs
			// until the test ends, like a SYN into a dropped route.
			<-dialHold
			return nil, fmt.Errorf("unreachable")
		}
		return realDial(addr, timeout)
	}
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	defer a.Stop()
	defer close(dialHold)

	// Get the hanging dial in flight first.
	a.Send(0, 2, testMsg(1))
	time.Sleep(20 * time.Millisecond)

	start := time.Now()
	for i := uint64(2); i <= 11; i++ {
		a.Send(0, 1, testMsg(i))
	}
	deadline := time.After(2 * time.Second)
	for bh.count() < 10 {
		select {
		case <-bh.ch:
		case <-deadline:
			t.Fatalf("only %d/10 messages reached the reachable peer while peer 2's dial hung", bh.count())
		}
	}
	if elapsed := time.Since(start); elapsed > 1500*time.Millisecond {
		t.Fatalf("sends to reachable peer took %v with another peer's dial hanging", elapsed)
	}
}

// pipeWireConn builds a wireConn over an in-memory pipe, draining the
// far end so writes never block.
func pipeWireConn(n *Node) *wireConn {
	c1, c2 := net.Pipe()
	go func() {
		buf := make([]byte, 4096)
		for {
			if _, err := c2.Read(buf); err != nil {
				return
			}
		}
	}()
	return n.newWireConn(c1)
}

// TestDropConnStaleGeneration pins satellite fix (3): a failing send's
// dropConn carries the generation it failed on, and must not evict a
// newer replacement connection installed by a reconnect in the meantime.
func TestDropConnStaleGeneration(t *testing.T) {
	addrs := testAddrs(t, 2)
	n := NewNode(0, map[types.NodeID]string{0: addrs[0], 1: addrs[1]}, 1)
	n.SetHandler(newCollectHandler())
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	defer n.Stop()

	p := n.ensurePeer(1)
	wc1 := pipeWireConn(n)
	p.mu.Lock()
	p.cur = wc1
	p.mu.Unlock()

	// Reconnect installs a replacement before the old conn's failure is
	// processed.
	wc2 := pipeWireConn(n)
	p.mu.Lock()
	p.cur = wc2
	p.mu.Unlock()

	n.dropConn(p, wc1.gen) // stale failure arrives late
	p.mu.Lock()
	cur := p.cur
	p.mu.Unlock()
	if cur != wc2 {
		t.Fatalf("stale dropConn evicted the replacement: cur=%v want gen %d", cur, wc2.gen)
	}
	n.dropConn(p, wc2.gen) // current failure must still work
	p.mu.Lock()
	cur = p.cur
	p.mu.Unlock()
	if cur != nil {
		t.Fatalf("dropConn with the live generation did not clear the conn")
	}
}

// TestDropConnReconnectRace races stale drops against installs under the
// race detector: whatever the interleaving, a drop tagged with an old
// generation never kills a newer connection.
func TestDropConnReconnectRace(t *testing.T) {
	addrs := testAddrs(t, 2)
	n := NewNode(0, map[types.NodeID]string{0: addrs[0], 1: addrs[1]}, 1)
	n.SetHandler(newCollectHandler())
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	defer n.Stop()

	p := n.ensurePeer(1)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Dropper: repeatedly fails "sends" on whatever conn it last saw.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			p.mu.Lock()
			var gen uint64
			if p.cur != nil {
				gen = p.cur.gen
			}
			p.mu.Unlock()
			if gen != 0 {
				n.dropConn(p, gen-1) // always stale by construction
			}
		}
	}()
	// Reconnector: installs ever-newer conns.
	var last *wireConn
	for i := 0; i < 200; i++ {
		wc := pipeWireConn(n)
		p.mu.Lock()
		p.cur = wc
		p.mu.Unlock()
		last = wc
	}
	close(stop)
	wg.Wait()
	p.mu.Lock()
	cur := p.cur
	p.mu.Unlock()
	if cur != last {
		t.Fatalf("a stale drop evicted the newest connection (cur gen %v, want %v)", cur, last.gen)
	}
}

// TestFirstContactLosesNothing: four nodes with no connection between
// them each send a numbered burst to every other node in the same
// instant, so every pair dials both ways at once. Every message must
// arrive, in order per sender, and no connection may be given up to get
// there. Then a node is replaced by a fresh one on the same address and
// traffic must resume both ways.
func TestFirstContactLosesNothing(t *testing.T) {
	const nodes, burst = 4, 20
	addrs := testAddrs(t, nodes)
	peers := make(map[types.NodeID]string)
	for i, a := range addrs {
		peers[types.NodeID(i)] = a
	}
	tracer := obsv.New(obsv.Options{})
	ns := make([]*Node, nodes)
	hs := make([]*collectHandler, nodes)
	boot := func(i int) {
		ns[i] = NewNode(types.NodeID(i), peers, int64(i+1))
		hs[i] = newCollectHandler()
		ns[i].SetHandler(hs[i])
		ns[i].SetTracer(tracer)
		if err := ns[i].Start(); err != nil {
			t.Fatal(err)
		}
	}
	for i := range ns {
		boot(i)
		defer func(i int) { ns[i].Stop() }(i)
	}

	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := range ns {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			for seq := uint64(1); seq <= burst; seq++ {
				for j := range ns {
					if j != i {
						ns[i].Send(types.NodeID(i), types.NodeID(j), testMsg(seq))
					}
				}
			}
		}(i)
	}
	close(start)
	wg.Wait()

	const want = (nodes - 1) * burst
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		got := 0
		for _, h := range hs {
			got += h.count()
		}
		if got == nodes*want {
			break
		}
	}
	for j, h := range hs {
		if got := h.count(); got != want {
			t.Errorf("node %d got %d of %d messages", j, got, want)
		}
		for i := range ns {
			if i == j {
				continue
			}
			for k, seq := range h.seqsFrom(types.NodeID(i)) {
				if seq != uint64(k+1) {
					t.Errorf("node %d: message %d from node %d carries seq %d", j, k+1, i, seq)
					break
				}
			}
		}
	}
	if ts := tracer.TransportStats(); ts.ConnDrops != 0 || ts.SendDrops != 0 {
		t.Errorf("first contact cost %d connections and %d sends (stats %+v)", ts.ConnDrops, ts.SendDrops, ts)
	}
	if t.Failed() {
		return
	}

	// A fresh node 3 has no connection and no memory of one; its peers
	// still hold sockets to the old one. Delivery is lossy across the
	// switch, so both directions resend until a message gets through.
	ns[3].Stop()
	boot(3)
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		ns[0].Send(0, 3, testMsg(burst+1))
		ns[3].Send(3, 0, testMsg(burst+1))
		if hs[3].count() > 0 && hs[0].count() > want {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("after node 3 was replaced: 0→3 delivered %d, 3→0 delivered %d",
				hs[3].count(), hs[0].count()-want)
		}
	}
}

// TestTracedBytesAreFrameSizes: the size a tracer is told for a message
// is the frame's header plus its gob payload, the same number on the
// sending and on the receiving end — the first frame of a type carries
// gob's descriptors, the second is the steady state.
func TestTracedBytesAreFrameSizes(t *testing.T) {
	addrs := testAddrs(t, 2)
	peers := map[types.NodeID]string{0: addrs[0], 1: addrs[1]}
	tracers := make([]*obsv.Tracer, 2)
	ns := make([]*Node, 2)
	bh := newCollectHandler()
	for i := range ns {
		tracers[i] = obsv.New(obsv.Options{Events: true})
		ns[i] = NewNode(types.NodeID(i), peers, 1)
		ns[i].SetHandler(bh)
		ns[i].SetTracer(tracers[i])
		if err := ns[i].Start(); err != nil {
			t.Fatal(err)
		}
		defer ns[i].Stop()
	}

	var payload bytes.Buffer
	enc := gob.NewEncoder(&payload)
	var want []int
	for seq := uint64(1); seq <= 2; seq++ {
		payload.Reset()
		if err := enc.Encode(&Envelope{From: 0, Msg: testMsg(seq)}); err != nil {
			t.Fatal(err)
		}
		want = append(want, frameHeaderLen+payload.Len())
		ns[0].Send(0, 1, testMsg(seq))
	}
	for deadline := time.Now().Add(5 * time.Second); bh.count() < len(want); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d messages delivered", bh.count(), len(want))
		}
	}
	for end, typ := range []obsv.EventType{obsv.EvSend, obsv.EvDeliver} {
		var got []int
		for _, e := range tracers[end].Events() {
			if e.Type == typ {
				got = append(got, e.Bytes)
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("node %d traced %v bytes for %v events, want %v", end, got, typ, want)
		}
	}
}

// failingListener fails every Accept at once, as a listener does once
// the process is out of descriptors.
type failingListener struct {
	mu    sync.Mutex
	calls int
}

func (l *failingListener) Accept() (net.Conn, error) {
	l.mu.Lock()
	l.calls++
	l.mu.Unlock()
	return nil, errors.New("accept: too many open files")
}
func (l *failingListener) Close() error   { return nil }
func (l *failingListener) Addr() net.Addr { return &net.TCPAddr{} }

// TestAcceptLoopPausesOnPersistentError: an Accept that keeps failing
// while the node runs is retried at backoffBase, not in a spin, and
// does not keep Stop from returning.
func TestAcceptLoopPausesOnPersistentError(t *testing.T) {
	n := NewNode(0, map[types.NodeID]string{0: "unused"}, 1)
	ln := &failingListener{}
	n.listener = ln
	n.goTracked(n.acceptLoop)
	time.Sleep(200 * time.Millisecond)
	ln.mu.Lock()
	calls := ln.calls
	ln.mu.Unlock()
	if calls > 10 {
		t.Errorf("%d Accept calls in 200ms", calls)
	}
	stopped := make(chan struct{})
	go func() { n.Stop(); close(stopped) }()
	select {
	case <-stopped:
	case <-time.After(2 * time.Second):
		t.Fatal("Stop did not return while Accept kept failing")
	}
}

// TestBackoffDelayShape pins the reconnect backoff: exponential from
// base to cap, jittered within [0.5d, 1.5d).
func TestBackoffDelayShape(t *testing.T) {
	rng := newTestRand()
	for fails := 1; fails <= 12; fails++ {
		want := backoffBase
		for i := 1; i < fails && want < backoffMax; i++ {
			want *= 2
		}
		if want > backoffMax {
			want = backoffMax
		}
		for i := 0; i < 50; i++ {
			d := backoffDelay(rng, fails)
			if d < want/2 || d >= want+want/2 {
				t.Fatalf("fails=%d: delay %v outside [%v, %v)", fails, d, want/2, want+want/2)
			}
		}
	}
}

// TestVerifyLanesAreLazy: an inbound-verify lane (a 1024-slot channel and
// a goroutine) belongs to a connection that has received something. After
// four replicas exchange one message per direction every node holds three
// sockets it dialed, which it only writes, and three it accepted, which
// it only reads: the lanes are on the accepted three. Stop still joins
// them.
func TestVerifyLanesAreLazy(t *testing.T) {
	const nodes = 4
	addrs := testAddrs(t, nodes)
	peers := make(map[types.NodeID]string)
	for i, a := range addrs {
		peers[types.NodeID(i)] = a
	}
	ns := make([]*Node, nodes)
	hs := make([]*collectHandler, nodes)
	for i := range ns {
		ns[i] = NewNode(types.NodeID(i), peers, int64(i+1))
		hs[i] = newCollectHandler()
		ns[i].SetHandler(hs[i])
		ns[i].SetInboundPrepare(func(types.NodeID, types.Message) {})
		if err := ns[i].Start(); err != nil {
			t.Fatal(err)
		}
		defer ns[i].Stop()
	}
	for i := range ns {
		for j := range ns {
			if j != i {
				ns[i].Send(types.NodeID(i), types.NodeID(j), testMsg(1))
			}
		}
	}
	deadline := time.After(10 * time.Second)
	for _, h := range hs {
		for got := 0; got < nodes-1; got++ {
			select {
			case <-h.ch:
			case <-deadline:
				t.Fatal("timed out waiting for the exchange")
			}
		}
	}
	for i, n := range ns {
		n.mu.Lock()
		dialed, accepted := 0, 0
		for wc := range n.open {
			switch {
			case wc.hasPeer:
				dialed++
				if wc.lane != nil {
					t.Errorf("node %d: the socket dialed to %v has a lane though nothing arrives on it", i, wc.peer)
				}
			default:
				accepted++
				if wc.lane == nil {
					t.Errorf("node %d: an accepted socket delivered a message without a lane", i)
				}
			}
		}
		n.mu.Unlock()
		if dialed != nodes-1 || accepted != nodes-1 {
			t.Errorf("node %d holds %d dialed and %d accepted sockets, want %d of each", i, dialed, accepted, nodes-1)
		}
	}
	stopped := make(chan struct{})
	go func() {
		for _, n := range ns {
			n.Stop()
		}
		close(stopped)
	}()
	select {
	case <-stopped:
	case <-time.After(10 * time.Second):
		t.Fatal("Stop did not return with lazy lanes in place")
	}
}
