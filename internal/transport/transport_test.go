package transport_test

import (
	"encoding/binary"
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"bftkit/internal/core"
	"bftkit/internal/crypto"
	"bftkit/internal/kvstore"
	"bftkit/internal/obsv"
	"bftkit/internal/transport"
	"bftkit/internal/types"
)

func freePorts(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	return addrs
}

func TestPBFTOverTCP(t *testing.T) {
	reg, ok := core.Lookup("pbft")
	if !ok {
		t.Fatal("pbft not registered")
	}
	addrs := freePorts(t, 5)
	// Replicas only know each other; the client is NOT in their peer
	// table — replies must flow back over the adopted inbound
	// connections, exactly as in a real deployment.
	replicaPeers := make(map[types.NodeID]string)
	for i := 0; i < 4; i++ {
		replicaPeers[types.NodeID(i)] = addrs[i]
	}
	clientID := types.ClientIDBase
	clientPeers := make(map[types.NodeID]string)
	for id, a := range replicaPeers {
		clientPeers[id] = a
	}
	clientPeers[clientID] = addrs[4]

	cfg := core.DefaultConfig(4)
	cfg.Scheme = reg.Profile.AuthOrdering
	auth := crypto.NewAuthority(1)

	var nodes []*transport.Node
	for i := 0; i < 4; i++ {
		id := types.NodeID(i)
		node := transport.NewNode(id, replicaPeers, 1)
		rep := core.NewReplica(id, cfg, node, reg.NewReplica(cfg), kvstore.New(), auth, core.Hooks{})
		node.SetHandler(rep)
		if err := node.Start(); err != nil {
			t.Fatal(err)
		}
		node.Do(rep.Start)
		nodes = append(nodes, node)
	}
	defer func() {
		for _, n := range nodes {
			n.Stop()
		}
	}()

	clientNode := transport.NewNode(clientID, clientPeers, 1)
	done := make(chan []byte, 16)
	client := core.NewClient(clientID, cfg, clientNode, reg.ClientFor(cfg), auth, core.ClientHooks{
		OnDone: func(_ types.NodeID, _ *types.Request, result []byte, _ time.Duration) {
			done <- result
		},
	})
	clientNode.SetHandler(client)
	if err := clientNode.Start(); err != nil {
		t.Fatal(err)
	}
	defer clientNode.Stop()
	clientNode.Do(client.Start)

	for i := 1; i <= 10; i++ {
		op := kvstore.Put(fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("v%d", i)))
		req := &types.Request{ClientSeq: uint64(i), Op: op}
		clientNode.Do(func() { client.Submit(req) })
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("request %d timed out over TCP", i)
		}
	}
}

func TestParsePeers(t *testing.T) {
	peers, err := transport.ParsePeers("0=host-a:7000,1=:7001,2=10.0.0.2:7002")
	if err != nil {
		t.Fatal(err)
	}
	if len(peers) != 3 || peers[0] != "host-a:7000" || peers[1] != ":7001" || peers[2] != "10.0.0.2:7002" {
		t.Fatalf("parsed %v", peers)
	}
	for _, bad := range []string{"", ",", "x=1", "0", "0:7000", "0=a:1,0=b:2", "-1=a:1"} {
		if _, err := transport.ParsePeers(bad); err == nil {
			t.Fatalf("accepted %q", bad)
		}
	}
}

func TestNodeTimers(t *testing.T) {
	addrs := freePorts(t, 1)
	node := transport.NewNode(0, map[types.NodeID]string{0: addrs[0]}, 1)
	node.SetHandler(transportNopHandler{})
	if err := node.Start(); err != nil {
		t.Fatal(err)
	}
	defer node.Stop()
	fired := make(chan struct{}, 2)
	node.After(10*time.Millisecond, func() { fired <- struct{}{} })
	cancel := node.After(10*time.Millisecond, func() { fired <- struct{}{} })
	cancel()
	select {
	case <-fired:
	case <-time.After(2 * time.Second):
		t.Fatal("timer never fired")
	}
	select {
	case <-fired:
		t.Fatal("cancelled timer fired")
	case <-time.After(100 * time.Millisecond):
	}
}

type transportNopHandler struct{}

func (transportNopHandler) Deliver(types.NodeID, types.Message) {}

// countingHandler counts deliveries and signals each one.
type countingHandler struct {
	mu sync.Mutex
	n  int
	ch chan struct{}
}

func newCountingHandler() *countingHandler { return &countingHandler{ch: make(chan struct{}, 1024)} }

func (h *countingHandler) Deliver(types.NodeID, types.Message) {
	h.mu.Lock()
	h.n++
	h.mu.Unlock()
	select {
	case h.ch <- struct{}{}:
	default:
	}
}

func (h *countingHandler) count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.n
}

func ping(seq uint64) types.Message {
	return &core.RequestMsg{Req: &types.Request{Client: types.ClientIDBase, ClientSeq: seq, Op: []byte("ping")}}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool, why string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", why)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// startPair boots two nodes and exchanges one message each way so both
// directions are connected.
func startPair(t *testing.T) (a, b *transport.Node, ah, bh *countingHandler) {
	t.Helper()
	addrs := freePorts(t, 2)
	peers := map[types.NodeID]string{0: addrs[0], 1: addrs[1]}
	ah, bh = newCountingHandler(), newCountingHandler()
	a = transport.NewNode(0, peers, 1)
	a.SetHandler(ah)
	b = transport.NewNode(1, peers, 2)
	b.SetHandler(bh)
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	if err := b.Start(); err != nil {
		a.Stop()
		t.Fatal(err)
	}
	a.Send(0, 1, ping(1))
	b.Send(1, 0, ping(2))
	waitFor(t, 5*time.Second, func() bool { return ah.count() >= 1 && bh.count() >= 1 }, "initial exchange")
	return a, b, ah, bh
}

// TestStopDrainsGoroutines pins satellite fix (2): Stop closes every
// live connection and waits for read loops, senders, the accept loop,
// and the event loop to exit — no goroutine survives the node.
func TestStopDrainsGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	a, b, _, bh := startPair(t)
	// Put real traffic through so read loops and senders exist.
	for i := uint64(10); i < 20; i++ {
		a.Send(0, 1, ping(i))
	}
	waitFor(t, 5*time.Second, func() bool { return bh.count() >= 11 }, "burst delivery")
	if runtime.NumGoroutine() <= before {
		t.Fatalf("expected live transport goroutines before Stop")
	}
	a.Stop()
	b.Stop()
	a.Stop() // Stop is idempotent
	waitFor(t, 5*time.Second, func() bool {
		runtime.GC() // nudge finalizer-held goroutines, if any
		return runtime.NumGoroutine() <= before+2
	}, fmt.Sprintf("goroutines to drain back to ~%d", before))
}

// TestNilTracerOperation pins the nil-tracer path: a node with no tracer
// (and one explicitly detached via SetTracer(nil)) sends and delivers
// without touching observability.
func TestNilTracerOperation(t *testing.T) {
	addrs := freePorts(t, 2)
	peers := map[types.NodeID]string{0: addrs[0], 1: addrs[1]}
	a := transport.NewNode(0, peers, 1)
	ah := newCountingHandler()
	a.SetHandler(ah)
	a.SetTracer(nil) // explicit detach must behave like never-attached
	b := transport.NewNode(1, peers, 2)
	bh := newCountingHandler()
	b.SetHandler(bh)
	// b never calls SetTracer at all.
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	defer a.Stop()
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	defer b.Stop()
	for i := uint64(1); i <= 5; i++ {
		a.Send(0, 1, ping(10+i))
		b.Send(1, 0, ping(100+i))
	}
	waitFor(t, 5*time.Second, func() bool { return ah.count() >= 5 && bh.count() >= 5 }, "nil-tracer delivery")
}

// dialRaw connects a bare TCP client to addr.
func dialRaw(t *testing.T, addr string) net.Conn {
	t.Helper()
	c, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// expectConnClosed asserts the far end closes c within the deadline.
func expectConnClosed(t *testing.T, c net.Conn, why string) {
	t.Helper()
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 64)
	for {
		if _, err := c.Read(buf); err != nil {
			return // closed (EOF or RST): the node rejected the stream
		}
		_ = why
	}
}

// TestHostileFramesCostOnlyTheConnection pins the framing defense: a
// connection feeding oversized or garbage frames is dropped, the frame
// rejection is counted, and the node keeps serving well-formed peers.
func TestHostileFramesCostOnlyTheConnection(t *testing.T) {
	addrs := freePorts(t, 2)
	peers := map[types.NodeID]string{0: addrs[0], 1: addrs[1]}
	tracer := obsv.New(obsv.Options{})
	node := transport.NewNode(0, peers, 1)
	h := newCountingHandler()
	node.SetHandler(h)
	node.SetTracer(tracer)
	if err := node.Start(); err != nil {
		t.Fatal(err)
	}
	defer node.Stop()

	// Oversized frame: a declared length far past the bound, no payload.
	over := dialRaw(t, addrs[0])
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(transport.DefaultMaxFrame+1))
	if _, err := over.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	expectConnClosed(t, over, "oversized frame")
	over.Close()

	// Garbage frame: plausible length, bytes that are not an envelope.
	garbage := dialRaw(t, addrs[0])
	binary.BigEndian.PutUint32(hdr[:], 8)
	payload := append(hdr[:], 0xde, 0xad, 0xbe, 0xef, 0xde, 0xad, 0xbe, 0xef)
	if _, err := garbage.Write(payload); err != nil {
		t.Fatal(err)
	}
	expectConnClosed(t, garbage, "garbage frame")
	garbage.Close()

	// Zero-length frame: also a contract violation.
	zero := dialRaw(t, addrs[0])
	binary.BigEndian.PutUint32(hdr[:], 0)
	if _, err := zero.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	expectConnClosed(t, zero, "zero-length frame")
	zero.Close()

	waitFor(t, 5*time.Second, func() bool { return tracer.TransportStats().FrameRejects >= 3 },
		"frame rejections to be counted")

	// The node is alive: a well-formed peer still gets through.
	b := transport.NewNode(1, peers, 2)
	b.SetHandler(newCountingHandler())
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	defer b.Stop()
	b.Send(1, 0, ping(1))
	waitFor(t, 5*time.Second, func() bool { return h.count() >= 1 }, "post-attack delivery")
}

// TestOversizedOutboundDropped: an envelope that encodes past the frame
// bound is dropped locally (and recycles the poisoned stream) instead of
// being shipped for the peer to reject; smaller traffic keeps flowing.
func TestOversizedOutboundDropped(t *testing.T) {
	addrs := freePorts(t, 2)
	peers := map[types.NodeID]string{0: addrs[0], 1: addrs[1]}
	tracer := obsv.New(obsv.Options{})
	a := transport.NewNode(0, peers, 1)
	a.SetHandler(newCountingHandler())
	a.SetTracer(tracer)
	a.SetMaxFrame(4096)
	b := transport.NewNode(1, peers, 2)
	bh := newCountingHandler()
	b.SetHandler(bh)
	b.SetMaxFrame(4096)
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	defer a.Stop()
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	defer b.Stop()

	a.Send(0, 1, ping(1))
	waitFor(t, 5*time.Second, func() bool { return bh.count() == 1 }, "small message before")

	big := &core.RequestMsg{Req: &types.Request{Client: types.ClientIDBase, ClientSeq: 2, Op: make([]byte, 64<<10)}}
	a.Send(0, 1, big)
	waitFor(t, 5*time.Second, func() bool { return tracer.TransportStats().FrameRejects >= 1 },
		"outbound oversize to be rejected")

	a.Send(0, 1, ping(3))
	waitFor(t, 5*time.Second, func() bool { return bh.count() >= 2 }, "small message after reconnect")
	if got := bh.count(); got != 2 {
		t.Fatalf("peer saw %d messages, want exactly 2 (oversized envelope must not arrive)", got)
	}
}
