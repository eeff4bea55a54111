// Package transport runs replicas and clients over real TCP connections —
// the "easy local multi-node" deployment path. It implements core.Driver:
// every inbound message and timer callback is funneled through a single
// event loop per node, so protocol code keeps the same single-threaded
// contract it has on the simulator.
//
// Wire format: length-prefixed frames carrying gob-encoded envelopes on
// persistent connections (frame.go bounds every envelope before the
// decoder touches it). All protocol message types are registered in
// wire.go.
//
// Delivery contract: lossy, like the simulator's adversarial networks.
// Send never blocks the caller — envelopes are queued per peer and
// drained by a background sender that dials off the hot path with
// jittered exponential backoff. A full queue, an unreachable peer, or a
// connection that dies mid-write all drop messages; the protocols are
// built for exactly that (retransmission timers, view changes). What the
// transport does guarantee: a send to one peer never stalls behind
// another peer's dial, FIFO order per peer on an established connection,
// and that a hostile or corrupt stream costs its connection, never the
// node.
package transport

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"time"

	"bftkit/internal/obsv"
	"bftkit/internal/types"
)

// Envelope frames one message on the wire. From is not authenticated at
// this layer — the crypto authority authenticates message *contents*;
// the untrusted network is assumed to spoof, drop, and replay at will.
// This node never sends a nil Msg, and one arriving from the network is
// skipped: nothing acts on it.
type Envelope struct {
	From types.NodeID
	Msg  types.Message
}

// Handler receives delivered messages (core.Replica and core.Client
// satisfy it).
type Handler interface {
	Deliver(from types.NodeID, m types.Message)
}

// DefaultQueueCap bounds each peer's outbound queue; overflow drops the
// oldest queued envelope (the newest traffic is what keeps a protocol
// live — old messages are superseded by retransmissions).
const DefaultQueueCap = 4096

// dialTimeout bounds one TCP connection attempt. It runs on the peer's
// sender goroutine, never on a caller of Send.
const dialTimeout = 2 * time.Second

// Reconnect backoff: base doubles per consecutive failure up to the cap,
// with ±50% jitter so a restarted replica isn't hammered in lockstep.
const (
	backoffBase = 25 * time.Millisecond
	backoffMax  = 2 * time.Second
)

// Node is one TCP participant: it listens for peers, keeps one outbound
// queue per peer, and serializes all protocol activity through its event
// loop.
//
// One socket per direction: a node writes to a peer whose address is in
// its table only on the connection it dialed, and reads every connection
// it holds. Two replicas therefore share two sockets, each written by
// its dialer alone, so neither side ever has to pick between duplicates
// and no socket with unread frames is closed to settle one. A peer with
// no address in the table (a client) cannot be dialed; the connection it
// dialed is adopted as the way back to it and carries both directions.
type Node struct {
	id    types.NodeID
	peers map[types.NodeID]string
	seed  int64
	start time.Time
	rng   *rand.Rand

	maxFrame int
	queueCap int

	events  chan func()
	handler Handler
	tracer  *obsv.Tracer
	prepare func(from types.NodeID, m types.Message)

	// dial is swappable so tests can make dials hang or fail
	// deterministically without touching the kernel.
	dial func(addr string, timeout time.Duration) (net.Conn, error)

	mu      sync.Mutex
	peerSt  map[types.NodeID]*peer
	open    map[*wireConn]struct{}
	nextGen uint64

	// stopMu serializes goroutine starts against Stop: a tracked
	// goroutine may only start while stopped is false, so wg.Add never
	// races wg.Wait.
	stopMu  sync.RWMutex
	stopped bool

	listener net.Listener
	done     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// wireConn is one live socket: a framed gob stream and the identity
// bookkeeping the connection manager needs. gen rises monotonically per
// node, so a stale failure can never evict the replacement connection
// that superseded it.
type wireConn struct {
	c   net.Conn
	gen uint64

	// peer/hasPeer bind the conn to the peer lane that writes on it: set
	// for a dialed conn and for an adopted client conn, never for a conn
	// accepted from a peer this node dials itself. Written only by the
	// goroutine that installs the conn, before it is published.
	peer    types.NodeID
	hasPeer bool

	// lane is the conn's inbound-verify lane, made by its read loop on
	// the first envelope that arrives: a dialed replica socket is only
	// ever written, so it never gets one. Guarded by Node.mu.
	lane chan laneItem

	mu      sync.Mutex // serializes writes: enc, buf and scratch are per-socket state
	enc     *gob.Encoder
	buf     bytes.Buffer
	scratch []byte
}

// peer is one outbound lane: the queue Send appends to, the connection
// the sender writes on (nil while disconnected), and the sender
// bookkeeping.
type peer struct {
	id   types.NodeID
	addr string // "" for adopted-only peers (clients are not in the table)
	rng  *rand.Rand

	mu        sync.Mutex
	queue     []*Envelope
	cur       *wireConn
	running   bool // a sender goroutine is draining the queue
	dialFails int  // consecutive failures, drives backoff
	connected bool // a connection has existed at some point (dial vs reconnect)
}

// NewNode creates a node addressed by id with a static peer table
// (id → "host:port" for every participant, including this one).
func NewNode(id types.NodeID, peers map[types.NodeID]string, seed int64) *Node {
	return &Node{
		id:       id,
		peers:    peers,
		seed:     seed,
		start:    time.Now(),
		rng:      rand.New(rand.NewSource(seed ^ int64(id))),
		maxFrame: DefaultMaxFrame,
		queueCap: DefaultQueueCap,
		events:   make(chan func(), 4096),
		peerSt:   make(map[types.NodeID]*peer),
		open:     make(map[*wireConn]struct{}),
		dial: func(addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		},
		done: make(chan struct{}),
	}
}

// SetHandler installs the delivery target (must be set before Start).
func (n *Node) SetHandler(h Handler) { n.handler = h }

// SetTracer attaches the observability sink: every send and delivery is
// reported with the actual wire bytes that crossed the socket. Pass nil
// to detach. Must be set before Start.
func (n *Node) SetTracer(t *obsv.Tracer) { n.tracer = t }

// SetInboundPrepare installs an async inbound stage: fn runs for every
// inbound protocol envelope on a per-connection lane goroutine, off the
// event loop, before the envelope is enqueued for delivery. The
// verification engine uses it to batch-verify a message's signature
// claims while the event loop processes earlier traffic. Ordering
// guarantees are unchanged — one lane per connection preserves the
// per-peer FIFO the protocols rely on, and delivery still happens on the
// event loop. fn must be concurrency-safe (lanes run in parallel) and
// must not block indefinitely. Pass nil for the default synchronous
// path. Must be set before Start.
func (n *Node) SetInboundPrepare(fn func(from types.NodeID, m types.Message)) { n.prepare = fn }

// laneCap bounds one connection's inbound-verify lane. A full lane
// applies backpressure to that connection's read loop only — exactly the
// per-conn isolation the rest of the transport maintains.
const laneCap = 1024

// laneItem is one prepared-and-forwarded inbound message.
type laneItem struct {
	from types.NodeID
	msg  types.Message
}

// startLane makes wc's inbound lane and starts the goroutine draining it.
// Returns nil when the node is already stopping.
func (n *Node) startLane(wc *wireConn) chan laneItem {
	lane := make(chan laneItem, laneCap)
	if !n.goTracked(func() { n.runLane(lane) }) {
		return nil
	}
	n.mu.Lock()
	wc.lane = lane
	n.mu.Unlock()
	return lane
}

// runLane drains one connection's inbound lane: prepare, then hand to
// the event loop. Exits when the owning read loop closes the lane (after
// draining it) or the node stops.
func (n *Node) runLane(lane chan laneItem) {
	for it := range lane {
		n.prepare(it.from, it.msg)
		from, msg := it.from, it.msg
		select {
		case n.events <- func() { n.handler.Deliver(from, msg) }:
			n.tracer.ObserveQueueDepth(len(n.events))
		case <-n.done:
			return
		}
	}
}

// SetMaxFrame bounds one envelope on the wire (default DefaultMaxFrame).
// Inbound frames over the bound cost the connection; outbound envelopes
// over it are dropped. Must be set before Start and match across the
// deployment.
func (n *Node) SetMaxFrame(bytes int) {
	if bytes > 0 {
		n.maxFrame = bytes
	}
}

// SetQueueCap bounds each peer's outbound queue (default
// DefaultQueueCap). Must be set before Start.
func (n *Node) SetQueueCap(msgs int) {
	if msgs > 0 {
		n.queueCap = msgs
	}
}

// Start listens on the node's own address and runs the event loop until
// Stop. It returns once the listener is ready.
func (n *Node) Start() error {
	addr, ok := n.peers[n.id]
	if !ok {
		return fmt.Errorf("transport: no address for self (%v)", n.id)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	n.listener = ln
	n.goTracked(n.acceptLoop)
	n.goTracked(n.eventLoop)
	return nil
}

// Stop shuts the node down: no new goroutines start, the listener and
// every live connection close (unblocking reads and in-flight writes),
// and Stop waits for every sender, read loop, and the event loop to
// exit. Safe to call more than once.
func (n *Node) Stop() {
	n.stopOnce.Do(func() {
		n.stopMu.Lock()
		n.stopped = true
		n.stopMu.Unlock()
		close(n.done)
		if n.listener != nil {
			n.listener.Close()
		}
		n.mu.Lock()
		conns := make([]*wireConn, 0, len(n.open))
		for wc := range n.open {
			conns = append(conns, wc)
		}
		n.mu.Unlock()
		for _, wc := range conns {
			wc.c.Close()
		}
		n.wg.Wait()
	})
}

// goTracked starts fn under the WaitGroup unless the node is stopping.
func (n *Node) goTracked(fn func()) bool {
	n.stopMu.RLock()
	defer n.stopMu.RUnlock()
	if n.stopped {
		return false
	}
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		fn()
	}()
	return true
}

func (n *Node) stopping() bool {
	select {
	case <-n.done:
		return true
	default:
		return false
	}
}

// sleep waits d or until Stop, reporting whether the full wait elapsed.
func (n *Node) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-n.done:
		return false
	}
}

func (n *Node) eventLoop() {
	for {
		select {
		case fn := <-n.events:
			fn()
		case <-n.done:
			return
		}
	}
}

func (n *Node) acceptLoop() {
	for {
		conn, err := n.listener.Accept()
		if err != nil {
			// A failure that outlives one call (EMFILE, a listener closed
			// under the node) must not spin; sleep returns false on Stop.
			if !n.sleep(backoffBase) {
				return
			}
			continue
		}
		wc := n.newWireConn(conn)
		if wc == nil || !n.goTracked(func() { n.readLoop(wc) }) {
			conn.Close()
			return
		}
	}
}

// newWireConn wraps a socket in a framed gob stream and tracks it for
// Stop. Returns nil when the node is already stopping.
func (n *Node) newWireConn(c net.Conn) *wireConn {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.nextGen++
	wc := &wireConn{c: c, gen: n.nextGen}
	wc.enc = gob.NewEncoder(&wc.buf)
	if n.stoppedLocked() {
		return nil
	}
	n.open[wc] = struct{}{}
	return wc
}

// stoppedLocked reads the stop flag without the stopMu (n.mu held; the
// only writer of stopped also closes every conn after taking n.mu, so a
// conn registered here is either seen by Stop or its creator sees
// stopped — never neither).
func (n *Node) stoppedLocked() bool {
	select {
	case <-n.done:
		return true
	default:
		return false
	}
}

func (n *Node) removeOpen(wc *wireConn) {
	n.mu.Lock()
	delete(n.open, wc)
	n.mu.Unlock()
}

// writeEnvelope encodes env into one length-prefixed frame and writes it
// out, returning the frame's wire size (header + payload). An envelope
// that encodes past max poisons the stream (the encoder's descriptor
// state now references types the peer never saw), so the caller must
// recycle the connection on any error.
func (wc *wireConn) writeEnvelope(env *Envelope, max int) (int, error) {
	wc.mu.Lock()
	defer wc.mu.Unlock()
	wc.buf.Reset()
	if err := wc.enc.Encode(env); err != nil {
		return 0, err
	}
	payload := wc.buf.Bytes()
	if len(payload) > max {
		return 0, frameSizeError{declared: uint32(len(payload)), max: max}
	}
	need := frameHeaderLen + len(payload)
	if cap(wc.scratch) < need {
		wc.scratch = make([]byte, need)
	}
	frame := wc.scratch[:need]
	binary.BigEndian.PutUint32(frame[:frameHeaderLen], uint32(len(payload)))
	copy(frame[frameHeaderLen:], payload)
	_, err := wc.c.Write(frame)
	return need, err
}

// readLoop drains one connection: framed envelopes are decoded under the
// frame bound and handed to the event loop. Any error — disconnect,
// oversized frame, garbage — closes and detaches the connection; the
// node itself never dies with it.
func (n *Node) readLoop(wc *wireConn) {
	defer n.detachConn(wc)
	fr := newFrameReader(wc.c, n.maxFrame)
	dec := gob.NewDecoder(fr)
	identified := wc.hasPeer // a dialed conn is bound before it is read
	var lane chan laneItem
	// Closing the lane when this read loop exits lets the lane drain what
	// it already accepted, then stop — no goroutine leak, no dropped
	// prepared messages.
	defer func() {
		if lane != nil {
			close(lane)
		}
	}()
	for {
		if err := fr.next(); err != nil {
			if isFrameViolation(err) {
				n.tracer.TransportEvent(obsv.TransportFrameReject)
			}
			return
		}
		var env Envelope
		if err := dec.Decode(&env); err != nil {
			// A frame that does not decode as exactly one envelope is
			// hostile or corrupt; the stream cannot be trusted further.
			n.tracer.TransportEvent(obsv.TransportFrameReject)
			return
		}
		if fr.remaining() != 0 {
			n.tracer.TransportEvent(obsv.TransportFrameReject)
			return
		}
		if env.Msg == nil {
			continue // empty envelope: ignored, see Envelope
		}
		from, msg := env.From, env.Msg
		if !identified {
			identified = true
			if _, dialable := n.peers[from]; !dialable {
				// A client is not in the peer table, so replies must flow
				// back over the connection its request arrived on.
				n.adopt(from, wc)
			}
		}
		n.tracer.MsgDelivered(n.Now(), from, n.id, msg, fr.size())
		if n.prepare != nil {
			// Async path: the lane goroutine prepares (pre-verifies) and
			// forwards, keeping this connection's FIFO; a full lane blocks
			// only this read loop.
			if lane == nil {
				if lane = n.startLane(wc); lane == nil {
					return
				}
			}
			select {
			case lane <- laneItem{from: from, msg: msg}:
				n.tracer.ObserveVerifyQueueDepth(len(lane))
			case <-n.done:
				return
			}
			continue
		}
		select {
		case n.events <- func() { n.handler.Deliver(from, msg) }:
			n.tracer.ObserveQueueDepth(len(n.events))
		case <-n.done:
			return
		}
	}
}

// adopt installs an accepted connection as the write path to peer id,
// which this node cannot dial. A newer connection replaces an older one:
// the peer dialed it because it had given up on the old socket. Called
// by the conn's own read loop on its first message.
func (n *Node) adopt(id types.NodeID, wc *wireConn) {
	wc.peer = id
	wc.hasPeer = true
	p := n.ensurePeer(id)
	p.mu.Lock()
	if old := p.cur; old != nil {
		old.c.Close() // its read loop detaches it; p.cur already moved on
	}
	p.cur = wc
	n.startSenderLocked(p)
	p.mu.Unlock()
}

// detachConn runs when a read loop exits: the socket closes, and if the
// conn was a peer's write path it is unlinked — generation identity, not
// peer ID, decides, so a replacement installed in the meantime is never
// evicted by its predecessor's death. A conn accepted from a peer this
// node dials itself was only ever read, so nothing else changes.
func (n *Node) detachConn(wc *wireConn) {
	wc.c.Close()
	n.removeOpen(wc)
	if !wc.hasPeer {
		return
	}
	p := n.lookupPeer(wc.peer)
	if p == nil {
		return
	}
	p.mu.Lock()
	if p.cur != nil && p.cur.gen == wc.gen {
		p.cur = nil
		n.tracer.TransportEvent(obsv.TransportConnDrop)
		if p.addr == "" {
			// Replies queued for a vanished client are undeliverable and
			// would only go stale; the client retransmits on reconnect.
			for range p.queue {
				n.tracer.TransportEvent(obsv.TransportSendDrop)
			}
			p.queue = nil
		} else {
			n.startSenderLocked(p) // pending sends trigger the redial
		}
	}
	p.mu.Unlock()
}

// lookupPeer returns the peer lane if one exists.
func (n *Node) lookupPeer(id types.NodeID) *peer {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.peerSt[id]
}

// ensurePeer returns the peer lane, creating it on first contact.
func (n *Node) ensurePeer(id types.NodeID) *peer {
	n.mu.Lock()
	defer n.mu.Unlock()
	p := n.peerSt[id]
	if p == nil {
		p = &peer{
			id:   id,
			addr: n.peers[id],
			rng:  rand.New(rand.NewSource(n.seed ^ int64(n.id)<<20 ^ int64(id))),
		}
		n.peerSt[id] = p
	}
	return p
}

// startSenderLocked launches the peer's sender if there is work it can
// make progress on. Caller holds p.mu.
func (n *Node) startSenderLocked(p *peer) {
	if p.running || len(p.queue) == 0 {
		return
	}
	if p.cur == nil && p.addr == "" {
		return // adopted-only peer with no live conn: nothing to drain into
	}
	p.running = true
	if !n.goTracked(func() { n.runSender(p) }) {
		p.running = false
	}
}

// runSender drains one peer's queue: it dials (with backoff) when
// disconnected and an address is known, writes queued envelopes FIFO,
// and exits when the queue is empty or no progress is possible — Send
// and adopt restart it on new work.
func (n *Node) runSender(p *peer) {
	for {
		p.mu.Lock()
		if n.stopping() || len(p.queue) == 0 || (p.cur == nil && p.addr == "") {
			p.running = false
			p.mu.Unlock()
			return
		}
		wc := p.cur
		var env *Envelope
		if wc != nil {
			env = p.queue[0]
			p.queue[0] = nil
			p.queue = p.queue[1:]
		}
		p.mu.Unlock()

		if wc == nil {
			n.dialPeer(p)
			continue
		}
		size, err := wc.writeEnvelope(env, n.maxFrame)
		if err != nil {
			// The envelope is lost (lossy contract) and the stream is
			// unusable; recycle the connection and let the loop redial.
			n.dropConn(p, wc.gen)
			wc.c.Close()
			n.tracer.TransportEvent(obsv.TransportSendDrop)
			if isFrameViolation(err) {
				n.tracer.TransportEvent(obsv.TransportFrameReject)
			}
			continue
		}
		n.tracer.MsgSent(n.Now(), env.From, p.id, env.Msg, size)
	}
}

// dialPeer attempts one connection to p off the hot path, sleeping the
// jittered backoff on failure. Only p's sender calls it, and only while
// p has no connection, so a successful dial installs unconditionally.
func (n *Node) dialPeer(p *peer) {
	c, err := n.dial(p.addr, dialTimeout)
	if err != nil {
		n.tracer.TransportEvent(obsv.TransportDialFail)
		p.mu.Lock()
		p.dialFails++
		d := backoffDelay(p.rng, p.dialFails)
		p.mu.Unlock()
		n.sleep(d)
		return
	}
	wc := n.newWireConn(c)
	if wc == nil {
		c.Close()
		return
	}
	wc.peer = p.id
	wc.hasPeer = true
	p.mu.Lock()
	p.cur = wc
	p.dialFails = 0
	reconnect := p.connected
	p.connected = true
	p.mu.Unlock()
	if reconnect {
		n.tracer.TransportEvent(obsv.TransportReconnect)
	} else {
		n.tracer.TransportEvent(obsv.TransportDial)
	}
	// Only a replica answering a client writes back on this socket (a
	// replica peer answers on its own dial), but reading is also how a
	// dead socket is noticed.
	if !n.goTracked(func() { n.readLoop(wc) }) {
		wc.c.Close()
	}
}

// dropConn unlinks the peer's current connection only if it still is
// gen — a failing send can never evict the newer replacement that a
// reconnect installed while the failure was in flight.
func (n *Node) dropConn(p *peer, gen uint64) {
	p.mu.Lock()
	if p.cur != nil && p.cur.gen == gen {
		p.cur = nil
		n.tracer.TransportEvent(obsv.TransportConnDrop)
	}
	p.mu.Unlock()
}

// backoffDelay is the jittered exponential reconnect delay after `fails`
// consecutive dial failures: base·2^(fails−1) capped at backoffMax, then
// spread over [0.5×, 1.5×) so peers don't redial in lockstep.
func backoffDelay(rng *rand.Rand, fails int) time.Duration {
	d := backoffBase
	for i := 1; i < fails && d < backoffMax; i++ {
		d *= 2
	}
	if d > backoffMax {
		d = backoffMax
	}
	return d/2 + time.Duration(rng.Int63n(int64(d)))
}

// Do runs fn on the event loop, serialized with message delivery and
// timer callbacks. Replica and client state is single-threaded by
// design (the simulator guarantees it; this loop recreates the
// guarantee over TCP), so any external goroutine — a client main, a
// test — must reach the handler through here, never by calling it
// directly.
func (n *Node) Do(fn func()) {
	select {
	case n.events <- fn:
	case <-n.done:
	}
}

// --- core.Driver ---

// Now implements core.Driver (elapsed wall-clock time).
func (n *Node) Now() time.Duration { return time.Since(n.start) }

// Rand implements core.Driver.
func (n *Node) Rand() *rand.Rand { return n.rng }

// After implements core.Driver: the callback is serialized through the
// event loop like every other event.
func (n *Node) After(d time.Duration, fn func()) func() {
	t := time.AfterFunc(d, func() {
		select {
		case n.events <- fn:
		case <-n.done:
		}
	})
	return func() { t.Stop() }
}

// Send implements core.Driver: best-effort delivery over a persistent
// connection. It never blocks and never dials — the envelope joins the
// peer's queue and the sender drains it, so one unreachable peer cannot
// head-of-line-block traffic to the others. Messages are dropped when
// the peer is unknown, the queue overflows, or the connection dies
// mid-write; the network is allowed to be lossy and the protocols are
// built for that.
func (n *Node) Send(from, to types.NodeID, m types.Message) {
	if n.stopping() {
		return
	}
	if to == n.id {
		// Local loopback: no socket, but the same event-loop delivery and
		// accounting (sized as the wire would have sized it).
		size := obsv.SizeOf(m) + frameHeaderLen
		n.tracer.MsgSent(n.Now(), from, to, m, size)
		n.tracer.MsgDelivered(n.Now(), from, to, m, size)
		select {
		case n.events <- func() { n.handler.Deliver(from, m) }:
		case <-n.done:
		}
		return
	}
	p := n.lookupPeer(to)
	if p == nil {
		if _, ok := n.peers[to]; !ok {
			// Unknown peer with no adopted connection: undeliverable.
			n.tracer.TransportEvent(obsv.TransportSendDrop)
			return
		}
		p = n.ensurePeer(to)
	}
	env := &Envelope{From: from, Msg: m}
	p.mu.Lock()
	if p.cur == nil && p.addr == "" {
		// The adopted connection this peer arrived on is gone and there
		// is no address to redial; queuing would only hold stale replies.
		p.mu.Unlock()
		n.tracer.TransportEvent(obsv.TransportSendDrop)
		return
	}
	if len(p.queue) >= n.queueCap {
		p.queue[0] = nil
		p.queue = p.queue[1:]
		n.tracer.TransportEvent(obsv.TransportSendDrop)
	}
	p.queue = append(p.queue, env)
	n.tracer.ObserveOutQueueDepth(len(p.queue))
	n.startSenderLocked(p)
	p.mu.Unlock()
}

// ParsePeers parses "0=host:port,1=host:port,..." into a peer table.
// Empty entries are skipped; an id may appear once and must not be
// negative.
func ParsePeers(s string) (map[types.NodeID]string, error) {
	peers := make(map[types.NodeID]string)
	for _, part := range strings.Split(s, ",") {
		if part == "" {
			continue
		}
		var id int
		var addr string
		if _, err := fmt.Sscanf(part, "%d=%s", &id, &addr); err != nil {
			return nil, fmt.Errorf("bad peer entry %q (want id=host:port)", part)
		}
		if id < 0 {
			return nil, fmt.Errorf("bad peer entry %q (negative id)", part)
		}
		if _, dup := peers[types.NodeID(id)]; dup {
			return nil, fmt.Errorf("bad peer entry %q (id %d appears twice)", part, id)
		}
		peers[types.NodeID(id)] = addr
	}
	if len(peers) == 0 {
		return nil, fmt.Errorf("empty peer table")
	}
	return peers, nil
}
