// Package obsv is the observability backbone of the harness: a structured
// trace-event bus plus per-protocol-phase accounting threaded through the
// replica runtime (core.Hooks) and both network substrates (internal/sim
// and internal/transport), so every protocol is measured for free.
//
// The paper's design-space claims (P1–P6, DC1–DC14) are statements about
// messages × n and phases × delay; this package turns them into measured
// numbers: typed events (send/deliver/phase-enter/commit/execute/
// view-change/timer) stamped with virtual time, node, view, sequence and
// message kind; per-node per-phase counters for messages, wire bytes, and
// cryptographic operations; and lightweight histograms for commit latency
// and network queue depth. Exporters (export.go) render a JSON trace
// dump, CSV summary tables, and the human-readable per-phase breakdown
// behind cmd/bftbench's -trace/-stats flags.
//
// A nil *Tracer is valid everywhere and turns every method into a cheap
// nil check, so instrumented code pays near-zero cost when observability
// is disabled (bench_test.go pins this).
package obsv

import (
	"runtime"
	"sort"
	"sync"
	"time"

	"bftkit/internal/crypto"
	"bftkit/internal/types"
)

// EventType enumerates the trace event kinds.
type EventType uint8

// Trace event kinds, in rough lifecycle order.
const (
	EvSend EventType = iota
	EvDeliver
	EvPhaseEnter
	EvCommit
	EvExecute
	EvViewChange
	EvTimer
	// EvSubmit and EvDone bracket one client request's lifetime: the
	// harness emits them at submission and at verified completion, giving
	// span reconstruction exact request boundaries even for protocols
	// whose clients never send a REQUEST message (Q/U's proposer client).
	EvSubmit
	EvDone
)

var eventNames = [...]string{
	EvSend:       "send",
	EvDeliver:    "deliver",
	EvPhaseEnter: "phase-enter",
	EvCommit:     "commit",
	EvExecute:    "execute",
	EvViewChange: "view-change",
	EvTimer:      "timer",
	EvSubmit:     "submit",
	EvDone:       "done",
}

// String returns the stable lowercase event name used in exports.
func (t EventType) String() string {
	if int(t) < len(eventNames) {
		return eventNames[t]
	}
	return "unknown"
}

// Event is one observation on the bus. Fields that do not apply to a
// given event type are zero (e.g. Peer/Bytes on a commit).
type Event struct {
	At    time.Duration
	Type  EventType
	Node  types.NodeID
	Peer  types.NodeID
	View  types.View
	Seq   types.SeqNum
	Kind  string // message kind, timer name, or phase
	Phase string
	Bytes int
	// Client/ClientSeq identify the request a message is about, when the
	// message exposes it (Keyed). Together with View/Seq they are the
	// causal coordinates span reconstruction correlates on.
	Client    types.NodeID
	ClientSeq uint64
}

// RequestKey returns the event's request coordinates.
func (e *Event) RequestKey() types.RequestKey {
	return types.RequestKey{Client: e.Client, ClientSeq: e.ClientSeq}
}

// HasRequest reports whether the event carries request coordinates.
func (e *Event) HasRequest() bool { return e.Client != 0 }

// Slotted lets a protocol message expose its consensus coordinates
// (view, sequence) to the tracer, so send/deliver events carry them.
// Implementing it is optional; messages without it are stamped with
// zeros. Every ordering message with view/sequence fields implements it.
type Slotted interface {
	Slot() (types.View, types.SeqNum)
}

// Keyed lets a message expose the client request it is about
// (REQUEST/REPLY and forwards), so send/deliver events carry the request
// coordinates that tie a client's submission to its consensus slot.
type Keyed interface {
	RequestRef() types.RequestKey
}

// TransportEventKind enumerates the connection-lifecycle events the TCP
// substrate reports: dials and redials, dropped connections, dropped
// sends (queue overflow or no route — the lossy-delivery contract made
// visible), and rejected frames (oversized or garbage input from the
// untrusted network).
type TransportEventKind uint8

// Transport lifecycle events.
const (
	// TransportDial: an outbound dial succeeded for a peer that had no
	// previous connection.
	TransportDial TransportEventKind = iota
	// TransportDialFail: an outbound dial failed; the sender backs off.
	TransportDialFail
	// TransportReconnect: an outbound dial succeeded for a peer whose
	// previous connection had been lost.
	TransportReconnect
	// TransportConnDrop: the connection a node was writing to a peer on
	// was torn down (write error, EOF, or a rejected frame). A
	// connection the node only read from ends without one.
	TransportConnDrop
	// TransportSendDrop: a message was dropped instead of sent — no
	// route to the peer, outbound queue overflow, or a write that died.
	TransportSendDrop
	// TransportFrameReject: an inbound frame violated the framing
	// contract (oversized, zero-length, or not exactly one message) and
	// its connection was recycled, or an outbound message over the frame
	// bound was dropped at Send.
	TransportFrameReject
)

// TransportStats aggregates the transport lifecycle counters.
type TransportStats struct {
	Dials        int64
	DialFails    int64
	Reconnects   int64
	ConnDrops    int64
	SendDrops    int64
	FrameRejects int64
}

func (s *TransportStats) add(o TransportStats) {
	s.Dials += o.Dials
	s.DialFails += o.DialFails
	s.Reconnects += o.Reconnects
	s.ConnDrops += o.ConnDrops
	s.SendDrops += o.SendDrops
	s.FrameRejects += o.FrameRejects
}

// Total sums every lifecycle counter (a cheap "anything happened" probe
// for summaries).
func (s TransportStats) Total() int64 {
	return s.Dials + s.DialFails + s.Reconnects + s.ConnDrops + s.SendDrops + s.FrameRejects
}

// VerifyPoolEventKind enumerates the verification-engine events
// internal/crypto/vpool reports: raw Ed25519 work actually performed,
// memo and certificate-cache hits/misses, and rejections (garbage
// signatures caught by the engine). These count mechanism — the charged
// cost-model counters live in the per-phase Verify column.
type VerifyPoolEventKind uint8

// Verification-engine events.
const (
	// VerifyPerformed: one raw Ed25519 verification was executed.
	VerifyPerformed VerifyPoolEventKind = iota
	// VerifyMemoHit: a (signer, digest, sig) triple was recalled from the
	// positive-only memo instead of re-verified.
	VerifyMemoHit
	// VerifyMemoMiss: the memo was consulted and had no entry.
	VerifyMemoMiss
	// VerifyCertHit: a quorum certificate was recalled from the LRU.
	VerifyCertHit
	// VerifyCertMiss: the certificate LRU was consulted and had no entry.
	VerifyCertMiss
	// VerifyRejected: a verification failed (invalid signature).
	VerifyRejected
)

// VerifyPoolStats aggregates the verification-engine counters.
type VerifyPoolStats struct {
	Performed  int64
	MemoHits   int64
	MemoMisses int64
	CertHits   int64
	CertMisses int64
	Rejected   int64
}

func (s *VerifyPoolStats) add(o VerifyPoolStats) {
	s.Performed += o.Performed
	s.MemoHits += o.MemoHits
	s.MemoMisses += o.MemoMisses
	s.CertHits += o.CertHits
	s.CertMisses += o.CertMisses
	s.Rejected += o.Rejected
}

// Total sums every engine counter (a cheap "engine active" probe).
func (s VerifyPoolStats) Total() int64 {
	return s.Performed + s.MemoHits + s.MemoMisses + s.CertHits + s.CertMisses + s.Rejected
}

// PhaseStat aggregates one (node, phase) cell of the accounting table.
type PhaseStat struct {
	MsgsSent  int64
	MsgsRecv  int64
	BytesSent int64
	BytesRecv int64
	Sign      int64
	Verify    int64
	MACSign   int64
	MACVerify int64
}

func (s *PhaseStat) add(o PhaseStat) {
	s.MsgsSent += o.MsgsSent
	s.MsgsRecv += o.MsgsRecv
	s.BytesSent += o.BytesSent
	s.BytesRecv += o.BytesRecv
	s.Sign += o.Sign
	s.Verify += o.Verify
	s.MACSign += o.MACSign
	s.MACVerify += o.MACVerify
}

// Options configures a Tracer.
type Options struct {
	// Label names the run in exported traces (e.g. "pbft/n=4/seed=1").
	Label string
	// Events enables full event capture for the JSON trace exporter.
	// Counters and histograms are always maintained; the event log is
	// the memory-heavy part, so it is opt-in.
	Events bool
	// MaxEvents caps the retained event log (default 1<<20). Overflowing
	// events are counted in Dropped but not retained.
	MaxEvents int
	// Ring makes the event log a circular buffer of the MaxEvents most
	// recent events instead of keeping the first MaxEvents: overflow
	// evicts the oldest event (still counted in Dropped). This is the
	// flight-recorder mode the chaos runner uses — when a schedule fails,
	// the tail of the run is what matters.
	Ring bool
}

// nodeState is the per-node accounting: phase table plus the node's
// current phase (the last ordering phase it touched), which crypto
// operations are attributed to.
type nodeState struct {
	phases map[string]*PhaseStat
	cur    string
}

// Tracer is the event bus and accounting sink. All methods are safe on a
// nil receiver (no-ops) and safe for concurrent use — the TCP substrate
// delivers from multiple goroutines.
type Tracer struct {
	opts Options

	mu      sync.Mutex
	events  []Event
	head    int // ring mode: index of the oldest retained event
	dropped int64
	nodes   map[types.NodeID]*nodeState

	// slotFirst records when a slot was first touched by any ordering
	// message; slotDone marks slots whose latency was already observed.
	// Together they feed SlotLatency without any client-side signal, so
	// a live bftnode can export commit latency from replica-side events
	// alone.
	slotFirst map[types.SeqNum]time.Duration
	slotDone  map[types.SeqNum]struct{}

	// transport accumulates the TCP substrate's connection-lifecycle
	// counters (guarded by mu like everything else).
	transport TransportStats

	// verifyPool accumulates the verification engine's counters.
	verifyPool VerifyPoolStats

	// forensics accumulates the accountability auditor's proof counters
	// (by proof kind) and latest per-replica suspicion gauges.
	forensicsProofs map[string]int64
	suspicion       map[types.NodeID]float64

	// nodeInfo is the identity metadata stamped by SetNodeInfo, exported
	// as bftkit_build_info so scrapers can label series.
	nodeInfo *NodeInfo

	// CommitLatency observes submit→first-commit per request (fed by
	// harness.Metrics); QueueDepth samples the substrate's in-flight
	// message count at each send; SlotLatency observes first-message→
	// first-commit per slot, the replica-side proxy the live /metrics
	// endpoint exports when no client feed exists; OutQueueDepth samples
	// a peer's outbound transport queue at each enqueue (reconnect
	// backpressure made visible).
	CommitLatency *Histogram
	QueueDepth    *Histogram
	SlotLatency   *Histogram
	OutQueueDepth *Histogram
	// VerifyBatchSize observes the claim count of each VerifyBatch call;
	// VerifyQueueDepth samples the inbound-verify lane's backlog at each
	// enqueue (how far signature checking trails the socket).
	VerifyBatchSize  *Histogram
	VerifyQueueDepth *Histogram
}

// New returns an enabled tracer.
func New(opts Options) *Tracer {
	if opts.MaxEvents == 0 {
		opts.MaxEvents = 1 << 20
	}
	return &Tracer{
		opts:             opts,
		nodes:            make(map[types.NodeID]*nodeState),
		slotFirst:        make(map[types.SeqNum]time.Duration),
		slotDone:         make(map[types.SeqNum]struct{}),
		CommitLatency:    NewHistogram("commit-latency", "µs"),
		QueueDepth:       NewHistogram("queue-depth", "msgs"),
		SlotLatency:      NewHistogram("slot-latency", "µs"),
		OutQueueDepth:    NewHistogram("out-queue-depth", "msgs"),
		VerifyBatchSize:  NewHistogram("verify-batch-size", "sigs"),
		VerifyQueueDepth: NewHistogram("verify-queue-depth", "msgs"),
	}
}

// Enabled reports whether the tracer collects anything.
func (t *Tracer) Enabled() bool { return t != nil }

// Label returns the run label.
func (t *Tracer) Label() string {
	if t == nil {
		return ""
	}
	return t.opts.Label
}

// SetLabel renames the run (the harness stamps proto/n once known).
func (t *Tracer) SetLabel(l string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.opts.Label = l
	t.mu.Unlock()
}

func (t *Tracer) node(id types.NodeID) *nodeState {
	ns := t.nodes[id]
	if ns == nil {
		ns = &nodeState{phases: make(map[string]*PhaseStat), cur: "init"}
		t.nodes[id] = ns
	}
	return ns
}

func (ns *nodeState) phase(p string) *PhaseStat {
	st := ns.phases[p]
	if st == nil {
		st = &PhaseStat{}
		ns.phases[p] = st
	}
	return st
}

func (t *Tracer) record(e Event) {
	if !t.opts.Events {
		return
	}
	if len(t.events) >= t.opts.MaxEvents {
		t.dropped++
		if !t.opts.Ring {
			return
		}
		// Flight-recorder mode: overwrite the oldest event. head always
		// points at the oldest retained event once the buffer has wrapped.
		t.events[t.head] = e
		t.head++
		if t.head == len(t.events) {
			t.head = 0
		}
		return
	}
	t.events = append(t.events, e)
}

// slotOf extracts consensus coordinates when the message exposes them.
func slotOf(m types.Message) (types.View, types.SeqNum) {
	if s, ok := m.(Slotted); ok {
		return s.Slot()
	}
	return 0, 0
}

// keyOf extracts request coordinates when the message exposes them.
func keyOf(m types.Message) types.RequestKey {
	if k, ok := m.(Keyed); ok {
		return k.RequestRef()
	}
	return types.RequestKey{}
}

// slotLatencyCap bounds the slot-bookkeeping maps; a long-lived bftnode
// must not leak an entry per slot forever, so past the cap both maps are
// reset (losing at most the in-flight slots' samples).
const slotLatencyCap = 1 << 17

// touchSlot notes the first time a slot is seen in any ordering message,
// so Commit can observe first-message→first-commit latency. Caller holds
// t.mu.
func (t *Tracer) touchSlot(at time.Duration, seq types.SeqNum) {
	if seq == 0 {
		return
	}
	if _, done := t.slotDone[seq]; done {
		return
	}
	if _, ok := t.slotFirst[seq]; ok {
		return
	}
	if len(t.slotFirst) >= slotLatencyCap || len(t.slotDone) >= slotLatencyCap {
		t.slotFirst = make(map[types.SeqNum]time.Duration)
		t.slotDone = make(map[types.SeqNum]struct{})
	}
	t.slotFirst[seq] = at
}

// enterPhase updates a node's current phase, emitting a phase-enter
// event on transition. Caller holds t.mu.
func (t *Tracer) enterPhase(at time.Duration, id types.NodeID, ns *nodeState, phase string, view types.View, seq types.SeqNum) {
	if ns.cur == phase {
		return
	}
	ns.cur = phase
	t.record(Event{At: at, Type: EvPhaseEnter, Node: id, View: view, Seq: seq, Phase: phase})
}

// MsgSent accounts one message leaving `from` for `to`. Substrates call
// it at the instant the send is issued, with the accounted wire size.
func (t *Tracer) MsgSent(at time.Duration, from, to types.NodeID, m types.Message, bytes int) {
	if t == nil {
		return
	}
	kind := m.Kind()
	phase := PhaseOf(kind)
	view, seq := slotOf(m)
	key := keyOf(m)
	t.mu.Lock()
	ns := t.node(from)
	st := ns.phase(phase)
	st.MsgsSent++
	st.BytesSent += int64(bytes)
	if IsProtocolPhase(phase) {
		t.enterPhase(at, from, ns, phase, view, seq)
		t.touchSlot(at, seq)
	}
	t.record(Event{At: at, Type: EvSend, Node: from, Peer: to, View: view, Seq: seq, Kind: kind, Phase: phase, Bytes: bytes, Client: key.Client, ClientSeq: key.ClientSeq})
	t.mu.Unlock()
}

// MsgDelivered accounts one message arriving at `to` from `from`.
func (t *Tracer) MsgDelivered(at time.Duration, from, to types.NodeID, m types.Message, bytes int) {
	if t == nil {
		return
	}
	kind := m.Kind()
	phase := PhaseOf(kind)
	view, seq := slotOf(m)
	key := keyOf(m)
	t.mu.Lock()
	ns := t.node(to)
	st := ns.phase(phase)
	st.MsgsRecv++
	st.BytesRecv += int64(bytes)
	if IsProtocolPhase(phase) {
		// Receiving a phase's message moves the node into that phase for
		// crypto-op attribution (verification happens on receipt).
		ns.cur = phase
		t.touchSlot(at, seq)
	}
	t.record(Event{At: at, Type: EvDeliver, Node: to, Peer: from, View: view, Seq: seq, Kind: kind, Phase: phase, Bytes: bytes, Client: key.Client, ClientSeq: key.ClientSeq})
	t.mu.Unlock()
}

// Commit records a replica durably committing a slot.
func (t *Tracer) Commit(at time.Duration, node types.NodeID, view types.View, seq types.SeqNum) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if first, ok := t.slotFirst[seq]; ok {
		t.SlotLatency.Observe(int64((at - first) / time.Microsecond))
		delete(t.slotFirst, seq)
		t.slotDone[seq] = struct{}{}
	}
	t.record(Event{At: at, Type: EvCommit, Node: node, View: view, Seq: seq})
	t.mu.Unlock()
}

// Execute records a replica executing a committed slot.
func (t *Tracer) Execute(at time.Duration, node types.NodeID, seq types.SeqNum) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.record(Event{At: at, Type: EvExecute, Node: node, Seq: seq})
	t.mu.Unlock()
}

// ViewChange records a replica entering a new view.
func (t *Tracer) ViewChange(at time.Duration, node types.NodeID, view types.View) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.record(Event{At: at, Type: EvViewChange, Node: node, View: view})
	t.mu.Unlock()
}

// TimerFired records a protocol timer firing on a node.
func (t *Tracer) TimerFired(at time.Duration, node types.NodeID, name string, view types.View, seq types.SeqNum) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.record(Event{At: at, Type: EvTimer, Node: node, View: view, Seq: seq, Kind: name})
	t.mu.Unlock()
}

// Submit records a client submitting a request — the root of that
// request's span tree. The harness emits it at the instant of submission.
func (t *Tracer) Submit(at time.Duration, client types.NodeID, key types.RequestKey) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.record(Event{At: at, Type: EvSubmit, Node: client, Client: key.Client, ClientSeq: key.ClientSeq})
	t.mu.Unlock()
}

// Done records a client's request completing (enough matching replies),
// closing that request's span tree.
func (t *Tracer) Done(at time.Duration, client types.NodeID, key types.RequestKey) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.record(Event{At: at, Type: EvDone, Node: client, Client: key.Client, ClientSeq: key.ClientSeq})
	t.mu.Unlock()
}

// CryptoOp attributes one cryptographic operation (dimension E3) to the
// node's current phase. It has crypto.Observer's signature, so a
// deployment attaches it with auth.SetObserver(tr.CryptoOp).
func (t *Tracer) CryptoOp(node types.NodeID, op crypto.Op) {
	if t == nil {
		return
	}
	t.mu.Lock()
	ns := t.node(node)
	st := ns.phase(ns.cur)
	switch op {
	case crypto.OpSign:
		st.Sign++
	case crypto.OpVerify:
		st.Verify++
	case crypto.OpMAC:
		st.MACSign++
	case crypto.OpMACVerify:
		st.MACVerify++
	}
	t.mu.Unlock()
}

// ObserveCommitLatency feeds the commit-latency histogram.
func (t *Tracer) ObserveCommitLatency(d time.Duration) {
	if t == nil {
		return
	}
	t.CommitLatency.Observe(int64(d / time.Microsecond))
}

// ObserveQueueDepth feeds the queue-depth histogram.
func (t *Tracer) ObserveQueueDepth(n int) {
	if t == nil {
		return
	}
	t.QueueDepth.Observe(int64(n))
}

// ObserveOutQueueDepth feeds the per-peer outbound-queue histogram (the
// TCP transport samples it at every enqueue).
func (t *Tracer) ObserveOutQueueDepth(n int) {
	if t == nil {
		return
	}
	t.OutQueueDepth.Observe(int64(n))
}

// TransportEvent counts one connection-lifecycle event from the TCP
// substrate.
func (t *Tracer) TransportEvent(k TransportEventKind) {
	if t == nil {
		return
	}
	t.mu.Lock()
	switch k {
	case TransportDial:
		t.transport.Dials++
	case TransportDialFail:
		t.transport.DialFails++
	case TransportReconnect:
		t.transport.Reconnects++
	case TransportConnDrop:
		t.transport.ConnDrops++
	case TransportSendDrop:
		t.transport.SendDrops++
	case TransportFrameReject:
		t.transport.FrameRejects++
	}
	t.mu.Unlock()
}

// VerifyPoolEvent counts one verification-engine event.
func (t *Tracer) VerifyPoolEvent(k VerifyPoolEventKind) {
	if t == nil {
		return
	}
	t.mu.Lock()
	switch k {
	case VerifyPerformed:
		t.verifyPool.Performed++
	case VerifyMemoHit:
		t.verifyPool.MemoHits++
	case VerifyMemoMiss:
		t.verifyPool.MemoMisses++
	case VerifyCertHit:
		t.verifyPool.CertHits++
	case VerifyCertMiss:
		t.verifyPool.CertMisses++
	case VerifyRejected:
		t.verifyPool.Rejected++
	}
	t.mu.Unlock()
}

// VerifyPoolStats returns the accumulated verification-engine counters.
func (t *Tracer) VerifyPoolStats() VerifyPoolStats {
	if t == nil {
		return VerifyPoolStats{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.verifyPool
}

// ForensicsProof counts one misbehavior proof of the given kind
// emitted by the accountability auditor.
func (t *Tracer) ForensicsProof(kind string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.forensicsProofs == nil {
		t.forensicsProofs = make(map[string]int64)
	}
	t.forensicsProofs[kind]++
	t.mu.Unlock()
}

// SetSuspicion records a replica's latest suspicion score (a gauge:
// each call replaces the previous value).
func (t *Tracer) SetSuspicion(node types.NodeID, score float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.suspicion == nil {
		t.suspicion = make(map[types.NodeID]float64)
	}
	t.suspicion[node] = score
	t.mu.Unlock()
}

// NodeInfo is the identity metadata a scraper needs to label a node's
// series without out-of-band configuration: who this node is, what
// deployment it belongs to, and when it started. It surfaces as the
// bftkit_build_info and bftkit_node_start_time_seconds families and in
// the /healthz payload.
type NodeInfo struct {
	Node     types.NodeID
	Protocol string
	N, F     int
	Start    time.Time
	// GoVersion defaults to runtime.Version() when left empty at
	// SetNodeInfo time; tests pin it for deterministic goldens.
	GoVersion string
}

// SetNodeInfo stamps the tracer with its node's identity metadata.
func (t *Tracer) SetNodeInfo(info NodeInfo) {
	if t == nil {
		return
	}
	if info.GoVersion == "" {
		info.GoVersion = runtime.Version()
	}
	t.mu.Lock()
	t.nodeInfo = &info
	t.mu.Unlock()
}

// NodeInfo returns the identity metadata, if SetNodeInfo stamped any.
func (t *Tracer) NodeInfo() (NodeInfo, bool) {
	if t == nil {
		return NodeInfo{}, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.nodeInfo == nil {
		return NodeInfo{}, false
	}
	return *t.nodeInfo, true
}

// ForensicsStats returns the accumulated proof counters by kind and
// the latest suspicion gauge per replica.
func (t *Tracer) ForensicsStats() (proofs map[string]int64, suspicion map[types.NodeID]float64) {
	if t == nil {
		return nil, nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	proofs = make(map[string]int64, len(t.forensicsProofs))
	for k, v := range t.forensicsProofs {
		proofs[k] = v
	}
	suspicion = make(map[types.NodeID]float64, len(t.suspicion))
	for k, v := range t.suspicion {
		suspicion[k] = v
	}
	return proofs, suspicion
}

// ObserveVerifyBatch feeds the verify-batch-size histogram.
func (t *Tracer) ObserveVerifyBatch(n int) {
	if t == nil {
		return
	}
	t.VerifyBatchSize.Observe(int64(n))
}

// ObserveVerifyQueueDepth feeds the inbound-verify-lane depth histogram.
func (t *Tracer) ObserveVerifyQueueDepth(n int) {
	if t == nil {
		return
	}
	t.VerifyQueueDepth.Observe(int64(n))
}

// TransportStats returns the accumulated transport lifecycle counters.
func (t *Tracer) TransportStats() TransportStats {
	if t == nil {
		return TransportStats{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.transport
}

// Events returns a copy of the captured event log in chronological
// order (unwrapping the ring when flight-recorder mode has wrapped).
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, 0, len(t.events))
	out = append(out, t.events[t.head:]...)
	out = append(out, t.events[:t.head]...)
	return out
}

// DroppedEvents returns how many events overflowed MaxEvents.
func (t *Tracer) DroppedEvents() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// PerPhase aggregates the counters across all nodes, keyed by phase.
func (t *Tracer) PerPhase() map[string]PhaseStat {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]PhaseStat)
	for _, ns := range t.nodes {
		for phase, st := range ns.phases {
			agg := out[phase]
			agg.add(*st)
			out[phase] = agg
		}
	}
	return out
}

// NodePhase returns a copy of one node's phase table.
func (t *Tracer) NodePhase(id types.NodeID) map[string]PhaseStat {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	ns := t.nodes[id]
	if ns == nil {
		return nil
	}
	out := make(map[string]PhaseStat, len(ns.phases))
	for phase, st := range ns.phases {
		out[phase] = *st
	}
	return out
}

// Nodes returns the observed node IDs, sorted.
func (t *Tracer) Nodes() []types.NodeID {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]types.NodeID, 0, len(t.nodes))
	for id := range t.nodes {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Totals sums the counters across every node and every phase — ordering,
// client, checkpoint, and recovery traffic alike. The perf snapshot
// subsystem reports these as the cell-wide cost totals; OrderingTotals
// below stays the message-complexity view the paper's claims use.
func (t *Tracer) Totals() PhaseStat {
	var agg PhaseStat
	for _, st := range t.PerPhase() {
		agg.add(st)
	}
	return agg
}

// OrderingTotals sums messages and bytes sent across all protocol
// (ordering) phases — the quantity the paper's message-complexity
// claims are about. Client traffic, checkpointing, view changes, and
// recovery are excluded.
func (t *Tracer) OrderingTotals() (msgs, bytes int64) {
	for phase, st := range t.PerPhase() {
		if IsProtocolPhase(phase) {
			msgs += st.MsgsSent
			bytes += st.BytesSent
		}
	}
	return msgs, bytes
}

// OrderingPhases returns the distinct protocol phases observed — the
// measured counterpart of the profile's phase count (e.g. Zyzzyva's
// single propose phase vs PBFT's three).
func (t *Tracer) OrderingPhases() []string {
	var out []string
	for phase, st := range t.PerPhase() {
		if IsProtocolPhase(phase) && st.MsgsSent > 0 {
			out = append(out, phase)
		}
	}
	sort.Strings(out)
	return out
}
