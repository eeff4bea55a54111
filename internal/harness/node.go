package harness

// node.go is the one deployment assembly: the simulator cluster, the
// in-process TCP cluster, cmd/bftnode and cmd/bftclient all stand a
// replica or a client up through the functions below (DESIGN.md →
// Architecture → Deployment assembly has the concern → function table).

import (
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"bftkit/internal/byz"
	"bftkit/internal/core"
	"bftkit/internal/crypto"
	"bftkit/internal/crypto/vpool"
	"bftkit/internal/forensics"
	"bftkit/internal/kvstore"
	"bftkit/internal/obsv"
	"bftkit/internal/ops"
	"bftkit/internal/transport"
	"bftkit/internal/types"
)

// Size resolves a deployment's replica count and fault threshold from
// whichever the caller fixed: both zero means f=1 at the profile's
// minimum n, n zero means the minimum n for f, f zero means the largest
// f the profile tolerates at n. It fails when n cannot carry f.
func Size(p core.Profile, n, f int) (int, int, error) {
	switch {
	case n == 0 && f == 0:
		f = 1
		n = p.MinReplicas(f)
	case n == 0:
		n = p.MinReplicas(f)
	case f == 0:
		for ff := 1; p.MinReplicas(ff) <= n; ff++ {
			f = ff
		}
		if f == 0 {
			return 0, 0, fmt.Errorf("%d replicas cannot tolerate any fault under n=%s", n, p.Replicas)
		}
	}
	if min := p.MinReplicas(f); n < min {
		return 0, 0, fmt.Errorf("n >= %d needed for f=%d, got %d", min, f, n)
	}
	return n, f, nil
}

// Resolve looks the protocol up, sizes the deployment and derives its
// config: the defaults for n, the resolved f, the profile's ordering
// authentication, then the caller's tuning.
func Resolve(protocol string, n, f int, tune func(*core.Config)) (core.Registration, core.Config, error) {
	reg, ok := core.Lookup(protocol)
	if !ok {
		return reg, core.Config{}, fmt.Errorf("unknown protocol %q; registered: %v", protocol, core.Names())
	}
	n, f, err := Size(reg.Profile, n, f)
	if err != nil {
		return reg, core.Config{}, fmt.Errorf("%s: %w", protocol, err)
	}
	cfg := core.DefaultConfig(n)
	cfg.F = f
	cfg.Scheme = reg.Profile.AuthOrdering
	if tune != nil {
		tune(&cfg)
	}
	return reg, cfg, nil
}

// newProtocol builds one replica's protocol instance: the caller's
// override if it returns one, else the registered constructor, wrapped
// by the replica's Byzantine behavior if it has one.
func newProtocol(reg core.Registration, cfg core.Config, id types.NodeID,
	override func(types.NodeID, core.Config) core.Protocol, b byz.Behavior) core.Protocol {
	var proto core.Protocol
	if override != nil {
		proto = override(id, cfg)
	}
	if proto == nil {
		proto = reg.NewReplica(cfg)
	}
	if b != nil {
		proto = byz.Wrap(proto, b)
	}
	return proto
}

// newEngine attaches a verification engine to auth. cache 0 means
// vpool.DefaultCache and a negative cache means no memo; with no memo
// and no workers there is nothing for an engine to do and none is built.
func newEngine(auth *crypto.Authority, workers, cache int, tr *obsv.Tracer) *vpool.Engine {
	if cache < 0 && workers <= 0 {
		return nil
	}
	if cache == 0 {
		cache = vpool.DefaultCache
	} else if cache < 0 {
		cache = 0
	}
	eng := vpool.New(auth, vpool.Options{Workers: workers, Cache: cache, Tracer: tr})
	auth.SetEngine(eng)
	return eng
}

// NewAuditor builds the accountability auditor for a deployment: N, F
// and the public keys come from the deployment, Tracer defaults to tr.
func NewAuditor(reg core.Registration, cfg core.Config, auth *crypto.Authority, fo forensics.Options, tr *obsv.Tracer) *forensics.Auditor {
	fo.N, fo.F = cfg.N, cfg.F
	// Every node derives the same key material from the shared seed;
	// the auditor only needs the public half.
	fo.Keys = auth.KeyRing(cfg.N)
	if fo.Tracer == nil {
		fo.Tracer = tr
	}
	// Profiles with E1 active-replica reduction legitimately bench
	// replicas, and tree/chain topologies give interior nodes and
	// hops structurally unequal traffic, so silence under those
	// profiles must not convict (see forensics.Options).
	if !reg.Profile.ActiveReplicas.IsZero() ||
		reg.Profile.Topology == core.Tree || reg.Profile.Topology == core.Chain {
		fo.AsymmetricRoles = true
	}
	return forensics.New(fo)
}

// attachTracer points a driver's network handle and its authority at the
// tracer: message traffic is reported by the substrate, crypto ops by
// the authority. (The runtime's share goes through Hooks.Trace.) Without
// a tracer nothing is installed, so an untraced run pays no observer.
func attachTracer(tr *obsv.Tracer, net interface{ SetTracer(*obsv.Tracer) }, auth *crypto.Authority) {
	if tr == nil {
		return
	}
	net.SetTracer(tr)
	auth.SetObserver(tr.CryptoOp)
}

// NodeTracer returns a tracer for one process of a TCP deployment,
// stamped with the node's identity so its /metrics label themselves.
func NodeTracer(reg core.Registration, cfg core.Config, id types.NodeID) *obsv.Tracer {
	tr := obsv.New(obsv.Options{Label: fmt.Sprintf("%s/r%d", reg.Name, id)})
	tr.SetNodeInfo(obsv.NodeInfo{Node: id, Protocol: reg.Name, N: cfg.N, F: cfg.F, Start: time.Now()})
	return tr
}

// deliveryObserver is the optional sixth Observer method: an Observer
// that has it also sees every message delivery, after the driver's own
// crash/partition filtering and immediately before the handler runs.
type deliveryObserver interface {
	OnDeliver(at time.Duration, from, to types.NodeID, m types.Message)
}

// fanout carries a deployment's runtime events to its observers, in
// order. Observers are written for the simulator's single thread, and on
// TCP callbacks originate on one event loop per node, so every callback
// runs under mu; nodes of a TCP deployment each count time from their
// own start, so every callback is stamped with the deployment's clock.
type fanout struct {
	obs []Observer
	mu  *sync.Mutex
	now func() time.Duration
}

func (f *fanout) each(fn func(Observer)) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, o := range f.obs {
		fn(o)
	}
}

// hooks returns the replica-runtime hooks that feed the observers.
func (f *fanout) hooks(logf func(string, ...any), tr *obsv.Tracer) core.Hooks {
	return core.Hooks{
		Logf:  logf,
		Trace: tr,
		OnCommit: func(id types.NodeID, v types.View, seq types.SeqNum, b *types.Batch, proof *types.CommitProof, _ time.Duration) {
			at := f.now()
			f.each(func(o Observer) { o.OnCommit(id, v, seq, b, proof, at) })
		},
		OnExecute: func(id types.NodeID, seq types.SeqNum, b *types.Batch, results [][]byte, _ time.Duration) {
			at := f.now()
			f.each(func(o Observer) { o.OnExecute(id, seq, b, results, at) })
		},
		OnViewChange: func(id types.NodeID, v types.View, _ time.Duration) {
			at := f.now()
			f.each(func(o Observer) { o.OnViewChange(id, v, at) })
		},
		OnViolation: func(id types.NodeID, err error) {
			f.each(func(o Observer) { o.OnViolation(id, err) })
		},
	}
}

// clientHooks returns the client-runtime hooks; then runs after the
// observers, outside the lock (workloads submit the next request there).
func (f *fanout) clientHooks(logf func(string, ...any), then func(types.NodeID, *types.Request, []byte, time.Duration)) core.ClientHooks {
	return core.ClientHooks{
		Logf: logf,
		OnDone: func(id types.NodeID, req *types.Request, result []byte, _ time.Duration) {
			at := f.now()
			f.each(func(o Observer) { o.OnDone(id, req, result, at) })
			then(id, req, result, at)
		},
	}
}

// tap returns what a driver calls on every delivery: the auditor, then
// every observer that listens to deliveries. It is nil when nobody
// listens, and the driver then leaves its delivery path untouched.
func (f *fanout) tap(aud *forensics.Auditor) func(at time.Duration, from, to types.NodeID, m types.Message) {
	var listeners []func(time.Duration, types.NodeID, types.NodeID, types.Message)
	if aud != nil {
		listeners = append(listeners, aud.Observe)
	}
	for _, o := range f.obs {
		if d, ok := o.(deliveryObserver); ok {
			listeners = append(listeners, d.OnDeliver)
		}
	}
	if len(listeners) == 0 {
		return nil
	}
	return func(at time.Duration, from, to types.NodeID, m types.Message) {
		f.mu.Lock()
		defer f.mu.Unlock()
		for _, fn := range listeners {
			fn(at, from, to, m)
		}
	}
}

// deliveryTap interposes a fanout's tap on one TCP node's inbound
// deliveries; the simulator has the same seam in sim.Network.SetTap.
type deliveryTap struct {
	fn    func(at time.Duration, from, to types.NodeID, m types.Message)
	now   func() time.Duration
	to    types.NodeID
	inner transport.Handler
}

func (t *deliveryTap) Deliver(from types.NodeID, m types.Message) {
	t.fn(t.now(), from, t.to, m)
	t.inner.Deliver(from, m)
}

// NodeSpec describes one process of a TCP deployment, replica or client.
// Seed, MaxFrame and the Verify* pair must match across the deployment;
// VerifyWorkers, VerifyCache, MakeReplica and Byzantine mean what they
// mean in TCPOptions.
type NodeSpec struct {
	ID  types.NodeID
	Reg core.Registration
	Cfg core.Config
	// Peers lists every address this node dials, plus its own listen
	// address under ID.
	Peers    map[types.NodeID]string
	Seed     int64
	MaxFrame int // 0 = transport default

	VerifyWorkers, VerifyCache int
	// Tracer is the node's own tracer (NodeTracer) or one the deployment
	// shares; nil runs untraced.
	Tracer *obsv.Tracer
	// Observers receive the node's runtime events and, if they have
	// OnDeliver, its inbound deliveries. A deployment of several nodes
	// in one process shares Mu and Now among them; left nil, the node
	// uses a mutex and a clock of its own.
	Observers []Observer
	Mu        *sync.Mutex
	Now       func() time.Duration
	// Auditor, when set, observes the node's inbound deliveries and is
	// served at /forensics.
	Auditor *forensics.Auditor
	Logf    func(format string, args ...any)

	// Replica only. OpsAddr, when non-empty, serves ops.Mux there.
	MakeReplica func(id types.NodeID, cfg core.Config) core.Protocol
	Byzantine   byz.Behavior
	OpsAddr     string
}

// TCPNode is a started process of a TCP deployment.
type TCPNode struct {
	Node *transport.Node
	// Client is the client runtime (StartClient only); reach it through
	// Node.Do.
	Client *core.Client
	// OpsAddr is where the ops surface listens, if the spec asked for one.
	OpsAddr net.Addr

	engine *vpool.Engine
	opsSrv *http.Server
}

// Stop closes the ops surface, then the transport and its event loop,
// then the verification engine.
func (n *TCPNode) Stop() {
	if n.opsSrv != nil {
		n.opsSrv.Close()
	}
	n.Node.Stop()
	if n.engine != nil {
		n.engine.Stop()
	}
}

// start boots what a replica and a client share — transport node,
// authority, tracer, verification engine, observer fan-out, delivery tap
// — around the runtime that build returns, and runs the runtime's begin
// on the node's event loop. A replica's engine also gets inbound lanes.
// A client's does not: the client protocols that check reply signatures
// verify them inline, and a lane would only add a goroutine hop per reply.
func (s *NodeSpec) start(replica bool, build func(*TCPNode, *crypto.Authority, *fanout) (h transport.Handler, begin func())) (*TCPNode, *fanout, error) {
	node := transport.NewNode(s.ID, s.Peers, s.Seed)
	node.SetMaxFrame(s.MaxFrame)
	auth := crypto.NewAuthority(s.Seed)
	attachTracer(s.Tracer, node, auth)
	// Each TCP node has its own authority (a real process would), so
	// caches are per-node; the pool is what async verify rides.
	n := &TCPNode{Node: node, engine: newEngine(auth, s.VerifyWorkers, s.VerifyCache, s.Tracer)}
	if replica && n.engine != nil && s.VerifyWorkers > 0 {
		node.SetInboundPrepare(n.engine.Prepare())
	}
	fan := &fanout{obs: s.Observers, mu: s.Mu, now: s.Now}
	if fan.mu == nil {
		fan.mu = new(sync.Mutex)
	}
	if fan.now == nil {
		fan.now = node.Now
	}
	h, begin := build(n, auth, fan)
	if fn := fan.tap(s.Auditor); fn != nil {
		h = &deliveryTap{fn: fn, now: fan.now, to: s.ID, inner: h}
	}
	node.SetHandler(h)
	if err := node.Start(); err != nil {
		n.Stop()
		return nil, nil, err
	}
	node.Do(begin)
	return n, fan, nil
}

// StartReplica boots one replica process: fresh protocol instance and
// application state on a transport node listening at Peers[ID].
func StartReplica(s NodeSpec) (*TCPNode, error) {
	started := time.Now()
	// The committed-slot high-water mark /healthz reports, so a cluster
	// monitor can measure progress and stragglers.
	var lastSeq atomic.Uint64
	n, fan, err := s.start(true, func(n *TCPNode, auth *crypto.Authority, fan *fanout) (transport.Handler, func()) {
		hooks := fan.hooks(s.Logf, s.Tracer)
		observe := hooks.OnCommit
		hooks.OnCommit = func(id types.NodeID, v types.View, seq types.SeqNum, b *types.Batch, proof *types.CommitProof, at time.Duration) {
			if hi := uint64(seq); hi > lastSeq.Load() {
				lastSeq.Store(hi)
			}
			observe(id, v, seq, b, proof, at)
		}
		proto := newProtocol(s.Reg, s.Cfg, s.ID, s.MakeReplica, s.Byzantine)
		rep := core.NewReplica(s.ID, s.Cfg, n.Node, proto, kvstore.New(), auth, hooks)
		return rep, rep.Start
	})
	if err != nil || s.OpsAddr == "" {
		return n, err
	}
	health := func() ops.Health {
		return ops.Health{Protocol: s.Reg.Name, Node: int(s.ID), N: s.Cfg.N, F: s.Cfg.F, LastCommitSeq: lastSeq.Load()}
	}
	var report func() *forensics.Report
	if s.Auditor != nil {
		report = func() *forensics.Report { return s.Auditor.Report(fan.now()) }
	}
	srv, addr, err := ops.Serve(s.OpsAddr, ops.Mux(health, started, s.Tracer, report))
	if err != nil {
		n.Stop()
		return nil, fmt.Errorf("harness: ops server for %v: %w", s.ID, err)
	}
	n.opsSrv, n.OpsAddr = srv, addr
	return n, nil
}

// StartClient boots the deployment's client process; done runs on the
// client's event loop after every completed request.
func StartClient(s NodeSpec, done func(req *types.Request)) (*TCPNode, error) {
	n, _, err := s.start(false, func(n *TCPNode, auth *crypto.Authority, fan *fanout) (transport.Handler, func()) {
		hooks := fan.clientHooks(s.Logf, func(_ types.NodeID, req *types.Request, _ []byte, _ time.Duration) { done(req) })
		n.Client = core.NewClient(s.ID, s.Cfg, n.Node, s.Reg.ClientFor(s.Cfg), auth, hooks)
		return n.Client, n.Client.Start
	})
	return n, err
}
