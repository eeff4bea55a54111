package harness

// TCPCluster is the harness's real-network counterpart to Cluster: the
// same protocols, replica runtime, and Observer contract, but deployed
// over internal/transport's TCP stack inside one process. It exists so
// the chaos oracle can audit runs in which the faults are real — dials
// that hang, connections that die mid-frame, replicas whose process
// state genuinely vanishes on kill — rather than simulated. Wall-clock
// time replaces the virtual clock, so runs are not deterministic; the
// invariants checked against them must hold on every schedule.

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"syscall"
	"time"

	"bftkit/internal/byz"
	"bftkit/internal/core"
	"bftkit/internal/crypto"
	"bftkit/internal/forensics"
	"bftkit/internal/obsv"
	"bftkit/internal/types"
)

// TCPOptions configures a real-TCP deployment.
type TCPOptions struct {
	// Protocol is the registry name (protocol packages must be imported
	// for side effects by the caller).
	Protocol string
	// N is the replica count. Zero means the profile's minimum for F.
	N int
	// F is the fault threshold. Zero derives the largest tolerable value
	// from N (or defaults to 1 when both are zero).
	F int
	// Seed drives key material and transport jitter (default 1).
	Seed int64
	// Tune adjusts the derived config before replicas are built.
	Tune func(*core.Config)
	// Observers receive protocol-level events (and inbound deliveries,
	// if they have OnDeliver). Unlike the simulator, callbacks originate
	// on many event-loop goroutines; TCPCluster serializes them under one
	// mutex, so observers written for the single-threaded simulator (the
	// chaos oracle) work unchanged.
	Observers []Observer
	// PeerView, when set, rewrites each replica's peer table before its
	// transport node is built — the hook a fault-injecting proxy fabric
	// (chaos.NetemNet.View) uses to interpose on every inter-replica
	// link. The client always dials real addresses.
	PeerView func(self types.NodeID, peers map[types.NodeID]string) (map[types.NodeID]string, error)
	// Trace, when set, observes the whole deployment exactly as
	// Options.Trace does on the simulator: every node's transport
	// (messages, wire bytes, dial/reconnect/frame-reject counters),
	// authority (crypto ops) and runtime (commit/execute/view-change/
	// timer events) report to it.
	Trace *obsv.Tracer
	// VerifyWorkers sizes each node's signature-verification pool and,
	// when positive, enables each replica's async inbound-verify stage:
	// the signature claims a message exposes are batch-verified on
	// per-connection lanes off the event loop, so the loop's own verify is
	// a memo lookup. Votes and replies expose none and are verified on
	// demand; the client has no lane. 0 keeps the synchronous path.
	VerifyWorkers int
	// VerifyCache bounds each node's signature memo and certificate LRU
	// (0 = vpool.DefaultCache, negative = no engine at all).
	VerifyCache int
	// Byzantine assigns a byz behavior to selected replicas, exactly as
	// harness.Options.Byzantine does on the simulator.
	Byzantine map[types.NodeID]byz.Behavior
	// MakeReplica, when set, overrides protocol construction for
	// selected replicas (return nil to fall back to the registry).
	MakeReplica func(id types.NodeID, cfg core.Config) core.Protocol
	// Forensics, when set, runs the accountability auditor over every
	// node's inbound delivery stream (a handler wrap on each transport
	// node). N, F, and Keys are filled in from the deployment; Tracer
	// defaults to Trace. The auditor is exposed as TCPCluster.Forensics.
	Forensics *forensics.Options
	// Ops gives every replica its own tracer and a live ops HTTP server
	// (/metrics, /healthz, /forensics) on a loopback port — the same
	// surface cmd/bftnode serves — so a cluster monitor (cmd/bftmon,
	// internal/monitor) can scrape an in-process deployment exactly as
	// it would a real one. Addresses are stable across KillReplica/
	// RestartReplica (see OpsAddrs); killing a replica also closes its
	// ops server, so scrapes fail exactly while the process is down.
	Ops bool
}

// TCPCluster is a running multi-node TCP deployment in one process.
type TCPCluster struct {
	Opts TCPOptions
	Reg  core.Registration
	Cfg  core.Config
	// Addrs is the real listen address of every replica.
	Addrs map[types.NodeID]string
	// OpsAddrs is each replica's ops-surface address when Opts.Ops is
	// set — the scrape targets for a monitor. A replica keeps its ops
	// address across kill/restart, so a scraper's target list stays
	// valid for the deployment's lifetime.
	OpsAddrs map[types.NodeID]string
	// Forensics is the accountability auditor, when Opts.Forensics
	// enabled one. Its methods are concurrency-safe, so the per-node
	// event loops feed it directly.
	Forensics *forensics.Auditor

	start time.Time

	// clientAddr is the client's listen address. Replicas carry it in
	// their peer tables so a restarted replica can redial the client:
	// replies otherwise route only over the inbound connection the
	// client's request dial established, and a replica that restarts
	// after that dial has no return path until the client happens to
	// retransmit — its replies would be dropped as undeliverable.
	clientAddr string

	// obsMu serializes observer fan-out: replica hooks fire on per-node
	// event loops concurrently, but Observer implementations assume the
	// simulator's single thread.
	obsMu sync.Mutex

	mu       sync.Mutex
	replicas map[types.NodeID]*TCPNode

	client    *TCPNode
	clientSeq uint64
	doneCh    chan *types.Request
}

// bindAttempts bounds how often NewTCPCluster re-reserves ports after
// losing the race described at reserveAddrs.
const bindAttempts = 3

// NewTCPCluster builds and starts a deployment: n replicas plus one
// client, each on its own 127.0.0.1 port. It panics on unknown
// protocols or invalid sizing, mirroring NewCluster.
func NewTCPCluster(opts TCPOptions) (*TCPCluster, error) {
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	reg, cfg, err := Resolve(opts.Protocol, opts.N, opts.F, opts.Tune)
	if err != nil {
		panic("harness: " + err.Error())
	}
	var c *TCPCluster
	for attempt := 0; attempt < bindAttempts; attempt++ {
		c = &TCPCluster{
			Opts:     opts,
			Reg:      reg,
			Cfg:      cfg,
			Addrs:    make(map[types.NodeID]string, cfg.N),
			start:    time.Now(),
			replicas: make(map[types.NodeID]*TCPNode, cfg.N),
			doneCh:   make(chan *types.Request, 64),
		}
		if err = c.boot(); err == nil {
			return c, nil
		}
		c.Stop()
		if !errors.Is(err, syscall.EADDRINUSE) {
			break
		}
	}
	return nil, err
}

// boot reserves the deployment's ports and starts every process on them.
func (c *TCPCluster) boot() error {
	n, opts := c.Cfg.N, c.Opts
	if opts.Forensics != nil {
		c.Forensics = NewAuditor(c.Reg, c.Cfg, crypto.NewAuthority(opts.Seed), *opts.Forensics, opts.Trace)
	}
	// Ops mode reserves one extra port per replica so the scrape surface
	// survives restarts at a fixed address.
	extra := 0
	if opts.Ops {
		extra = n
		c.OpsAddrs = make(map[types.NodeID]string, n)
	}
	addrs, err := reserveAddrs(n + 1 + extra)
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		c.Addrs[types.NodeID(i)] = addrs[i]
		if opts.Ops {
			c.OpsAddrs[types.NodeID(i)] = addrs[n+1+i]
		}
	}
	c.clientAddr = addrs[n]

	for i := 0; i < n; i++ {
		if err := c.startReplica(types.NodeID(i)); err != nil {
			return err
		}
	}
	// The client dials real replica addresses (PeerView interposes on
	// replica-originated dials only) and listens for replies on its own
	// port.
	spec := c.spec(types.ClientIDBase, c.peers(), opts.Trace)
	c.client, err = StartClient(spec, func(req *types.Request) { c.doneCh <- req })
	return err
}

// Now returns wall-clock time since the cluster started — the time base
// every Observer callback reports.
func (c *TCPCluster) Now() time.Duration { return time.Since(c.start) }

// peers returns the deployment's real address table, client included.
func (c *TCPCluster) peers() map[types.NodeID]string {
	peers := make(map[types.NodeID]string, len(c.Addrs)+1)
	for id, addr := range c.Addrs {
		peers[id] = addr
	}
	peers[types.ClientIDBase] = c.clientAddr
	return peers
}

// spec is what every process of this deployment has in common.
func (c *TCPCluster) spec(id types.NodeID, peers map[types.NodeID]string, tr *obsv.Tracer) NodeSpec {
	return NodeSpec{
		ID: id, Reg: c.Reg, Cfg: c.Cfg, Peers: peers, Seed: c.Opts.Seed,
		VerifyWorkers: c.Opts.VerifyWorkers, VerifyCache: c.Opts.VerifyCache,
		Tracer: tr, Observers: c.Opts.Observers, Mu: &c.obsMu, Now: c.Now,
		Auditor: c.Forensics,
	}
}

// startReplica builds one replica process: transport node (through the
// PeerView rewrite), protocol instance, fresh application state.
func (c *TCPCluster) startReplica(id types.NodeID) error {
	peers := c.peers()
	if c.Opts.PeerView != nil {
		view, err := c.Opts.PeerView(id, peers)
		if err != nil {
			return err
		}
		// The node must still listen on its own real address.
		view[id] = c.Addrs[id]
		peers = view
	}
	// Ops mode gives the replica its own tracer (so its /metrics reflect
	// only itself, like a real process); otherwise the shared deployment
	// tracer, when present, aggregates across nodes.
	tracer := c.Opts.Trace
	if c.Opts.Ops {
		tracer = NodeTracer(c.Reg, c.Cfg, id)
	}
	spec := c.spec(id, peers, tracer)
	spec.MakeReplica = c.Opts.MakeReplica
	spec.OpsAddr = c.OpsAddrs[id]
	// Byzantine assignments are read under the cluster mutex so
	// SetByzantine can arm a behavior between a kill and a restart.
	c.mu.Lock()
	spec.Byzantine = c.Opts.Byzantine[id]
	c.mu.Unlock()
	node, err := StartReplica(spec)
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.replicas[id] = node
	c.mu.Unlock()
	return nil
}

// SetByzantine arms (or, with nil, clears) a byz behavior for replica
// id. It affects the next start of that replica: the standard sequence
// for corrupting a node mid-run is KillReplica, SetByzantine,
// RestartReplica — the restarted process comes back wrapped.
func (c *TCPCluster) SetByzantine(id types.NodeID, b byz.Behavior) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.Opts.Byzantine == nil {
		c.Opts.Byzantine = make(map[types.NodeID]byz.Behavior)
	}
	if b == nil {
		delete(c.Opts.Byzantine, id)
		return
	}
	c.Opts.Byzantine[id] = b
}

// KillReplica stops replica id's transport and event loop — process
// death. In-memory protocol and application state is gone; only what
// the protocol can recover from its peers survives.
func (c *TCPCluster) KillReplica(id types.NodeID) {
	c.mu.Lock()
	r := c.replicas[id]
	delete(c.replicas, id)
	c.mu.Unlock()
	if r != nil {
		r.Stop()
	}
}

// RestartReplica boots a brand-new replica process on id's original
// address: fresh protocol state, empty store. It rejoins through the
// protocol's own recovery path (checkpoint state transfer), exactly as
// a respawned process would.
func (c *TCPCluster) RestartReplica(id types.NodeID) error {
	c.mu.Lock()
	_, alive := c.replicas[id]
	c.mu.Unlock()
	if alive {
		return fmt.Errorf("harness: replica %v is still running", id)
	}
	return c.startReplica(id)
}

// Submit issues one operation through the client and returns the
// request. The caller collects completion via AwaitDone.
func (c *TCPCluster) Submit(op []byte) *types.Request {
	c.clientSeq++
	req := &types.Request{
		Client:      types.ClientIDBase,
		ClientSeq:   c.clientSeq,
		Op:          op,
		ArrivalHint: int64(c.Now()),
	}
	c.client.Node.Do(func() { c.client.Client.Submit(req) })
	return req
}

// AwaitDone blocks until the client completes its next request, or
// fails after the timeout.
func (c *TCPCluster) AwaitDone(timeout time.Duration) (*types.Request, error) {
	select {
	case req := <-c.doneCh:
		return req, nil
	case <-time.After(timeout):
		return nil, fmt.Errorf("harness: no request completed within %v", timeout)
	}
}

// Stop shuts down the client and every live replica.
func (c *TCPCluster) Stop() {
	if c.client != nil {
		c.client.Stop()
	}
	c.mu.Lock()
	reps := c.replicas
	c.replicas = make(map[types.NodeID]*TCPNode)
	c.mu.Unlock()
	for _, r := range reps {
		r.Stop()
	}
}

// reserveAddrs picks k distinct loopback ports by listening and closing;
// the transport nodes re-bind the same addresses. Another process can
// take a port in the gap, so a boot that fails to bind is retried on
// fresh reservations (NewTCPCluster).
func reserveAddrs(k int) ([]string, error) {
	addrs := make([]string, k)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	return addrs, nil
}
