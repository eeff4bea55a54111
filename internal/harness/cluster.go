// Package harness assembles deployments on the deterministic simulator,
// collects the metrics every experiment reports (throughput, latency,
// per-replica load, view changes, fairness), and audits safety after
// every run: all honest replicas must have executed byte-identical
// histories. It is the laboratory in which the paper's trade-off claims
// are measured.
package harness

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"bftkit/internal/byz"
	"bftkit/internal/core"
	"bftkit/internal/crypto"
	"bftkit/internal/crypto/vpool"
	"bftkit/internal/forensics"
	"bftkit/internal/kvstore"
	"bftkit/internal/obsv"
	"bftkit/internal/sim"
	"bftkit/internal/types"
)

// Options configures a simulated deployment.
type Options struct {
	// Protocol is the registry name (protocol packages must be imported
	// for side effects by the caller).
	Protocol string
	// N is the replica count. Zero means the profile's minimum for F.
	N int
	// F is the fault threshold. Zero derives it from N via the
	// profile's replica term (or defaults to 1 when both are zero).
	F int
	// Clients is the number of client processes (default 1).
	Clients int
	// Net is the network model (default DefaultLAN).
	Net sim.NetConfig
	// Seed drives all randomness (default 1).
	Seed int64
	// Tune adjusts the derived config before the cluster is built.
	Tune func(*core.Config)
	// MakeReplica, when set, overrides protocol construction for
	// selected replicas (a protocol variant or PBFT's front-running
	// leader; return nil to fall back to the registered constructor).
	// Byzantine faults go through Byzantine.
	MakeReplica func(id types.NodeID, cfg core.Config) core.Protocol
	// Byzantine assigns a byz behavior to selected replicas. The node
	// runs the protocol's honest code wrapped by the behavior
	// (composing with MakeReplica overrides, which it wraps). Audit
	// excludes these nodes automatically.
	Byzantine map[types.NodeID]byz.Behavior
	// Verbose routes replica traces to the given printf.
	Verbose func(format string, args ...any)
	// Trace, when set, observes the whole deployment: every network
	// send/delivery with wire bytes, every crypto op attributed to the
	// node performing it, and commit/execute/view-change/timer events.
	Trace *obsv.Tracer
	// Observers receive the same runtime events Metrics records, after
	// Metrics has. Continuous checkers (the chaos invariant oracle) hook
	// in here rather than monkey-patching hooks.
	Observers []Observer
	// Forensics, when set, runs the accountability auditor on the
	// deployment's delivery stream (sim.Network.SetTap). N, F, and Keys
	// are filled in from the cluster (NewAuditor); Tracer defaults to
	// Trace. The built auditor is exposed as Cluster.Forensics.
	Forensics *forensics.Options
}

// Observer watches a running cluster's protocol-level events. All
// callbacks fire on the simulator's single thread, after the built-in
// metrics collector (the first Observer of every simulated deployment)
// has recorded the same event. An Observer that also has
// OnDeliver(at, from, to, m) additionally sees every message delivery,
// on the simulator and on TCP alike.
type Observer interface {
	OnCommit(id types.NodeID, v types.View, seq types.SeqNum, b *types.Batch, proof *types.CommitProof, at time.Duration)
	OnExecute(id types.NodeID, seq types.SeqNum, b *types.Batch, results [][]byte, at time.Duration)
	OnViewChange(id types.NodeID, v types.View, at time.Duration)
	OnViolation(id types.NodeID, err error)
	OnDone(client types.NodeID, req *types.Request, result []byte, at time.Duration)
}

// Cluster is a running simulated deployment.
type Cluster struct {
	Opts     Options
	Reg      core.Registration
	Cfg      core.Config
	Sched    *sim.Scheduler
	Net      *sim.Network
	Auth     *crypto.Authority
	Engine   *vpool.Engine // always nil: a modeled authority takes no engine
	Replicas []*core.Replica
	Clients  []*core.Client
	Apps     []*kvstore.Store
	Metrics  *Metrics
	// Forensics is the accountability auditor, when Options.Forensics
	// enabled one.
	Forensics *forensics.Auditor

	// DoneHook, when set, observes every completed request after the
	// metrics collector (closed-loop workloads submit the next request
	// from it).
	DoneHook func(client types.NodeID, req *types.Request, result []byte, at time.Duration)

	clientSeqs []uint64
}

type nodeDriver struct {
	id types.NodeID
	c  *Cluster
}

func (d nodeDriver) Now() time.Duration { return d.c.Sched.Now() }
func (d nodeDriver) Rand() *rand.Rand   { return d.c.Sched.Rand() }
func (d nodeDriver) Send(from, to types.NodeID, m types.Message) {
	d.c.Net.Send(from, to, m)
}
func (d nodeDriver) After(t time.Duration, fn func()) func() {
	return d.c.Sched.After(t, fn).Stop
}

// Busy is false: a simulated node has no service time, so no event ever
// waits for it.
func (d nodeDriver) Busy() bool { return false }

// NewCluster builds a deployment. It panics on unknown protocols or
// invalid sizing — harness misuse is a programming error in a test or
// bench, not a runtime condition.
func NewCluster(opts Options) *Cluster {
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.Clients == 0 {
		opts.Clients = 1
	}
	if opts.Net == (sim.NetConfig{}) {
		opts.Net = sim.DefaultLAN()
	}
	reg, cfg, err := Resolve(opts.Protocol, opts.N, opts.F, opts.Tune)
	if err != nil {
		panic("harness: " + err.Error())
	}

	c := &Cluster{
		Opts:    opts,
		Reg:     reg,
		Cfg:     cfg,
		Sched:   sim.NewScheduler(opts.Seed),
		Auth:    crypto.NewModeledAuthority(opts.Seed),
		Metrics: NewMetrics(),
	}
	c.Net = sim.NewNetwork(c.Sched, opts.Net)
	c.Metrics.Trace = opts.Trace
	attachTracer(opts.Trace, c.Net, c.Auth)
	if opts.Forensics != nil {
		c.Forensics = NewAuditor(reg, cfg, c.Auth, *opts.Forensics, opts.Trace)
	}

	// Metrics is simply the first observer. Everything is one thread, so
	// the mutex is never contended, and the clock is the one the runtime
	// stamps events with anyway.
	fan := &fanout{obs: append([]Observer{c.Metrics}, opts.Observers...), mu: new(sync.Mutex), now: c.Sched.Now}
	if tap := fan.tap(c.Forensics); tap != nil {
		c.Net.SetTap(tap)
	}
	hooks := fan.hooks(opts.Verbose, opts.Trace)
	for i := 0; i < cfg.N; i++ {
		id := types.NodeID(i)
		app := kvstore.New()
		proto := newProtocol(reg, cfg, id, opts.MakeReplica, opts.Byzantine[id])
		rep := core.NewReplica(id, cfg, nodeDriver{id, c}, proto, app, c.Auth, hooks)
		c.Apps = append(c.Apps, app)
		c.Replicas = append(c.Replicas, rep)
		c.Net.Register(id, rep)
	}
	chooks := fan.clientHooks(opts.Verbose, func(id types.NodeID, req *types.Request, result []byte, at time.Duration) {
		if c.DoneHook != nil {
			c.DoneHook(id, req, result, at)
		}
	})
	for i := 0; i < opts.Clients; i++ {
		id := types.ClientIDBase + types.NodeID(i)
		cl := core.NewClient(id, cfg, nodeDriver{id, c}, reg.ClientFor(cfg), c.Auth, chooks)
		c.Clients = append(c.Clients, cl)
		c.Net.Register(id, cl)
	}
	c.clientSeqs = make([]uint64, opts.Clients)
	return c
}

// Start initializes all replicas and clients.
func (c *Cluster) Start() {
	for _, r := range c.Replicas {
		r.Start()
	}
	for _, cl := range c.Clients {
		cl.Start()
	}
}

// Submit issues one operation from client i and returns the request.
func (c *Cluster) Submit(i int, op []byte) *types.Request {
	c.clientSeqs[i]++
	req := &types.Request{
		ClientSeq:   c.clientSeqs[i],
		Op:          op,
		ArrivalHint: int64(c.Sched.Now()),
	}
	// Client IDs are assigned in order, so reconstruct it here for the
	// metrics key before the client runtime stamps the request.
	req.Client = types.ClientIDBase + types.NodeID(i)
	c.Metrics.onSubmit(req, c.Sched.Now())
	c.Clients[i].Submit(req)
	return req
}

// Run advances virtual time by d.
func (c *Cluster) Run(d time.Duration) { c.Sched.Run(c.Sched.Now() + d) }

// RunUntilIdle drains all pending events up to an absolute time cap.
func (c *Cluster) RunUntilIdle(cap time.Duration) { c.Sched.RunUntilIdle(cap) }

// Crash fails replica id at the network level and stops its timers.
func (c *Cluster) Crash(id types.NodeID) {
	c.Net.Crash(id)
	c.Replicas[id].Stop()
}

// CrashNet silences a replica at the network level only: its timers keep
// running but nothing it sends reaches the wire and nothing is delivered
// to it. Paired with Restart it models a crash/recovery in which the
// replica's durable state (in-memory, on the simulator) survives.
func (c *Cluster) CrashNet(id types.NodeID) { c.Net.Crash(id) }

// Restart re-attaches a network-crashed replica.
func (c *Cluster) Restart(id types.NodeID) { c.Net.Restart(id) }

// Repro returns the one-line reproduction for this deployment: enough to
// replay the exact deterministic run from the CLI or a test. Failure
// messages should include it so a red CI line is replayable without
// spelunking through harness defaults.
func (c *Cluster) Repro() string {
	if len(c.Opts.Byzantine) > 0 {
		ids := make([]types.NodeID, 0, len(c.Opts.Byzantine))
		for id := range c.Opts.Byzantine {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		var nodes, spec string
		for i, id := range ids {
			if i > 0 {
				nodes += ","
			}
			nodes += fmt.Sprint(int(id))
			spec = byz.Spec(c.Opts.Byzantine[id])
		}
		return fmt.Sprintf("go run ./cmd/bftbench -protocol %s -byz %s -byz-nodes %s -seed %d",
			c.Opts.Protocol, spec, nodes, c.Opts.Seed)
	}
	return fmt.Sprintf("harness run: protocol=%s n=%d f=%d clients=%d seed=%d (deterministic simulator)",
		c.Opts.Protocol, c.Cfg.N, c.Cfg.F, len(c.Clients), c.Opts.Seed)
}

// Audit verifies the safety invariants across all currently honest
// replicas; failed is the set excluded from the check (e.g. crashed
// nodes). Replicas listed in Options.Byzantine are excluded
// automatically — a Byzantine node's own history carries no guarantee.
// It returns an error describing the first violation.
func (c *Cluster) Audit(failed ...types.NodeID) error {
	skip := make(map[types.NodeID]bool, len(failed)+len(c.Opts.Byzantine))
	for _, id := range failed {
		skip[id] = true
	}
	for id := range c.Opts.Byzantine {
		skip[id] = true
	}
	return c.Metrics.AuditSafety(func(id types.NodeID) bool { return !skip[id] })
}
