// Package byz is a library of composable Byzantine replica behaviors.
// The paper's premise is an *untrusted* environment — up to f replicas
// may deviate arbitrarily, not merely crash — so the harness needs
// adversaries that are protocol-agnostic: a behavior wraps ANY
// registered protocol by interposing on the core.Protocol and core.Env
// surfaces. The wrapped replica runs the protocol's honest code but
// every outgoing message, reply, and timer passes through the behavior,
// which may drop, delay, replace, or fabricate traffic. Because the
// wrapper holds the replica's own signer it can produce validly-signed
// equivocations — but, like a real Byzantine node, it can never forge
// another replica's signature.
//
// Behaviors are assigned per node through harness.Options.Byzantine and
// run on the deterministic simulator: a seeded byz run replays
// identically, which is what makes attack experiments (X14, X16)
// reproducible.
package byz

import (
	"fmt"
	"time"

	"bftkit/internal/core"
	"bftkit/internal/types"
)

// Behavior is a Byzantine strategy. A Behavior value is configuration
// only; New instantiates the per-replica Actor so one Behavior can be
// assigned to several nodes without sharing mutable state.
type Behavior interface {
	Name() string
	New() Actor
}

// Verdict is an Actor's decision about one outgoing message.
type Verdict struct {
	Drop    bool          // suppress the message entirely
	Delay   time.Duration // hold the message for this long before sending
	Replace types.Message // if non-nil, substitute the payload
}

// Tools is what an Actor gets to work with. All of it is deterministic
// under the simulator's seed.
type Tools struct {
	// Env is the replica's real environment (identity, config, signer,
	// virtual clock). Sending through it bypasses interception.
	Env core.Env
	// Raw sends a message without routing it back through the actor —
	// used to emit fabricated traffic without re-interception.
	Raw func(to types.NodeID, m types.Message)
	// After schedules fn on the replica's virtual clock.
	After func(d time.Duration, fn func())
}

// Actor is the per-replica instance of a Behavior.
type Actor interface {
	// Init runs once, before any protocol event.
	Init(t *Tools)
	// Outgoing judges every message the wrapped protocol sends
	// (including each recipient of a broadcast separately, which is
	// what makes equivocation possible).
	Outgoing(to types.NodeID, m types.Message) Verdict
	// OutgoingReply may mutate a reply before the runtime stamps and
	// authenticates it; the stamped ReplyMsg then passes through
	// Outgoing too.
	OutgoingReply(rp *types.Reply)
	// Incoming sees every client request delivered to the replica.
	Incoming(req *types.Request)
}

// Passive is a no-op Actor base; embed it and override what you need.
type Passive struct{}

func (Passive) Init(*Tools)                                  {}
func (Passive) Outgoing(types.NodeID, types.Message) Verdict { return Verdict{} }
func (Passive) OutgoingReply(*types.Reply)                   {}
func (Passive) Incoming(*types.Request)                      {}

// Wrap interposes behavior b between proto and its environment. The
// returned value implements core.Protocol and is handed to the replica
// runtime in place of proto.
func Wrap(proto core.Protocol, b Behavior) core.Protocol {
	return &wrapper{inner: proto, actor: b.New()}
}

// wrapper implements both core.Protocol (facing the runtime) and
// core.Env (facing the wrapped protocol). The runtime invokes the
// wrapper's protocol methods; the wrapper's Init hands itself to the
// inner protocol as its environment, so every send the honest code
// makes is mediated by the actor.
type wrapper struct {
	core.Env // the real environment, set in Init

	inner     core.Protocol
	actor     Actor
	timers    map[string]func()
	nextTimer int
}

const timerPrefix = "byz|"

// Init implements core.Protocol.
func (w *wrapper) Init(env core.Env) {
	w.Env = env
	w.timers = make(map[string]func())
	w.actor.Init(&Tools{Env: env, Raw: env.Send, After: w.after})
	w.inner.Init(w)
}

// OnRequest implements core.Protocol.
func (w *wrapper) OnRequest(req *types.Request) {
	w.actor.Incoming(req)
	w.inner.OnRequest(req)
}

// OnMessage implements core.Protocol.
func (w *wrapper) OnMessage(from types.NodeID, m types.Message) { w.inner.OnMessage(from, m) }

// OnExecuted implements core.Protocol.
func (w *wrapper) OnExecuted(seq types.SeqNum, batch *types.Batch, results [][]byte) {
	w.inner.OnExecuted(seq, batch, results)
}

// OnTimer implements core.Protocol. The runtime routes every timer the
// replica set — including ones the wrapper registered for delayed
// sends — back through the protocol it was constructed with, i.e. this
// wrapper; byz-internal timers are dispatched here, the rest forwarded.
func (w *wrapper) OnTimer(id core.TimerID) {
	if fn, ok := w.timers[id.Name]; ok {
		delete(w.timers, id.Name)
		fn()
		return
	}
	w.inner.OnTimer(id)
}

func (w *wrapper) after(d time.Duration, fn func()) {
	w.nextTimer++
	name := fmt.Sprintf("%s%d", timerPrefix, w.nextTimer)
	w.timers[name] = fn
	w.Env.SetTimer(core.TimerID{Name: name}, d)
}

// Send implements core.Env with actor mediation.
func (w *wrapper) Send(to types.NodeID, m types.Message) {
	v := w.actor.Outgoing(to, m)
	if v.Drop {
		return
	}
	if v.Replace != nil {
		m = v.Replace
	}
	if v.Delay > 0 {
		w.after(v.Delay, func() { w.Env.Send(to, m) })
		return
	}
	w.Env.Send(to, m)
}

// Broadcast implements core.Env by fanning out through Send, so the
// actor judges every recipient independently — the hook equivocation
// needs to show different replicas different batches at the same seq.
func (w *wrapper) Broadcast(m types.Message) {
	self := w.Env.ID()
	for _, id := range w.Env.Replicas() {
		if id == self {
			continue
		}
		w.Send(id, m)
	}
}

// Reply implements core.Env. It stamps the reply as the runtime does
// (core.AuthenticateReply) so the outgoing REPLY routes through the
// actor like any other send; the runtime's own Reply would bypass
// interception. The actor mutates first — a result corrupted here is
// then signed or MAC'd, modeling a Byzantine replica that executes
// wrongly but authenticates honestly.
func (w *wrapper) Reply(rp *types.Reply) {
	w.actor.OutgoingReply(rp)
	core.AuthenticateReply(w.Env, rp)
	w.Send(rp.Client, &core.ReplyMsg{R: rp})
}
