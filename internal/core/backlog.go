package core

import "bftkit/internal/types"

// Backlog is the request intake shared by the stable-leader protocols
// (dimension P3): the arrival-ordered queue of known, unexecuted
// requests; the in-flight marks that keep a request out of a second slot
// of the same view; the watch set that says "a client is waiting"; the
// done set; and the τ2 progress timer that turns an unanswered watch set
// into leader suspicion.
//
// The τ2 rule is level-triggered: the timer is armed when the first
// watched request appears and is NOT pushed out by later requests —
// otherwise a faulty leader would never be suspected under continuous
// load. Only progress (an executed or speculatively executed slot)
// restarts it, and only while someone is still waiting.
type Backlog struct {
	env   Env
	timer string // τ2 timer name; "" disables the timer (client-driven fault detection)
	view  types.View

	pending  []*types.Request
	queued   map[types.RequestKey]bool
	inFlight map[types.RequestKey]bool
	watch    map[types.RequestKey]bool
	done     map[types.RequestKey]bool

	armed     bool
	suspended bool
}

// NewBacklog returns an empty backlog whose τ2 timer fires under the
// given name; an empty name means the protocol has no progress timer.
func NewBacklog(env Env, progressTimer string) *Backlog {
	return &Backlog{
		env:      env,
		timer:    progressTimer,
		queued:   make(map[types.RequestKey]bool),
		inFlight: make(map[types.RequestKey]bool),
		watch:    make(map[types.RequestKey]bool),
		done:     make(map[types.RequestKey]bool),
	}
}

// Submit is the common OnRequest path. It drops executed and forged
// requests, watches the request, queues it if it is new, and forwards it
// to the leader when this replica is not the leader — every replica
// buffers, so a backup that later becomes leader proposes its backlog.
// It reports whether the caller should now try to propose: this replica
// leads and the request was not queued before.
func (b *Backlog) Submit(req *types.Request, leader types.NodeID) bool {
	key := req.Key()
	if b.done[key] || !b.env.Verifier().VerifySig(req.Client, req.Digest(), req.Sig) {
		return false
	}
	b.Watch(key)
	fresh := !b.queued[key]
	if fresh {
		b.queued[key] = true
		b.pending = append(b.pending, req)
	}
	if leader != b.env.ID() {
		b.env.Send(leader, &ForwardMsg{Req: req})
		return false
	}
	return fresh
}

// Watch notes that a client is waiting on key and arms τ2 if it is idle.
func (b *Backlog) Watch(key types.RequestKey) {
	b.watch[key] = true
	b.arm()
}

// Done reports whether the request has been executed.
func (b *Backlog) Done(key types.RequestKey) bool { return b.done[key] }

// Len bounds the queue length from above: executed requests leave the
// queue lazily, on the next Pending or Take.
func (b *Backlog) Len() int { return len(b.pending) }

// Pending drops executed requests from the queue and returns what is
// left in arrival order. Requests stay queued until they execute, so a
// proposal lost to a view change is proposed again rather than dropped.
func (b *Backlog) Pending() []*types.Request {
	live := b.pending[:0]
	for _, req := range b.pending {
		if key := req.Key(); b.queued[key] && !b.done[key] {
			live = append(live, req)
		}
	}
	b.pending = live
	return live
}

// Claim marks a queued request as in flight — inside a proposed,
// unexecuted slot of the current view — and reports whether it was free.
func (b *Backlog) Claim(req *types.Request) bool {
	key := req.Key()
	if b.inFlight[key] {
		return false
	}
	b.inFlight[key] = true
	return true
}

// Take claims up to k proposable requests in arrival order.
func (b *Backlog) Take(k int) []*types.Request {
	var out []*types.Request
	for _, req := range b.Pending() {
		if len(out) == k {
			break
		}
		if b.Claim(req) {
			out = append(out, req)
		}
	}
	return out
}

// Proposed records an accepted proposal: its requests are watched and in
// flight, whether or not this replica saw them arrive. Requests that
// already executed are skipped — a proposal that arrives after its slot
// was decided elsewhere must not leave τ2 waiting for an answer that has
// long been sent.
func (b *Backlog) Proposed(batch *types.Batch) {
	for _, req := range batch.Requests {
		if key := req.Key(); !b.done[key] {
			b.watch[key] = true
			b.inFlight[key] = true
		}
	}
	if len(b.watch) > 0 {
		b.arm()
	}
}

// Executed retires a batch's requests. Call Progress once the replies
// are out.
func (b *Backlog) Executed(batch *types.Batch) {
	for _, req := range batch.Requests {
		key := req.Key()
		delete(b.watch, key)
		delete(b.queued, key)
		delete(b.inFlight, key)
		b.done[key] = true
	}
}

// Progress restarts τ2 after the leader demonstrably moved: the running
// timer is cancelled and a fresh one armed only if a client still waits.
func (b *Backlog) Progress() {
	b.disarm()
	if len(b.watch) > 0 {
		b.arm()
	}
}

// Expired handles the τ2 timer event and reports whether it is live
// evidence against the leader: armed under the current view with a
// client still waiting.
func (b *Backlog) Expired(id TimerID) bool {
	b.armed = false
	return id.View == b.view && len(b.watch) > 0
}

// Suspend stops τ2 for the duration of a view change, whose own retry
// timer takes over.
func (b *Backlog) Suspend() {
	b.disarm()
	b.suspended = true
}

// EnterView moves the backlog into view v: proposals of older views are
// void, so every in-flight mark is cleared (the runtime's dedup makes
// re-execution impossible), and τ2 restarts under v if a client waits.
func (b *Backlog) EnterView(v types.View) {
	b.disarm()
	b.view = v
	b.suspended = false
	b.inFlight = make(map[types.RequestKey]bool)
	if len(b.watch) > 0 {
		b.arm()
	}
}

func (b *Backlog) arm() {
	if b.armed || b.suspended || b.timer == "" {
		return
	}
	b.armed = true
	b.env.SetTimer(TimerID{Name: b.timer, View: b.view}, b.env.Config().ViewChangeTimeout)
}

func (b *Backlog) disarm() {
	if b.timer == "" {
		return
	}
	b.armed = false
	b.env.StopTimer(TimerID{Name: b.timer, View: b.view})
}

// ReplyExecuted answers every request of an executed batch with its result
// — the OnExecuted reply loop of every protocol whose replicas all answer
// clients directly. A speculative reply also carries the history digest.
func ReplyExecuted(env Env, view types.View, seq types.SeqNum, batch *types.Batch, results [][]byte, speculative bool) {
	for i, req := range batch.Requests {
		r := &types.Reply{
			Client:      req.Client,
			ClientSeq:   req.ClientSeq,
			View:        view,
			Seq:         seq,
			Result:      results[i],
			Speculative: speculative,
		}
		if speculative {
			r.History = env.HistoryDigest()
		}
		env.Reply(r)
	}
}
