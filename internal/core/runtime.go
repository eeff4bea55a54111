package core

import (
	"fmt"
	"math/rand"
	"time"

	"bftkit/internal/crypto"
	"bftkit/internal/ledger"
	"bftkit/internal/obsv"
	"bftkit/internal/types"
)

// Driver abstracts the substrate a replica runs on: the deterministic
// simulator (internal/sim) or the TCP transport (internal/transport).
// Drivers guarantee that all callbacks into one replica are serialized.
type Driver interface {
	Now() time.Duration
	After(d time.Duration, fn func()) (cancel func())
	Send(from, to types.NodeID, m types.Message)
	Rand() *rand.Rand
}

// Hooks are the harness's observation points. All fields are optional.
type Hooks struct {
	// OnCommit fires when a replica durably commits a slot.
	OnCommit func(id types.NodeID, view types.View, seq types.SeqNum, b *types.Batch, proof *types.CommitProof, at time.Duration)
	// OnExecute fires when a replica executes a slot (committed order).
	OnExecute func(id types.NodeID, seq types.SeqNum, b *types.Batch, results [][]byte, at time.Duration)
	// OnViewChange fires when a replica enters a new view.
	OnViewChange func(id types.NodeID, v types.View, at time.Duration)
	// OnViolation fires on a detected safety violation (conflicting
	// commits); tests fail the run when it fires.
	OnViolation func(id types.NodeID, err error)
	// Logf receives replica trace output.
	Logf func(format string, args ...any)
	// Trace, when non-nil, receives commit/execute/view-change/timer
	// events (message traffic is reported by the substrate, crypto ops by
	// the authority). All Tracer methods are nil-receiver safe, so leaving
	// this unset costs one predictable branch per event.
	Trace *obsv.Tracer
}

// specEntry records one speculatively executed slot so it can later be
// promoted (on commit) or undone (on rollback).
type specEntry struct {
	seq         types.SeqNum
	digest      types.Digest
	results     [][]byte
	opCount     int
	depthBefore int
	histBefore  types.Digest
	newKeys     []types.RequestKey
}

// DuplicateResult is returned for a request that re-appears in a later
// committed batch (e.g. re-proposed across a view change after its first
// commit). The skip decision depends only on the executed prefix, so it
// is deterministic across replicas.
var DuplicateResult = []byte("duplicate")

// Replica is the runtime adapting one Protocol to a Driver. It implements
// Env and the simulator's Handler interface, owns the ledger, the
// application, and the replica's timers, and enforces in-order execution
// of committed slots (Figure 1's execution stage).
type Replica struct {
	id       types.NodeID
	cfg      Config
	driver   Driver
	proto    Protocol
	app      Application
	led      *ledger.Ledger
	signer   *crypto.Signer
	verifier *crypto.Verifier
	hooks    Hooks

	timers    map[TimerID]func()
	spec      []specEntry
	history   types.Digest
	executed  map[types.RequestKey]bool
	lastReply map[types.NodeID]*types.Reply
	stopped   bool
}

// NewReplica wires a protocol instance to its substrate. Call Start to
// run Protocol.Init.
func NewReplica(id types.NodeID, cfg Config, driver Driver, proto Protocol,
	app Application, auth *crypto.Authority, hooks Hooks) *Replica {
	return &Replica{
		id:        id,
		cfg:       cfg,
		driver:    driver,
		proto:     proto,
		app:       app,
		led:       ledger.New(),
		signer:    auth.Signer(id),
		verifier:  auth.VerifierFor(id),
		hooks:     hooks,
		timers:    make(map[TimerID]func()),
		executed:  make(map[types.RequestKey]bool),
		lastReply: make(map[types.NodeID]*types.Reply),
	}
}

// Start initializes the protocol. Separate from construction so the
// harness can install all replicas before any timer is armed.
func (r *Replica) Start() { r.proto.Init(r) }

// Stop cancels all timers and ignores further events (crash).
func (r *Replica) Stop() {
	r.stopped = true
	for id, cancel := range r.timers {
		cancel()
		delete(r.timers, id)
	}
}

// Stopped reports whether the replica has been stopped.
func (r *Replica) Stopped() bool { return r.stopped }

// Protocol returns the protocol instance (tests reach into it).
func (r *Replica) Protocol() Protocol { return r.proto }

// Deliver implements the driver-facing receive path.
func (r *Replica) Deliver(from types.NodeID, m types.Message) {
	if r.stopped {
		return
	}
	switch mm := m.(type) {
	case *RequestMsg:
		// At-most-once retransmission handling for every protocol: if
		// this replica already replied to exactly this request, resend
		// the cached signed reply. A client whose f+1 matching replies
		// were all lost (a partition or crash window) retransmits, and
		// protocols drop already-executed requests from admission — so
		// without the resend the client would starve forever on a
		// request the cluster long since committed.
		if last := r.lastReply[mm.Req.Client]; last != nil && last.ClientSeq == mm.Req.ClientSeq {
			r.Send(last.Client, &ReplyMsg{R: last})
			return
		}
		r.proto.OnRequest(mm.Req)
	default:
		r.proto.OnMessage(from, m)
	}
}

// --- Env implementation ---

// ID implements Env.
func (r *Replica) ID() types.NodeID { return r.id }

// N implements Env.
func (r *Replica) N() int { return r.cfg.N }

// F implements Env.
func (r *Replica) F() int { return r.cfg.F }

// Config implements Env.
func (r *Replica) Config() Config { return r.cfg }

// Replicas implements Env.
func (r *Replica) Replicas() []types.NodeID { return r.cfg.AllReplicas() }

// Send implements Env.
func (r *Replica) Send(to types.NodeID, m types.Message) {
	if r.stopped {
		return
	}
	r.driver.Send(r.id, to, m)
}

// Broadcast implements Env: send to every replica except self.
func (r *Replica) Broadcast(m types.Message) {
	for i := 0; i < r.cfg.N; i++ {
		if types.NodeID(i) != r.id {
			r.Send(types.NodeID(i), m)
		}
	}
}

// SetTimer implements Env. Re-arming an existing ID resets it.
func (r *Replica) SetTimer(id TimerID, d time.Duration) {
	if r.stopped {
		return
	}
	if cancel, ok := r.timers[id]; ok {
		cancel()
	}
	r.timers[id] = r.driver.After(d, func() {
		if r.stopped {
			return
		}
		delete(r.timers, id)
		r.hooks.Trace.TimerFired(r.Now(), r.id, id.Name, id.View, id.Seq)
		r.proto.OnTimer(id)
	})
}

// StopTimer implements Env.
func (r *Replica) StopTimer(id TimerID) {
	if cancel, ok := r.timers[id]; ok {
		cancel()
		delete(r.timers, id)
	}
}

// Now implements Env.
func (r *Replica) Now() time.Duration { return r.driver.Now() }

// Rand implements Env.
func (r *Replica) Rand() *rand.Rand { return r.driver.Rand() }

// Signer implements Env.
func (r *Replica) Signer() *crypto.Signer { return r.signer }

// Verifier implements Env.
func (r *Replica) Verifier() *crypto.Verifier { return r.verifier }

// Scheme implements Env.
func (r *Replica) Scheme() crypto.Scheme { return r.cfg.Scheme }

// Ledger implements Env.
func (r *Replica) Ledger() *ledger.Ledger { return r.led }

// App implements Env.
func (r *Replica) App() Application { return r.app }

// Commit implements Env: record the decided slot and execute any newly
// contiguous prefix.
func (r *Replica) Commit(view types.View, seq types.SeqNum, b *types.Batch, proof *types.CommitProof) {
	if proof != nil {
		proof.NormalizeVoters()
	}
	fresh, err := r.led.Commit(&ledger.Entry{Seq: seq, View: view, Batch: b, Proof: proof})
	if err != nil {
		r.violation(err)
		return
	}
	if fresh {
		r.hooks.Trace.Commit(r.Now(), r.id, view, seq)
		if r.hooks.OnCommit != nil {
			r.hooks.OnCommit(r.id, view, seq, b, proof, r.Now())
		}
	}
	r.executeReady()
}

func (r *Replica) violation(err error) {
	r.Logf("SAFETY VIOLATION: %v", err)
	if r.hooks.OnViolation != nil {
		r.hooks.OnViolation(r.id, err)
	}
}

// executeReady applies committed slots in order, resolving speculative
// executions: a matching speculative slot is promoted (its results kept),
// a mismatched one is rolled back and re-executed from the decided batch.
func (r *Replica) executeReady() {
	for {
		e := r.led.NextExecutable()
		if e == nil {
			return
		}
		results := r.resolveCommitted(e)
		if err := r.led.MarkExecuted(e.Seq); err != nil {
			r.violation(err)
			return
		}
		r.hooks.Trace.Execute(r.Now(), r.id, e.Seq)
		if r.hooks.OnExecute != nil {
			r.hooks.OnExecute(r.id, e.Seq, e.Batch, results, r.Now())
		}
		r.proto.OnExecuted(e.Seq, e.Batch, results)
	}
}

func (r *Replica) resolveCommitted(e *ledger.Entry) [][]byte {
	digest := e.Batch.Digest()
	if len(r.spec) > 0 && r.spec[0].seq == e.Seq {
		head := r.spec[0]
		if head.digest == digest {
			// Speculation was right: keep effects, drop undo records.
			r.app.Promote(head.opCount)
			r.spec = r.spec[1:]
			return head.results
		}
		// Speculation diverged from the decided order: undo this slot
		// and everything after it, then execute the decided batch.
		r.rollbackSpecFrom(0)
	} else if len(r.spec) > 0 && r.spec[0].seq < e.Seq {
		// A speculative slot was skipped by the decided order.
		r.rollbackSpecFrom(0)
	}
	return r.applyBatch(e.Batch, digest)
}

// applyBatch executes b, whose digest the caller has already computed.
func (r *Replica) applyBatch(b *types.Batch, digest types.Digest) [][]byte {
	results := make([][]byte, b.Len())
	for i, req := range b.Requests {
		key := req.Key()
		if r.executed[key] {
			results[i] = DuplicateResult
			continue
		}
		r.executed[key] = true
		results[i] = r.app.Apply(req.Op)
	}
	r.history = chainHistory(r.history, digest)
	return results
}

func chainHistory(prev, batch types.Digest) types.Digest {
	var h types.Hasher
	h.Digest(prev).Digest(batch)
	return h.Sum()
}

// SpecExecute implements Env (DC7/DC8 speculative execution).
func (r *Replica) SpecExecute(seq types.SeqNum, b *types.Batch) [][]byte {
	if seq <= r.led.LastExecuted() {
		return nil // already executed through commit path
	}
	if len(r.spec) > 0 && seq <= r.spec[len(r.spec)-1].seq {
		return nil // already speculated
	}
	entry := specEntry{
		seq:         seq,
		digest:      b.Digest(),
		depthBefore: r.app.SpecDepth(),
		histBefore:  r.history,
	}
	results := make([][]byte, b.Len())
	for i, req := range b.Requests {
		key := req.Key()
		if r.executed[key] {
			results[i] = DuplicateResult
			continue
		}
		r.executed[key] = true
		entry.newKeys = append(entry.newKeys, key)
		res, _ := r.app.SpecApply(req.Op)
		results[i] = res
		entry.opCount++
	}
	entry.results = results
	r.history = chainHistory(r.history, entry.digest)
	r.spec = append(r.spec, entry)
	return results
}

// RollbackSpecAbove implements Env.
func (r *Replica) RollbackSpecAbove(seq types.SeqNum) {
	for i, se := range r.spec {
		if se.seq > seq {
			r.rollbackSpecFrom(i)
			return
		}
	}
}

// rollbackSpecFrom undoes spec entries i.. (oldest of the suffix first in
// bookkeeping; the store unwinds newest-first internally).
func (r *Replica) rollbackSpecFrom(i int) {
	if i >= len(r.spec) {
		return
	}
	first := r.spec[i]
	for _, se := range r.spec[i:] {
		for _, k := range se.newKeys {
			delete(r.executed, k)
		}
	}
	r.app.Rollback(first.depthBefore)
	r.history = first.histBefore
	r.spec = r.spec[:i]
}

// SpecTip returns the highest speculatively executed sequence number
// (ledger.LastExecuted if none).
func (r *Replica) SpecTip() types.SeqNum {
	if len(r.spec) > 0 {
		return r.spec[len(r.spec)-1].seq
	}
	return r.led.LastExecuted()
}

// HistoryDigest implements Env.
func (r *Replica) HistoryDigest() types.Digest { return r.history }

// Reply implements Env: sign and deliver a reply to its client.
func (r *Replica) Reply(rp *types.Reply) {
	rp.Replica = r.id
	rp.Sig = r.signer.Sign(rp.Digest())
	// Cache only replies whose slot is committed-executed. Speculative
	// replies (DC7/DC8 fast paths) may be rolled back, and serving one
	// from the cache would both resend a retracted result and hide the
	// retransmission from the protocol's re-ordering path.
	if rp.Seq <= r.led.LastExecuted() {
		cp := *rp
		r.lastReply[rp.Client] = &cp
	}
	r.Send(rp.Client, &ReplyMsg{R: rp})
}

// ViewChanged implements Env.
func (r *Replica) ViewChanged(v types.View) {
	r.hooks.Trace.ViewChange(r.Now(), r.id, v)
	if r.hooks.OnViewChange != nil {
		r.hooks.OnViewChange(r.id, v, r.Now())
	}
}

// Logf implements Env.
func (r *Replica) Logf(format string, args ...any) {
	if r.hooks.Logf != nil {
		r.hooks.Logf(fmt.Sprintf("t=%-12v %v: ", r.Now(), r.id)+format, args...)
	}
}
