package core

import (
	"time"

	"bftkit/internal/types"
)

// ViewChangeVote is what the view-change skeleton needs to see of a
// protocol's signed view-change message. What else the message carries —
// prepared certificates, speculative histories, accepted slots — is the
// protocol's business.
type ViewChangeVote interface {
	types.Message
	// Vote returns the view the sender wants to enter, the sender, and
	// its signature over SigDigest.
	Vote() (newView types.View, replica types.NodeID, sig []byte)
	SigDigest() types.Digest
}

// ViewChangeHooks are the two places a stable-leader protocol differs
// inside the common view-change frame.
type ViewChangeHooks[VC ViewChangeVote] struct {
	// Build returns this replica's signed view-change message for view
	// v: what it carries is the protocol's recovery state.
	Build func(v types.View) VC
	// NewView runs at the leader of v once a quorum of messages for v is
	// in: validate the proofs they carry, choose the new view's slots
	// from the valid ones, broadcast the new-view message and install
	// it. The messages are relayed inside the new-view message, so they
	// must not be modified — a stripped proof breaks the sender's
	// signature at every backup.
	NewView func(v types.View, vcs []VC)
}

// ViewChange is the view-change skeleton of the stable-leader protocols
// (dimension P3). It owns the current view, the "view change running"
// flag and its target, the table of received view-change messages and the
// sent-new-view marks, and with them every rule that is the same in all
// of them: when a view change may start, how a received message is
// authenticated and recorded, when to join others' view change, when the
// next leader has its quorum, whether a new-view message is justified,
// and what is reset on entering a view.
type ViewChange[VC ViewChangeVote] struct {
	env     Env
	backlog *Backlog
	timer   string // retry timer name (τ2 for consecutive view changes)
	quorum  int
	hooks   ViewChangeHooks[VC]

	view     types.View
	active   bool
	target   types.View
	adopting bool
	votes    Tally[types.View, VC]
	sent     map[types.View]bool
	onEnter  func() // the ordering stage's reset, see OnEnter

	// RetryAfter is how long a started view change may stall before the
	// replica moves on to the next view. It is reset to the configured
	// ViewChangeTimeout on entering a view; a protocol with back-off
	// raises it between consecutive attempts.
	RetryAfter time.Duration
}

// NewViewChange returns the skeleton for one replica. quorum is how many
// view-change messages justify a new view (2f+1 for most protocols).
func NewViewChange[VC ViewChangeVote](env Env, backlog *Backlog, retryTimer string, quorum int, hooks ViewChangeHooks[VC]) *ViewChange[VC] {
	return &ViewChange[VC]{
		env:        env,
		backlog:    backlog,
		timer:      retryTimer,
		quorum:     quorum,
		hooks:      hooks,
		sent:       make(map[types.View]bool),
		RetryAfter: env.Config().ViewChangeTimeout,
	}
}

// View returns the view this replica is in.
func (vc *ViewChange[VC]) View() types.View { return vc.view }

// Active reports whether a view change is running; ordering messages are
// not processed while it is.
func (vc *ViewChange[VC]) Active() bool { return vc.active }

// Leader returns the current view's leader.
func (vc *ViewChange[VC]) Leader() types.NodeID { return vc.env.Config().LeaderOf(vc.view) }

// Leading reports whether this replica leads the current view.
func (vc *ViewChange[VC]) Leading() bool { return vc.Leader() == vc.env.ID() }

// MayPropose reports whether this replica may assign a fresh sequence
// number now: it leads the current view, no view change is running, and
// it is not in the middle of adopting a new view's carried slots.
func (vc *ViewChange[VC]) MayPropose() bool { return vc.Leading() && !vc.active && !vc.adopting }

// OnEnter registers fn to run whenever the replica enters a view: Slots
// drops the old view's ordering state there.
func (vc *ViewChange[VC]) OnEnter(fn func()) { vc.onEnter = fn }

// Start begins (or escalates) a view change toward view v, or the next
// view if v is not ahead. A running view change only ever moves to a
// higher target.
func (vc *ViewChange[VC]) Start(v types.View) {
	if v <= vc.view {
		v = vc.view + 1
	}
	if vc.active && v <= vc.target {
		return
	}
	vc.active = true
	vc.target = v
	vc.backlog.Suspend()
	m := vc.hooks.Build(v)
	vc.votes.Replace(v, vc.env.ID(), m)
	vc.env.Broadcast(m)
	vc.env.SetTimer(TimerID{Name: vc.timer, View: v}, vc.RetryAfter)
}

// RetryDue reports whether a fired retry timer belongs to the view
// change still running.
func (vc *ViewChange[VC]) RetryDue(id TimerID) bool {
	return vc.active && id.View == vc.target
}

// Retry handles the retry timer: the view change toward the target
// stalled (its leader may be faulty too), so try the view after it.
func (vc *ViewChange[VC]) Retry(id TimerID) {
	if vc.RetryDue(id) {
		vc.Start(vc.target + 1)
	}
}

// OnTimer handles the two τ2 timers every stable-leader protocol runs the
// same way: the backlog's progress timer, whose expiry with a client still
// waiting is evidence against the leader and starts a view change, and the
// retry timer of a stalled view change. Timers of any other name are the
// protocol's own and are ignored.
func (vc *ViewChange[VC]) OnTimer(id TimerID) {
	switch id.Name {
	case vc.backlog.timer:
		if vc.backlog.Expired(id) {
			vc.Start(vc.view + 1)
		}
	case vc.timer:
		vc.Retry(id)
	}
}

// OnViewChange handles a view-change message from a peer.
func (vc *ViewChange[VC]) OnViewChange(from types.NodeID, m VC) {
	v, replica, sig := m.Vote()
	if replica != from || v <= vc.view {
		return
	}
	if !vc.env.Verifier().VerifySig(from, m.SigDigest(), sig) {
		return
	}
	vc.votes.Replace(v, from, m)

	// Join rule (PBFT's, for liveness): once f+1 distinct other replicas
	// ask for views above ours, at least one of them is honest, so join
	// the smallest view any of them asks for — a partitioned minority
	// cannot stall us, and one Byzantine replica signing view-changes
	// for many views is still one sender.
	if !vc.active || v > vc.target {
		ahead, lowest := Ahead(&vc.votes, vc.view, vc.env.ID())
		if ahead >= vc.env.F()+1 && (!vc.active || lowest > vc.target) {
			vc.Start(lowest)
		}
	}
	vc.maybeNewView(v)
}

func (vc *ViewChange[VC]) maybeNewView(v types.View) {
	if vc.env.Config().LeaderOf(v) != vc.env.ID() || vc.sent[v] {
		return
	}
	votes := vc.votes.Votes(v)
	if len(votes) < vc.quorum {
		return
	}
	vc.sent[v] = true
	vcs := make([]VC, len(votes))
	for i, vote := range votes {
		vcs[i] = vote.Val
	}
	vc.hooks.NewView(v, vcs)
}

// Justified reports whether a new-view message for view v, signed by
// from over digest, may be installed: it is not stale, it comes from v's
// leader, and it carries a quorum of validly signed view-change messages
// for exactly v from distinct replicas.
func (vc *ViewChange[VC]) Justified(from types.NodeID, v types.View, digest types.Digest, sig []byte, vcs []VC) bool {
	if v < vc.view || (v == vc.view && !vc.active) {
		return false
	}
	if from != vc.env.Config().LeaderOf(v) || !vc.env.Verifier().VerifySig(from, digest, sig) {
		return false
	}
	if len(vcs) < vc.quorum {
		return false
	}
	var signers Tally[types.View, struct{}]
	for _, m := range vcs {
		mv, replica, msig := m.Vote()
		if mv != v || signers.Add(v, replica, struct{}{}) == 0 {
			return false
		}
		if !vc.env.Verifier().VerifySig(replica, m.SigDigest(), msig) {
			return false
		}
	}
	return true
}

// Enter moves the replica into view v — on installing a new-view message
// or on jumping to a view the cluster demonstrably reached. The running
// view change (if any) is over, the retry timer and its back-off are
// reset, view-change messages for views up to v are garbage-collected,
// and the backlog re-opens under v.
func (vc *ViewChange[VC]) Enter(v types.View) {
	vc.view = v
	vc.active = false
	vc.RetryAfter = vc.env.Config().ViewChangeTimeout
	vc.env.StopTimer(TimerID{Name: vc.timer, View: v})
	vc.env.ViewChanged(v)
	vc.votes.Prune(func(k types.View) bool { return k <= v })
	for k := range vc.sent {
		if k <= v {
			delete(vc.sent, k)
		}
	}
	if vc.onEnter != nil {
		vc.onEnter()
	}
	vc.backlog.EnterView(v)
}

// Install enters view v and runs adopt — the protocol's adoption of what
// the new-view message carries (committed slots, re-issued proposals) —
// with proposing held until adopt returns. Committing a carried slot
// executes it and re-enters the protocol's OnExecuted; a new leader that
// proposed from there would hand out sequence numbers the new-view
// message has already assigned, equivocating against itself.
func (vc *ViewChange[VC]) Install(v types.View, adopt func()) {
	vc.Enter(v)
	vc.adopting = true
	adopt()
	vc.adopting = false
}

// Forget discards the received view-change messages (proactive recovery
// drops volatile state and rebuilds from what peers resend).
func (vc *ViewChange[VC]) Forget() { vc.votes = Tally[types.View, VC]{} }

// SlotClaims is how a new leader without transferable certificates picks
// the new view's slots (FaB, CheapBFT, Themis, Zyzzyva): every
// view-change sender claims, per sequence number, the batch it accepted
// there, and the most-claimed batch wins. A slot some client saw
// complete is claimed by a majority of the honest senders in any
// view-change quorum, so it always wins. Each sender has one claim per
// slot — a Byzantine view-change listing a slot many times is one claim.
type SlotClaims struct {
	claims  Tally[types.SeqNum, types.Digest]
	batches map[types.Digest]*types.Batch
	// Max is the highest sequence number claimed.
	Max types.SeqNum
}

// Add records that from claims batch (with the given digest) at seq. A
// claim whose batch does not hash to its digest is ignored.
func (c *SlotClaims) Add(from types.NodeID, seq types.SeqNum, digest types.Digest, batch *types.Batch) {
	if batch == nil || batch.Digest() != digest || c.claims.Add(seq, from, digest) == 0 {
		return
	}
	if c.batches == nil {
		c.batches = make(map[types.Digest]*types.Batch)
	}
	c.batches[digest] = batch
	if seq > c.Max {
		c.Max = seq
	}
}

// Claimed returns the distinct batches claimed at seq, in order of first
// claim.
func (c *SlotClaims) Claimed(seq types.SeqNum) []*types.Batch {
	var out []*types.Batch
	seen := make(map[types.Digest]bool)
	for _, v := range c.claims.Votes(seq) {
		if !seen[v.Val] {
			seen[v.Val] = true
			out = append(out, c.batches[v.Val])
		}
	}
	return out
}

// Best returns the most-claimed batch at seq (of equals, the one that
// got there first), or the empty no-op batch that fills a slot nobody
// claims.
func (c *SlotClaims) Best(seq types.SeqNum) *types.Batch {
	best, most := types.NewBatch(), 0
	counts := make(map[types.Digest]int)
	for _, v := range c.claims.Votes(seq) {
		if counts[v.Val]++; counts[v.Val] > most {
			best, most = c.batches[v.Val], counts[v.Val]
		}
	}
	return best
}

// RetainedCommitted calls yield for every committed slot this replica
// still retains above its stable checkpoint, with its commit proof's
// voters: what a view-change message carries so that replicas that were
// passive or dark catch up from the new-view message.
func RetainedCommitted(env Env, yield func(view types.View, seq types.SeqNum, batch *types.Batch, voters []types.NodeID)) {
	for _, e := range env.Ledger().CommittedAbove(env.Ledger().LowWater()) {
		var voters []types.NodeID
		if e.Proof != nil {
			voters = e.Proof.Voters
		}
		yield(e.View, e.Seq, e.Batch, voters)
	}
}

// AdoptCommitted commits a slot carried by a new-view message unless
// this replica already executed it.
func AdoptCommitted(env Env, view types.View, seq types.SeqNum, batch *types.Batch, voters []types.NodeID) {
	if seq <= env.Ledger().LastExecuted() {
		return
	}
	proof := &types.CommitProof{View: view, Seq: seq, Digest: batch.Digest(),
		Voters: append([]types.NodeID(nil), voters...)}
	env.Commit(view, seq, batch, proof)
}
