package core

import (
	"cmp"
	"maps"
	"slices"
	"time"

	"bftkit/internal/crypto"
	"bftkit/internal/ledger"
	"bftkit/internal/types"
)

// CommittedSlot is a committed slot carried by a view-change or new-view
// message (and by PBFT's catch-up), so that replicas that were passive or
// dark learn it. Cert is the transferable commit certificate where the
// protocol has one.
type CommittedSlot struct {
	View   types.View
	Seq    types.SeqNum
	Batch  *types.Batch
	Voters []types.NodeID
	Cert   *crypto.Certificate
}

// CarriedSlot is an uncommitted slot crossing a view change. In a
// view-change message it is one the sender vouches for in View, with
// whatever evidence its protocol has: a quorum certificate (SBFT, PoE,
// Kauri), the certificate plus the leader's proposal signature (PBFT), or
// the sender's word alone (FaB, CheapBFT, Themis, Zyzzyva). In a new-view
// message it is the new leader's proposal for View, signed in LeaderSig.
type CarriedSlot struct {
	View      types.View
	Seq       types.SeqNum
	Digest    types.Digest
	Batch     *types.Batch
	Cert      *crypto.Certificate
	LeaderSig []byte
}

// Proposal returns the proposal a re-issued slot stands for: what the new
// leader signed in LeaderSig, and what receivers pass through their
// acceptance path.
func (s *CarriedSlot) Proposal(leader types.NodeID) *ProposeMsg {
	return &ProposeMsg{View: s.View, Seq: s.Seq, Digest: s.Digest, Batch: s.Batch, Leader: leader, Sig: s.LeaderSig}
}

// Evidence is transferable proof other than a carried slot that a
// view-change message relays: Zyzzyva's client commit certificates. It
// proves itself to whoever knows its type; SigDigest binds it into the
// relaying sender's signature.
type Evidence interface {
	types.Message
	SigDigest() types.Digest
}

// ViewChangeMsg asks to enter NewView and carries the sender's recovery
// state: Base is its last executed sequence number, Stable its stable
// checkpoint, Committed what it retains committed above Stable, Carried
// the uncommitted slots it vouches for — both in sequence order.
type ViewChangeMsg struct {
	NewView   types.View
	Base      types.SeqNum
	Stable    types.SeqNum
	Committed []CommittedSlot
	Carried   []CarriedSlot
	Evidence  []Evidence
	Replica   types.NodeID
	Sig       []byte
}

// Kind implements types.Message.
func (*ViewChangeMsg) Kind() string { return "VIEW-CHANGE" }

// SigDigest is the signed content: every field.
func (m *ViewChangeMsg) SigDigest() types.Digest {
	var h types.Hasher
	h.Str("view-change").U64(uint64(m.NewView)).U64(uint64(m.Base)).U64(uint64(m.Stable)).U64(uint64(m.Replica))
	hashCommitted(&h, m.Committed)
	hashCarried(&h, m.Carried)
	hashEvidence(&h, m.Evidence)
	return h.Sum()
}

// NewViewMsg installs View: the quorum of view-change messages that
// justifies it, the committed slots the quorum's senders hold (for
// replicas behind Base, the quorum's highest execution point), and the
// uncommitted slots the new leader re-issues, gaps filled with no-ops.
type NewViewMsg struct {
	View        types.View
	Base        types.SeqNum
	ViewChanges []*ViewChangeMsg
	Committed   []CommittedSlot
	Reissued    []CarriedSlot
	Sig         []byte
}

// Kind implements types.Message.
func (*NewViewMsg) Kind() string { return "NEW-VIEW" }

// SigDigest is the signed content: every field, the relayed view-change
// messages by sender and signature.
func (m *NewViewMsg) SigDigest() types.Digest {
	var h types.Hasher
	h.Str("new-view").U64(uint64(m.View)).U64(uint64(m.Base)).U64(uint64(len(m.ViewChanges)))
	for _, vc := range m.ViewChanges {
		h.U64(uint64(vc.Replica)).Bytes(vc.Sig)
	}
	hashCommitted(&h, m.Committed)
	hashCarried(&h, m.Reissued)
	return h.Sum()
}

func hashCommitted(h *types.Hasher, slots []CommittedSlot) {
	h.U64(uint64(len(slots)))
	for i := range slots {
		s := &slots[i]
		h.U64(uint64(s.View)).U64(uint64(s.Seq)).Digest(s.Batch.Digest()).U64(uint64(len(s.Voters)))
		for _, id := range s.Voters {
			h.U64(uint64(id))
		}
		s.Cert.HashInto(h)
	}
}

func hashCarried(h *types.Hasher, slots []CarriedSlot) {
	h.U64(uint64(len(slots)))
	for i := range slots {
		s := &slots[i]
		h.U64(uint64(s.View)).U64(uint64(s.Seq)).Digest(s.Digest).Digest(s.Batch.Digest()).Bytes(s.LeaderSig)
		s.Cert.HashInto(h)
	}
}

// A Picker chooses what the new view re-issues from a quorum of
// view-change messages: top is the highest sequence number the quorum
// backs, and pick returns the batch for a sequence number — the empty
// no-op batch where the quorum backs none.
type Picker func(vcs []*ViewChangeMsg) (top types.SeqNum, pick func(types.SeqNum) *types.Batch)

// HighestView picks, per sequence number, the carried slot of the highest
// view among those whose batch hashes to its digest and whose evidence
// valid accepts (PBFT, SBFT, PoE, Kauri: a slot some replica committed
// left a certificate at f+1 honest senders of any quorum). Slots that fail
// are ignored; the message that carries them is relayed as it was signed.
func HighestView(valid func(*CarriedSlot) bool) Picker {
	return func(vcs []*ViewChangeMsg) (types.SeqNum, func(types.SeqNum) *types.Batch) {
		var top types.SeqNum
		chosen := make(map[types.SeqNum]*CarriedSlot)
		for _, m := range vcs {
			for i := range m.Carried {
				s := &m.Carried[i]
				if s.Batch == nil || s.Batch.Digest() != s.Digest || !valid(s) {
					continue
				}
				if cur := chosen[s.Seq]; cur == nil || s.View > cur.View {
					chosen[s.Seq] = s
				}
				top = max(top, s.Seq)
			}
		}
		return top, func(seq types.SeqNum) *types.Batch {
			if s := chosen[seq]; s != nil {
				return s.Batch
			}
			return types.NewBatch()
		}
	}
}

// MostClaimed picks, per sequence number, the batch most senders carry
// (FaB, CheapBFT, Themis, and under Zyzzyva's client-certificate pin):
// see SlotClaims.
func MostClaimed(vcs []*ViewChangeMsg) (types.SeqNum, func(types.SeqNum) *types.Batch) {
	c := Claims(vcs)
	return c.Max, c.Best
}

// Claims tallies the carried slots of a quorum, one claim per sender and
// sequence number.
func Claims(vcs []*ViewChangeMsg) *SlotClaims {
	var c SlotClaims
	for _, m := range vcs {
		for i := range m.Carried {
			s := &m.Carried[i]
			c.Add(m.Replica, s.Seq, s.Digest, s.Batch)
		}
	}
	return &c
}

// UpToBase is the ViewChangeHooks.Keep of the protocols that carry
// committed slots only for replicas behind the quorum's execution point.
func UpToBase(cs *CommittedSlot, base types.SeqNum) bool { return cs.Seq <= base }

// ViewChangeHooks are what a stable-leader protocol contributes to the
// view change; everything else — the messages, the recovery loop, the
// frame around it — is ViewChange's.
type ViewChangeHooks struct {
	// Vouch adds to this replica's view-change message, whose header the
	// kit has filled, what the protocol carries: retained committed slots,
	// the uncommitted slots it vouches for, evidence. Any order; the kit
	// sorts the slots by sequence number.
	Vouch func(m *ViewChangeMsg)
	// Pick chooses the re-issued batches at the new leader: HighestView
	// with the protocol's evidence check, or MostClaimed.
	Pick Picker
	// Keep reports whether the new leader carries a committed slot some
	// quorum member named, given the quorum's highest execution point; the
	// first kept per sequence number is carried and not re-issued. Nil
	// carries none, and the new view then re-issues from the quorum's
	// highest stable checkpoint instead of from base (PBFT).
	Keep func(cs *CommittedSlot, base types.SeqNum) bool
	// Accept passes the proposal of one re-issued slot of an installed new
	// view through the protocol's acceptance path. Nil means Slots.Order.
	Accept func(m *ProposeMsg)
	// Adopt commits one committed slot of an installed new view that this
	// replica has not executed. Nil means AdoptCommitted, on the new
	// leader's word.
	Adopt func(cs *CommittedSlot)
	// Reset, when set, runs on entering the new view before anything it
	// carries is adopted (roll back speculation, ask for catch-up).
	Reset func(nv *NewViewMsg)
	// Resume runs once the new view is adopted and proposing is allowed
	// again.
	Resume func()
}

// ordering is what ViewChange needs of the ordering stage: Slots, whatever
// the protocol keeps per slot.
type ordering interface {
	Reset()
	Advance(seq types.SeqNum)
	Order(m *ProposeMsg)
}

// TimerRetry names the retry timer of a stalled view change (τ2 for
// consecutive view changes).
const TimerRetry = "vc-retry"

// ViewChange is the view-change stage of the stable-leader protocols
// (dimension P3). It owns the current view, the "view change running"
// flag and its target, the table of received view-change messages and the
// sent-new-view marks, and with them every rule that is the same in all
// of them: when a view change may start, what a view-change message is
// and how a received one is authenticated and recorded, when to join
// others' view change, when the next leader has its quorum, how it builds
// the new view from it, whether a new-view message is justified, how it is
// installed and adopted, and what is reset on entering a view.
type ViewChange struct {
	env     Env
	backlog *Backlog
	quorum  int
	hooks   ViewChangeHooks
	slots   ordering // set by NewSlots

	view     types.View
	active   bool
	target   types.View
	adopting bool
	votes    Tally[types.View, *ViewChangeMsg]
	sent     map[types.View]bool

	// RetryAfter is how long a started view change may stall before the
	// replica moves on to the next view. It is reset to the configured
	// ViewChangeTimeout on entering a view; a protocol with back-off
	// raises it between consecutive attempts.
	RetryAfter time.Duration
}

// NewViewChange returns the view-change stage of one replica. quorum is
// how many view-change messages justify a new view (2f+1 for most
// protocols). NewSlots attaches the ordering stage.
func NewViewChange(env Env, backlog *Backlog, quorum int, hooks ViewChangeHooks) *ViewChange {
	return &ViewChange{
		env:        env,
		backlog:    backlog,
		quorum:     quorum,
		hooks:      hooks,
		votes:      NewTally[types.View, *ViewChangeMsg](env.N()),
		sent:       make(map[types.View]bool),
		RetryAfter: env.Config().ViewChangeTimeout,
	}
}

// View returns the view this replica is in.
func (vc *ViewChange) View() types.View { return vc.view }

// Active reports whether a view change is running; ordering messages are
// not processed while it is.
func (vc *ViewChange) Active() bool { return vc.active }

// Leader returns the current view's leader.
func (vc *ViewChange) Leader() types.NodeID { return vc.env.Config().LeaderOf(vc.view) }

// Leading reports whether this replica leads the current view.
func (vc *ViewChange) Leading() bool { return vc.Leader() == vc.env.ID() }

// MayPropose reports whether this replica may assign a fresh sequence
// number now: it leads the current view, no view change is running, and
// it is not in the middle of adopting a new view's carried slots.
func (vc *ViewChange) MayPropose() bool { return vc.Leading() && !vc.active && !vc.adopting }

// Start begins (or escalates) a view change toward view v, or the next
// view if v is not ahead. A running view change only ever moves to a
// higher target.
func (vc *ViewChange) Start(v types.View) {
	if v <= vc.view {
		v = vc.view + 1
	}
	if vc.active && v <= vc.target {
		return
	}
	vc.active = true
	vc.target = v
	vc.backlog.Suspend()
	m := vc.build(v)
	vc.votes.Replace(v, vc.env.ID(), m)
	vc.env.Broadcast(m)
	vc.env.SetTimer(TimerID{Name: TimerRetry, View: v}, vc.RetryAfter)
}

// build returns this replica's signed view-change message for view v.
func (vc *ViewChange) build(v types.View) *ViewChangeMsg {
	led := vc.env.Ledger()
	m := &ViewChangeMsg{NewView: v, Base: led.LastExecuted(), Stable: led.LowWater(), Replica: vc.env.ID()}
	vc.hooks.Vouch(m)
	slices.SortStableFunc(m.Committed, func(a, b CommittedSlot) int { return cmp.Compare(a.Seq, b.Seq) })
	slices.SortStableFunc(m.Carried, func(a, b CarriedSlot) int { return cmp.Compare(a.Seq, b.Seq) })
	m.Sig = vc.env.Signer().Sign(m.SigDigest())
	return m
}

// RetryDue reports whether a fired retry timer belongs to the view
// change still running.
func (vc *ViewChange) RetryDue(id TimerID) bool {
	return vc.active && id.View == vc.target
}

// Retry handles the retry timer: the view change toward the target
// stalled (its leader may be faulty too), so try the view after it.
func (vc *ViewChange) Retry(id TimerID) {
	if vc.RetryDue(id) {
		vc.Start(vc.target + 1)
	}
}

// OnTimer handles the two τ2 timers every stable-leader protocol runs the
// same way: the backlog's progress timer, whose expiry with a client still
// waiting is evidence against the leader and starts a view change, and the
// retry timer of a stalled view change. Timers of any other name are the
// protocol's own and are ignored.
func (vc *ViewChange) OnTimer(id TimerID) {
	switch id.Name {
	case vc.backlog.timer:
		if vc.backlog.Expired(id) {
			vc.Start(vc.view + 1)
		}
	case TimerRetry:
		vc.Retry(id)
	}
}

// OnMessage handles the two messages of the view-change stage and reports
// whether m was one of them.
func (vc *ViewChange) OnMessage(from types.NodeID, m types.Message) bool {
	switch mm := m.(type) {
	case *ViewChangeMsg:
		vc.OnViewChange(from, mm)
	case *NewViewMsg:
		if vc.Justified(from, mm) {
			vc.install(mm)
		}
	default:
		return false
	}
	return true
}

// OnViewChange handles a view-change message from a peer.
func (vc *ViewChange) OnViewChange(from types.NodeID, m *ViewChangeMsg) {
	v := m.NewView
	if m.Replica != from || v <= vc.view {
		return
	}
	if !vc.env.Verifier().VerifySig(from, m.SigDigest(), m.Sig) {
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

func (vc *ViewChange) maybeNewView(v types.View) {
	if vc.env.Config().LeaderOf(v) != vc.env.ID() || vc.sent[v] {
		return
	}
	votes := vc.votes.Votes(v)
	if len(votes) < vc.quorum {
		return
	}
	vc.sent[v] = true
	vcs := make([]*ViewChangeMsg, len(votes))
	for i, vote := range votes {
		vcs[i] = vote.Val
	}
	vc.sendNewView(v, vcs)
}

// sendNewView runs at the leader of v once a quorum of view-change
// messages for v is in: merge their execution points and committed slots,
// pick each uncommitted slot up to the highest one backed, sign, broadcast
// and install. The messages are relayed as received — a stripped slot
// would break the sender's signature at every backup.
func (vc *ViewChange) sendNewView(v types.View, vcs []*ViewChangeMsg) {
	var base, stable types.SeqNum
	for _, m := range vcs {
		base, stable = max(base, m.Base), max(stable, m.Stable)
	}
	top, pick := vc.hooks.Pick(vcs)
	from := stable
	committed := make(map[types.SeqNum]*CommittedSlot)
	if vc.hooks.Keep != nil {
		from = base
		for _, m := range vcs {
			for i := range m.Committed {
				cs := &m.Committed[i]
				if committed[cs.Seq] == nil && cs.Batch != nil && vc.hooks.Keep(cs, base) {
					committed[cs.Seq] = cs
					top = max(top, cs.Seq)
				}
			}
		}
	}
	// One sender can name any sequence number; nobody accepts a slot
	// beyond the window above the execution point, so none is re-issued.
	top = min(top, base+types.SeqNum(vc.env.Config().HighWaterWindow))
	nv := &NewViewMsg{View: v, Base: base, ViewChanges: vcs}
	for _, seq := range slices.Sorted(maps.Keys(committed)) {
		nv.Committed = append(nv.Committed, *committed[seq])
	}
	for seq := from + 1; seq <= top; seq++ {
		if committed[seq] != nil {
			continue // carried as decided
		}
		batch := pick(seq)
		s := CarriedSlot{View: v, Seq: seq, Digest: batch.Digest(), Batch: batch}
		s.LeaderSig = vc.env.Signer().Sign(s.Proposal(vc.env.ID()).SigDigest())
		nv.Reissued = append(nv.Reissued, s)
	}
	nv.Sig = vc.env.Signer().Sign(nv.SigDigest())
	vc.env.Broadcast(nv)
	vc.install(nv)
}

// Justified reports whether a new-view message may be installed: it is
// not stale, it comes from its view's leader, who signed it, and it
// carries a quorum of validly signed view-change messages for exactly
// that view from distinct replicas.
func (vc *ViewChange) Justified(from types.NodeID, m *NewViewMsg) bool {
	v := m.View
	if v < vc.view || (v == vc.view && !vc.active) {
		return false
	}
	if from != vc.env.Config().LeaderOf(v) || !vc.env.Verifier().VerifySig(from, m.SigDigest(), m.Sig) {
		return false
	}
	if len(m.ViewChanges) < vc.quorum {
		return false
	}
	var signers Tally[types.View, struct{}]
	for _, c := range m.ViewChanges {
		if c.NewView != v || signers.Add(v, c.Replica, struct{}{}) == 0 {
			return false
		}
		if !vc.env.Verifier().VerifySig(c.Replica, c.SigDigest(), c.Sig) {
			return false
		}
	}
	return true
}

// install enters the new view and adopts what its message carries —
// committed slots this replica has not executed, then the re-issued
// slots through the protocol's own acceptance path — with proposing held
// until that is done. Committing a carried slot executes it and
// re-enters the protocol's OnExecuted; a new leader that proposed from
// there would hand out sequence numbers the new-view message has already
// assigned, equivocating against itself.
func (vc *ViewChange) install(nv *NewViewMsg) {
	vc.Enter(nv.View)
	vc.adopting = true
	if vc.hooks.Reset != nil {
		vc.hooks.Reset(nv)
	}
	led := vc.env.Ledger()
	vc.slots.Advance(nv.Base)
	for i := range nv.Committed {
		cs := &nv.Committed[i]
		if cs.Batch == nil {
			continue
		}
		if cs.Seq > led.LastExecuted() {
			if vc.hooks.Adopt != nil {
				vc.hooks.Adopt(cs)
			} else {
				AdoptCommitted(vc.env, cs)
			}
		}
		vc.slots.Advance(cs.Seq)
	}
	leader := vc.env.Config().LeaderOf(nv.View)
	accept := vc.hooks.Accept
	if accept == nil {
		accept = vc.slots.Order
	}
	for i := range nv.Reissued {
		s := &nv.Reissued[i]
		vc.slots.Advance(s.Seq)
		if s.Seq > led.LastExecuted() {
			accept(s.Proposal(leader))
		}
	}
	vc.adopting = false
	vc.hooks.Resume()
}

// Enter moves the replica into view v — on installing a new-view message
// or on jumping to a view the cluster demonstrably reached. The running
// view change (if any) is over, the retry timer and its back-off are
// reset, view-change messages for views up to v are garbage-collected,
// and the backlog re-opens under v.
func (vc *ViewChange) Enter(v types.View) {
	vc.view = v
	vc.active = false
	vc.RetryAfter = vc.env.Config().ViewChangeTimeout
	vc.env.StopTimer(TimerID{Name: TimerRetry, View: v})
	vc.env.ViewChanged(v)
	vc.votes.Prune(func(k types.View) bool { return k <= v })
	for k := range vc.sent {
		if k <= v {
			delete(vc.sent, k)
		}
	}
	vc.slots.Reset()
	vc.backlog.EnterView(v)
}

// Forget discards the received view-change messages (proactive recovery
// drops volatile state and rebuilds from what peers resend).
func (vc *ViewChange) Forget() { vc.votes = NewTally[types.View, *ViewChangeMsg](vc.env.N()) }

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

// RetainedCommitted returns every committed slot this replica still
// retains above its stable checkpoint, with its commit proof's voters: what
// a view-change message carries so that replicas that were passive or dark
// catch up from the new-view message.
func RetainedCommitted(env Env) []CommittedSlot {
	var out []CommittedSlot
	for _, e := range env.Ledger().CommittedAbove(env.Ledger().LowWater()) {
		out = append(out, CommittedEntry(e, nil))
	}
	return out
}

// CommittedEntry returns the committed slot a ledger entry records, with its
// proof's voters and, where the protocol kept one, its certificate.
func CommittedEntry(e *ledger.Entry, cert *crypto.Certificate) CommittedSlot {
	cs := CommittedSlot{View: e.View, Seq: e.Seq, Batch: e.Batch, Cert: cert}
	if e.Proof != nil {
		cs.Voters = e.Proof.Voters
	}
	return cs
}

// AdoptCommitted commits a slot carried by a new-view message unless
// this replica already executed it.
func AdoptCommitted(env Env, cs *CommittedSlot) {
	if cs.Seq <= env.Ledger().LastExecuted() {
		return
	}
	proof := &types.CommitProof{View: cs.View, Seq: cs.Seq, Digest: cs.Batch.Digest(),
		Voters: append([]types.NodeID(nil), cs.Voters...)}
	env.Commit(cs.View, cs.Seq, cs.Batch, proof)
}
