package core

import (
	"sort"

	"bftkit/internal/crypto"
	"bftkit/internal/types"
)

// stageKey names one voting round of one sequence number.
type stageKey struct {
	seq   types.SeqNum
	stage Stage
}

// ballot is one vote of the ordering stage: the digest it names and, where
// votes are transferable, the sender's signature over it (nil when only
// the vote's presence counts — MAC mode, FaB accepts, Themis votes).
type ballot struct {
	digest types.Digest
	sig    []byte
}

// Slot is one sequence number's ordering state in the current view. X is
// whatever else the protocol keeps per slot.
type Slot[X any] struct {
	Seq types.SeqNum
	// Digest and Batch are the leader's assignment; Batch is nil until a
	// proposal for the slot has been accepted (votes can arrive first).
	Digest types.Digest
	Batch  *types.Batch
	X      X

	s *Slots[X]
	// cert is the certificate that closed the slot's last collector stage
	// or, under a speculative profile, one that overtook the proposal.
	cert  *CertMsg
	past  uint8     // bit s: Stage s has closed
	done  bool      // the last stage has closed
	specd bool      // speculatively executed
	sent  [2]uint16 // per stage of a tree's (two-stage) list: signatures last sent up
}

// Slots is the ordering stage of a stable-leader replica (dimension P1/P2
// on top of P3's Backlog and ViewChange): per sequence number the assigned
// digest and batch and, per voting stage, one vote per authenticated
// sender. A vote counts only toward the digest it names, so a vote for
// anything but the assigned digest — sent before or after the proposal —
// raises no count and enters no certificate. State exists only for
// sequence numbers inside the window (LastExecuted, LastExecuted +
// HighWaterWindow], is dropped when the slot executes, and is dropped
// wholesale on entering a view: votes and proposals of older views are
// void.
//
// Slots also runs the protocol's declared stage list (stages.go): it casts
// this replica's votes, closes each stage at its quorum, and commits the
// slot — or, under a speculative profile, executes it speculatively —
// once the last stage closes. A collector stage may have SBFT's fast path
// (StageSpec.FastWait), and under a Tree topology (Kauri) proposals and
// certificates go down the view's tree and votes come up it.
type Slots[X any] struct {
	env     Env
	backlog *Backlog
	vc      *ViewChange
	cm      *CheckpointManager // nil for protocols that checkpoint on their own
	stages  []StageSpec
	active  int  // the active set's size; 0 when every replica takes part
	spec    bool // the profile executes speculatively
	tree    bool // the profile's topology is Tree

	// Quorum is the ordering quorum at this deployment's f, taken from
	// the protocol's registered Profile.
	Quorum int

	// Closed, when set, runs when a stage closes at a slot, before the
	// next stage starts or the slot commits (PBFT's, Themis's, SBFT's and
	// Kauri's prepared certificates, PBFT's commit certificate). cm is the
	// collector's certificate that closed it, nil when the votes were
	// counted here.
	Closed func(sl *Slot[X], stage Stage, cm *CertMsg)
	// Committed, when set, runs after a slot whose last stage closed is
	// committed (CheapBFT's updates to its passive replicas, SBFT's commit
	// certificates).
	Committed func(sl *Slot[X], proof *types.CommitProof)
	// Issuer disseminates and orders this leader's proposals: Issue,
	// unless the protocol replaces it (PBFT keeps the pre-prepare's
	// signature). Take picks a proposal's requests: the backlog's, in
	// arrival order, unless the protocol replaces it (PBFT's
	// front-running adversary).
	Issuer func(*ProposeMsg)
	Take   func(max int) []*types.Request

	nextSeq   types.SeqNum
	proposing bool // Propose is running: a nested call leaves it to the loop
	slots     map[types.SeqNum]*Slot[X]
	votes     Tally[stageKey, ballot]

	// The speculative tail: the highest slot of the view executed
	// speculatively, and the history digests replicas announce per
	// checkpoint.
	tip         types.SeqNum
	checkpoints Tally[types.SeqNum, types.Digest]
}

// NewSlots returns the empty ordering state of one replica. stages is the
// protocol's stage list, run in order; votes at any other stage are
// refused.
func NewSlots[X any](env Env, profile Profile, backlog *Backlog, vc *ViewChange, cm *CheckpointManager, stages ...StageSpec) *Slots[X] {
	s := &Slots[X]{
		env: env, backlog: backlog, vc: vc, cm: cm, stages: stages,
		spec:   profile.Speculative,
		tree:   profile.Topology == Tree,
		Quorum: profile.QuorumSize(env.F()),
		slots:  make(map[types.SeqNum]*Slot[X]),

		votes:       NewTally[stageKey, ballot](env.N()),
		checkpoints: NewTally[types.SeqNum, types.Digest](env.N()),
	}
	for _, st := range stages {
		if st.Voters == VotersActive {
			s.active = profile.ActiveReplicas.Eval(env.F())
		}
	}
	s.Issuer, s.Take = s.Issue, backlog.Take
	vc.slots = s
	return s
}

// Reset drops every slot and vote: on entering a view, and on proactive
// recovery. Under a speculative profile it also rolls back all uncommitted
// speculation, which the new view's order replaces (the runtime restores
// state and history digests).
func (s *Slots[X]) Reset() {
	clear(s.slots)
	s.votes = NewTally[stageKey, ballot](s.env.N())
	if s.spec {
		s.env.RollbackSpecAbove(s.env.Ledger().LastExecuted())
	}
	s.tip = 0
}

// Len returns how many sequence numbers hold state.
func (s *Slots[X]) Len() int { return len(s.slots) }

// Assigned returns the slots that hold an accepted proposal, in sequence
// order (what a view-change message is built from).
func (s *Slots[X]) Assigned() []*Slot[X] {
	var out []*Slot[X]
	for _, sl := range s.slots {
		if sl.Batch != nil {
			out = append(out, sl)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// slot returns seq's slot, creating it if seq lies inside the window. An
// authenticated replica can name any sequence number in a signed message;
// outside the window that allocates nothing.
func (s *Slots[X]) slot(seq types.SeqNum) *Slot[X] {
	if sl := s.slots[seq]; sl != nil {
		return sl
	}
	last := s.env.Ledger().LastExecuted()
	if seq <= last || uint64(seq) > uint64(last)+s.env.Config().HighWaterWindow {
		return nil
	}
	sl := &Slot[X]{Seq: seq, s: s}
	s.slots[seq] = sl
	return sl
}

// Accept runs the acceptance rules every protocol shares on a proposal
// the caller has authenticated (ProposeMsg.Verify) or built: current view,
// no view change running, this replica takes part (InActiveSet), the batch
// hashes to the digest, the slot is inside the window. A second,
// conflicting assignment for the slot is leader equivocation — the slot is
// left as it was and a view change starts. A batch enters a slot only once
// this replica has checked each request's client authenticator
// (VerifyRequest), a new view's re-issued slots included; only a leader's
// own fresh proposal skips the
// check, since its backlog's Submit checked each request. It returns the
// slot when the proposal newly assigned it (its requests are then watched
// and in flight), and nil otherwise, duplicates included.
func (s *Slots[X]) Accept(m *ProposeMsg) *Slot[X] {
	if m.View != s.vc.View() || s.vc.Active() || !s.InActiveSet(m.View, s.env.ID()) ||
		m.Batch == nil || m.Batch.Digest() != m.Digest {
		return nil
	}
	sl := s.slot(m.Seq)
	if sl == nil {
		return nil
	}
	if sl.Batch != nil {
		if sl.Digest != m.Digest {
			s.vc.Start(m.View + 1)
		}
		return nil
	}
	if (m.Leader != s.env.ID() || s.vc.adopting) && !clientSigned(s.env, m.Batch) {
		return nil
	}
	sl.Digest, sl.Batch = m.Digest, m.Batch
	s.backlog.Proposed(m.Batch)
	return sl
}

// clientSigned reports whether every request in b carries its client's
// valid authenticator (VerifyRequest).
func clientSigned(env Env, b *types.Batch) bool {
	for _, r := range b.Requests {
		if !VerifyRequest(env, r) {
			return false
		}
	}
	return true
}

// vote records from's vote for digest at a stage of seq — from is the
// authenticated sender (or a signer whose signature was verified), sig its
// signature where the stage builds certificates. It returns the slot when
// the vote was recorded, and nil when it is for another view, an unknown
// stage or a sequence number outside the window, or when from has already
// voted at this stage: one sender, one vote, whatever digests it names.
func (s *Slots[X]) vote(stage Stage, view types.View, seq types.SeqNum, from types.NodeID, digest types.Digest, sig []byte) *Slot[X] {
	if view != s.vc.View() || s.vc.Active() || s.index(stage) < 0 {
		return nil
	}
	sl := s.slot(seq)
	if sl == nil || s.votes.Add(stageKey{seq, stage}, from, ballot{digest, sig}) == 0 {
		return nil
	}
	return sl
}

// pipelineDepth is how many slots a leader keeps in flight above its
// execution point. Up to pipelineDepth independent closed-loop clients
// never wait behind the window; past it, requests queue and the next slot
// carries them all (DESIGN.md → Batching and the pipeline window).
const pipelineDepth = 8

// Propose is the leader's assignment loop, the one batching rule of every
// Slots protocol: while this replica may propose, fewer than pipelineDepth
// slots are in flight above its execution point (the speculative tip under
// a speculative profile) and the backlog holds proposable requests, it
// takes what is queued, up to BatchSize, under the next sequence number and
// hands the signed proposal to Issuer. Requests wait while the window is
// full, and a partial batch also waits while the leader is loaded — a slot
// is in flight and inbound events are queued for its event loop
// (Env.Busy) — so that it leaves with what arrives behind it. A full
// batch, an idle loop or an empty window proposes at once: a lone request
// is never held, and a held one waits no longer than the slot in flight.
// No timer re-runs the rule: the protocol proposes on every request and
// again when a slot executes (after Executed); the speculative tail does
// so itself when a slot executes speculatively.
func (s *Slots[X]) Propose() {
	if s.proposing {
		return
	}
	s.proposing = true
	for s.vc.MayPropose() && s.nextSeq < s.windowTop() && s.backlog.Proposable() > 0 && !s.held() {
		reqs := s.Take(s.env.Config().BatchSize)
		if len(reqs) == 0 {
			break
		}
		s.Issuer(NewProposal(s.env, s.vc.View(), s.Next(), types.NewBatch(reqs...)))
	}
	s.proposing = false
}

// held reports whether load holds a partial batch back: a slot is in
// flight, fewer than BatchSize requests are proposable and inbound events
// wait for the event loop.
func (s *Slots[X]) held() bool {
	return s.nextSeq > s.specTip() && s.backlog.Proposable() < s.env.Config().BatchSize && s.env.Busy()
}

// windowTop is the highest sequence number this leader may assign now:
// pipelineDepth above its execution point, and never past the window
// Accept enforces.
func (s *Slots[X]) windowTop() types.SeqNum {
	last := s.env.Ledger().LastExecuted()
	return min(s.specTip()+pipelineDepth, last+types.SeqNum(s.env.Config().HighWaterWindow))
}

// Next assigns the next sequence number (leader only).
func (s *Slots[X]) Next() types.SeqNum {
	s.nextSeq++
	return s.nextSeq
}

// NextSeq returns the last sequence number assigned or seen assigned.
func (s *Slots[X]) NextSeq() types.SeqNum { return s.nextSeq }

// Advance raises the assignment counter to at least seq: fresh
// assignments start above everything executed or carried by a new view.
func (s *Slots[X]) Advance(seq types.SeqNum) {
	if s.nextSeq < seq {
		s.nextSeq = seq
	}
}

// Rewind restarts assignment right above the last executed slot, for
// protocols that roll unexecuted (speculative) slots back on a new view.
func (s *Slots[X]) Rewind() { s.nextSeq = s.env.Ledger().LastExecuted() }

// Executed is the shared tail of OnExecuted: retire the batch's requests,
// answer the clients (a replica outside the active set does not), drop the
// slot, keep the assignment counter above it, service the checkpoint
// manager and restart τ2. The caller proposes next.
func (s *Slots[X]) Executed(seq types.SeqNum, batch *types.Batch, results [][]byte) {
	s.backlog.Executed(batch)
	if s.InActiveSet(s.vc.View(), s.env.ID()) {
		ReplyExecuted(s.env, s.vc.View(), seq, batch, results, false)
	}
	delete(s.slots, seq)
	for i := range s.stages {
		s.votes.Delete(stageKey{seq, s.stages[i].Stage})
	}
	s.Advance(seq)
	if s.cm != nil {
		s.cm.OnExecuted(seq)
	}
	s.backlog.Progress()
}

// votes returns every vote recorded at stage, in arrival order; nothing
// is on record for an unassigned slot's (unknown) digest.
func (sl *Slot[X]) votes(stage Stage) []Vote[ballot] {
	if sl.Batch == nil {
		return nil
	}
	return sl.s.votes.Votes(stageKey{sl.Seq, stage})
}

// count returns how many senders voted for the assigned digest at stage.
func (sl *Slot[X]) count(stage Stage) int {
	n := 0
	for _, v := range sl.votes(stage) {
		if v.Val.digest == sl.Digest {
			n++
		}
	}
	return n
}

// reached reports, exactly once per slot and stage, that quorum senders
// voted for the assigned digest.
func (sl *Slot[X]) reached(stage Stage, quorum int) bool {
	if sl.Past(stage) || sl.count(stage) < quorum {
		return false
	}
	sl.past |= 1 << stage
	return true
}

// Past reports whether stage has closed: its votes reached the quorum
// here, or its certificate arrived.
func (sl *Slot[X]) Past(stage Stage) bool { return sl.past&(1<<stage) != 0 }

// Voters returns the senders that voted for the assigned digest at stage,
// in arrival order (a CommitProof's voter list).
func (sl *Slot[X]) Voters(stage Stage) []types.NodeID {
	votes := sl.votes(stage)
	ids := make([]types.NodeID, 0, len(votes))
	for _, v := range votes {
		if v.Val.digest == sl.Digest {
			ids = append(ids, v.From)
		}
	}
	return ids
}

// Certificate assembles the signatures voted for the assigned digest at
// stage, in arrival order, into a certificate over the vote they signed
// (VoteDigest), constant-size under the threshold scheme. Votes recorded
// without a signature are not transferable and stay out.
func (sl *Slot[X]) Certificate(stage Stage) *crypto.Certificate {
	votes := sl.votes(stage)
	cert := &crypto.Certificate{Digest: VoteDigest(stage, sl.s.vc.View(), sl.Seq, sl.Digest),
		Signers: make([]types.NodeID, 0, len(votes)), Sigs: make([][]byte, 0, len(votes)),
		Threshold: sl.s.env.Scheme() == crypto.SchemeThreshold}
	for _, v := range votes {
		if v.Val.digest == sl.Digest && v.Val.sig != nil {
			cert.Add(v.From, v.Val.sig)
		}
	}
	return cert
}
