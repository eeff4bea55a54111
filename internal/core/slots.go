package core

import (
	"iter"
	"sort"

	"bftkit/internal/crypto"
	"bftkit/internal/types"
)

// stageKey names one voting round of one sequence number.
type stageKey struct {
	seq   types.SeqNum
	stage string
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

	s       *Slots[X]
	reached uint8 // bit i: stage i's quorum has been reported
}

// Slots is the ordering stage of a stable-leader replica (dimension P1/P2
// on top of P3's Backlog and ViewChange): per sequence number the assigned
// digest and batch and, per named voting stage, one vote per authenticated
// sender. A vote counts only toward the digest it names, so a vote for
// anything but the assigned digest — sent before or after the proposal —
// raises no count and enters no certificate. State exists only for
// sequence numbers inside the window (LastExecuted, LastExecuted +
// HighWaterWindow], is dropped when the slot executes, and is dropped
// wholesale on entering a view: votes and proposals of older views are
// void.
type Slots[X any] struct {
	env     Env
	backlog *Backlog
	vc      *ViewChange
	cm      *CheckpointManager // nil for protocols that checkpoint on their own
	stages  []string

	// Quorum is the ordering quorum at this deployment's f, taken from
	// the protocol's registered Profile.
	Quorum int

	nextSeq types.SeqNum
	slots   map[types.SeqNum]*Slot[X]
	votes   Tally[stageKey, ballot]
}

// NewSlots returns the empty ordering state of one replica. stages names
// the protocol's voting rounds (at most eight); votes for any other stage
// are refused.
func NewSlots[X any](env Env, profile Profile, backlog *Backlog, vc *ViewChange, cm *CheckpointManager, stages ...string) *Slots[X] {
	s := &Slots[X]{
		env: env, backlog: backlog, vc: vc, cm: cm, stages: stages,
		Quorum: profile.QuorumSize(env.F()),
		slots:  make(map[types.SeqNum]*Slot[X]),
	}
	vc.slots = s
	return s
}

// Reset drops every slot and vote: on entering a view, and on proactive
// recovery.
func (s *Slots[X]) Reset() {
	clear(s.slots)
	s.votes = Tally[stageKey, ballot]{}
}

// Len returns how many sequence numbers hold state.
func (s *Slots[X]) Len() int { return len(s.slots) }

// Get returns seq's slot, or nil if nothing was accepted or voted there.
func (s *Slots[X]) Get(seq types.SeqNum) *Slot[X] { return s.slots[seq] }

// All iterates over every slot, in no particular order.
func (s *Slots[X]) All() iter.Seq[*Slot[X]] {
	return func(yield func(*Slot[X]) bool) {
		for _, sl := range s.slots {
			if !yield(sl) {
				return
			}
		}
	}
}

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
// the caller has authenticated against view's leader: current view, no
// view change running, the batch hashes to the digest, the slot is inside
// the window. A second, conflicting assignment for the slot is leader
// equivocation — the slot is left as it was and a view change starts. It
// returns the slot when the proposal newly assigned it (its requests are
// then watched and in flight), and nil otherwise, duplicates included.
func (s *Slots[X]) Accept(view types.View, seq types.SeqNum, digest types.Digest, batch *types.Batch) *Slot[X] {
	if view != s.vc.View() || s.vc.Active() || batch == nil || batch.Digest() != digest {
		return nil
	}
	sl := s.slot(seq)
	if sl == nil {
		return nil
	}
	if sl.Batch != nil {
		if sl.Digest != digest {
			s.vc.Start(view + 1)
		}
		return nil
	}
	sl.Digest, sl.Batch = digest, batch
	s.backlog.Proposed(batch)
	return sl
}

// Vote records from's vote for digest at a stage of seq — from is the
// authenticated sender (or a signer whose signature the caller verified),
// sig its signature where the stage builds certificates. It returns the
// slot when the vote was recorded, and nil when it is for another view,
// an unknown stage or a sequence number outside the window, or when from
// has already voted at this stage: one sender, one vote, whatever digests
// it names.
func (s *Slots[X]) Vote(stage string, view types.View, seq types.SeqNum, from types.NodeID, digest types.Digest, sig []byte) *Slot[X] {
	if view != s.vc.View() || s.vc.Active() || s.stageBit(stage) == 0 {
		return nil
	}
	sl := s.slot(seq)
	if sl == nil || s.votes.Add(stageKey{seq, stage}, from, ballot{digest, sig}) == 0 {
		return nil
	}
	return sl
}

func (s *Slots[X]) stageBit(stage string) uint8 {
	for i, name := range s.stages {
		if name == stage {
			return 1 << i
		}
	}
	return 0
}

// Propose is the leader's assignment loop: while this replica may propose
// and the backlog holds proposable requests, batch up to BatchSize of
// them under the next sequence number and hand the batch to send, which
// builds, broadcasts and accepts the protocol's proposal message.
func (s *Slots[X]) Propose(send func(seq types.SeqNum, batch *types.Batch)) {
	for s.vc.MayPropose() {
		reqs := s.backlog.Take(s.env.Config().BatchSize)
		if len(reqs) == 0 {
			return
		}
		send(s.Next(), types.NewBatch(reqs...))
	}
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
// answer the clients (when reply is set), drop the slot, keep the
// assignment counter above it, service the checkpoint manager and restart
// τ2. The caller proposes next.
func (s *Slots[X]) Executed(seq types.SeqNum, batch *types.Batch, results [][]byte, reply bool) {
	s.backlog.Executed(batch)
	if reply {
		ReplyExecuted(s.env, s.vc.View(), seq, batch, results)
	}
	delete(s.slots, seq)
	for _, stage := range s.stages {
		s.votes.Delete(stageKey{seq, stage})
	}
	s.Advance(seq)
	if s.cm != nil {
		s.cm.OnExecuted(seq)
	}
	s.backlog.Progress()
}

// votes returns every vote recorded at stage, in arrival order; nothing
// is on record for an unassigned slot's (unknown) digest.
func (sl *Slot[X]) votes(stage string) []Vote[ballot] {
	if sl.Batch == nil {
		return nil
	}
	return sl.s.votes.Votes(stageKey{sl.Seq, stage})
}

// Count returns how many senders voted for the assigned digest at stage.
func (sl *Slot[X]) Count(stage string) int {
	n := 0
	for _, v := range sl.votes(stage) {
		if v.Val.digest == sl.Digest {
			n++
		}
	}
	return n
}

// Voted reports whether id has a vote on record at stage (for any
// digest).
func (sl *Slot[X]) Voted(stage string, id types.NodeID) bool {
	return sl.s.votes.index(stageKey{sl.Seq, stage}, id) >= 0
}

// Reached reports, exactly once per slot and stage, that quorum senders
// voted for the assigned digest. Call it after recording a vote and after
// accepting the proposal — votes may have overtaken it.
func (sl *Slot[X]) Reached(stage string, quorum int) bool {
	bit := sl.s.stageBit(stage)
	if sl.reached&bit != 0 || sl.Count(stage) < quorum {
		return false
	}
	sl.reached |= bit
	return true
}

// Past reports whether Reached has fired for stage.
func (sl *Slot[X]) Past(stage string) bool { return sl.reached&sl.s.stageBit(stage) != 0 }

// Voters returns the senders that voted for the assigned digest at stage,
// in arrival order (a CommitProof's voter list).
func (sl *Slot[X]) Voters(stage string) []types.NodeID {
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
// stage, in arrival order, into a certificate over the digest the senders
// signed. Votes recorded without a signature are not transferable and
// stay out.
func (sl *Slot[X]) Certificate(stage string, over types.Digest) *crypto.Certificate {
	votes := sl.votes(stage)
	cert := &crypto.Certificate{Digest: over,
		Signers: make([]types.NodeID, 0, len(votes)), Sigs: make([][]byte, 0, len(votes))}
	for _, v := range votes {
		if v.Val.digest == sl.Digest && v.Val.sig != nil {
			cert.Add(v.From, v.Val.sig)
		}
	}
	return cert
}
