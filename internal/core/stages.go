package core

import (
	"slices"

	"bftkit/internal/crypto"
	"bftkit/internal/types"
)

// Voters names who casts the votes of an ordering stage.
type Voters uint8

const (
	// VotersAll: every replica, the leader included.
	VotersAll Voters = iota
	// VotersBackups: every replica but the view's leader, whose proposal
	// stands in for its vote (PBFT's prepares).
	VotersBackups
	// VotersActive: the view's active set of Profile.ActiveReplicas
	// replicas, its leader and the next ones in ring order (CheapBFT). The
	// others take no part in ordering: they accept no proposal, count no
	// vote and answer no client.
	VotersActive
)

// StageSpec declares one voting stage of a protocol's ordering: who votes,
// where a vote goes, and how many votes close the stage. The stages of a
// list run in order, each starting when the one before it closes.
// Closing the last commits the slot with that stage's voters as the proof
// or, under a Speculative profile, hands it to the speculative tail.
type StageSpec struct {
	Stage  Stage
	Voters Voters
	// Collect sends every vote to the view's leader, which closes the
	// stage by broadcasting the certificate of a quorum of them
	// (Slot.Certify). Otherwise every vote goes to every replica taking
	// part, and each counts the votes for itself.
	Collect bool
	// Quorum is how many votes close the stage, the proposal counted
	// where it stands in for the leader's vote.
	Quorum LinearTerm
}

// index returns stage's position in the stage list, or -1.
func (s *Slots[X]) index(stage Stage) int {
	for i := range s.stages {
		if s.stages[i].Stage == stage {
			return i
		}
	}
	return -1
}

// threshold is how many recorded votes close st.
func (s *Slots[X]) threshold(st *StageSpec) int {
	q := st.Quorum.Eval(s.env.F())
	if st.Voters == VotersBackups {
		q-- // the proposal is the leader's vote
	}
	return q
}

// InActiveSet reports whether id takes part in ordering in view v: every
// replica does, unless a stage's voters are the active set.
func (s *Slots[X]) InActiveSet(v types.View, id types.NodeID) bool {
	n := uint64(s.env.N())
	return s.active == 0 || (uint64(id)+n-uint64(s.env.Config().LeaderOf(v)))%n < uint64(s.active)
}

// send delivers an ordering message of this replica to every other replica
// taking part in the current view.
func (s *Slots[X]) send(m types.Message) {
	if s.active == 0 {
		s.env.Broadcast(m)
		return
	}
	n, lead := uint64(s.env.N()), uint64(s.vc.Leader())
	for i := range uint64(s.active) {
		if id := types.NodeID((lead + i) % n); id != s.env.ID() {
			s.env.Send(id, m)
		}
	}
}

// Issue sends this replica's proposal to every replica taking part and
// orders it: the send of Propose for a protocol that adds nothing.
func (s *Slots[X]) Issue(m *ProposeMsg) {
	s.send(m)
	s.Order(m)
}

// Order accepts a proposal this replica authenticated or built (a new
// view's re-issued slots included) and runs the newly assigned slot's
// stages.
func (s *Slots[X]) Order(m *ProposeMsg) {
	if sl := s.Accept(m); sl != nil {
		s.Run(sl)
	}
}

// Run starts the stages of a slot Accept has just assigned: it casts this
// replica's vote at the first stage, which votes that overtook the
// proposal may already close. With no stages the proposal alone orders
// the slot (Zyzzyva).
func (s *Slots[X]) Run(sl *Slot[X]) { s.advance(sl, -1, nil) }

// OnMessage authenticates and handles the ordering messages (under a
// speculative profile, history checkpoints too) and reports whether m was
// one. A stale or misdirected vote is dropped before its signature check.
func (s *Slots[X]) OnMessage(from types.NodeID, m types.Message) bool {
	switch mm := m.(type) {
	case *ProposeMsg:
		if mm.Verify(s.env) {
			s.Order(mm)
		}
	case *VoteMsg:
		s.onVote(from, mm)
	case *CertMsg:
		s.onCert(mm)
	case *CheckpointMsg:
		if !s.spec {
			return false
		}
		if mm.Replica == from && s.env.Verifier().VerifySig(from, mm.Digest(), mm.Sig) {
			s.checkpoint(from, mm)
		}
	default:
		return false
	}
	return true
}

func (s *Slots[X]) onVote(from types.NodeID, m *VoteMsg) {
	if m.View != s.vc.View() || s.vc.Active() {
		return
	}
	i := s.index(m.Stage)
	if i < 0 || s.stages[i].Collect && !s.vc.Leading() ||
		!s.InActiveSet(m.View, from) || !s.InActiveSet(m.View, s.env.ID()) ||
		m.Seq <= s.env.Ledger().LowWater() || !m.Verify(s.env, from) {
		return
	}
	sl := s.Vote(m.Stage, m.View, m.Seq, from, m.Digest, m.Sig)
	if sl != nil && (i == 0 || sl.Past(s.stages[i-1].Stage)) {
		s.check(sl, i)
	}
}

// onCert handles the leader's certificate closing a collector stage. The
// speculative tail keeps one that overtook its proposal and runs the slot
// when a later certificate next runs the tail; a repeat runs it again.
func (s *Slots[X]) onCert(m *CertMsg) {
	i := s.index(m.Stage)
	if i < 0 || !s.stages[i].Collect || !m.Verify(s.env) || m.View != s.vc.View() || s.vc.Active() ||
		!s.certified(m, &s.stages[i]) {
		return
	}
	sl := s.slots[m.Seq]
	switch {
	case sl == nil || sl.Batch == nil:
		if s.spec && m.Seq > s.env.Ledger().LastExecuted() {
			if sl = s.slot(m.Seq); sl != nil {
				sl.cert = m
			}
		}
	case sl.Digest == m.Digest && !sl.specd && (s.spec || !sl.Past(m.Stage)):
		s.close(sl, i, m)
	}
}

// certified reports whether m's certificate holds the votes that close st.
func (s *Slots[X]) certified(m *CertMsg, st *StageSpec) bool {
	return VerifyCert(s.env, m.Cert, s.threshold(st), st.Stage, m.View, m.Seq, m.Digest)
}

// cast sends this replica's vote at st — to the leader of a collector
// stage, to everyone taking part otherwise — and records it where it is
// counted here, under a real signature even when the sent copy is
// MAC-authenticated, so certificates stay transferable.
func (s *Slots[X]) cast(sl *Slot[X], st *StageSpec) {
	m := NewVote(s.env, st.Stage, s.vc.View(), sl.Seq, sl.Digest)
	if st.Collect && !s.vc.Leading() {
		s.env.Send(s.vc.Leader(), m)
		return
	}
	if !st.Collect {
		s.send(m)
	}
	sig := m.Sig
	if sig == nil {
		sig = s.env.Signer().Sign(m.SigDigest())
	}
	s.Vote(st.Stage, m.View, m.Seq, s.env.ID(), m.Digest, sig)
}

// check closes stage i of sl if a quorum voted for the assigned digest. A
// collector stage closes at the leader, which broadcasts the certificate
// and, once it checks out, acts on it as every receiver does.
func (s *Slots[X]) check(sl *Slot[X], i int) {
	st := &s.stages[i]
	if st.Collect && !s.vc.Leading() || !sl.Reached(st.Stage, s.threshold(st)) {
		return
	}
	if !st.Collect {
		s.close(sl, i, nil)
		return
	}
	cm := sl.Certify(st.Stage, st.Stage)
	s.env.Broadcast(cm)
	if s.certified(cm, st) {
		s.close(sl, i, cm)
	}
}

// close marks stage i of sl closed — by the votes counted here, or by the
// certificate cm — and moves on.
func (s *Slots[X]) close(sl *Slot[X], i int, cm *CertMsg) {
	stage := s.stages[i].Stage
	sl.reached |= 1 << stage
	if s.Closed != nil {
		s.Closed(sl, stage)
	}
	s.advance(sl, i, cm)
}

// advance starts the stage after i (-1: the proposal) or, after the last,
// commits sl or hands it to the speculative tail.
func (s *Slots[X]) advance(sl *Slot[X], i int, cm *CertMsg) {
	if i+1 < len(s.stages) {
		st := &s.stages[i+1]
		if !s.Withhold && (st.Voters != VotersBackups || !s.vc.Leading()) {
			s.cast(sl, st)
		}
		s.check(sl, i+1)
		return
	}
	if s.spec {
		sl.cert, sl.done = cm, true
		s.drain()
		return
	}
	view := s.vc.View()
	proof := &types.CommitProof{View: view, Seq: sl.Seq, Digest: sl.Digest, Voters: sl.Voters(s.stages[i].Stage)}
	if cm != nil { // a collector stage's voters are its certificate's signers
		proof.Voters = slices.Clone(cm.Cert.Signers)
	}
	s.env.Commit(view, sl.Seq, sl.Batch, proof)
	if s.Committed != nil {
		s.Committed(sl, proof)
	}
}

// Cert returns the certificate that closed sl's last stage, if that was a
// collector stage (a PoE slot's transferable proof in a view change).
func (sl *Slot[X]) Cert() *crypto.Certificate {
	if !sl.done || sl.cert == nil {
		return nil
	}
	return sl.cert.Cert
}

// Speculated reports whether sl was executed speculatively.
func (sl *Slot[X]) Speculated() bool { return sl.specd }

// Carry adds to this replica's view-change message the assigned slots
// above its base that it vouches for (keep), each with the certificate
// that closed its last stage, if a collector stage did.
func (s *Slots[X]) Carry(m *ViewChangeMsg, keep func(*Slot[X]) bool) {
	for _, sl := range s.Assigned() {
		if sl.Seq > m.Base && keep(sl) {
			m.Carried = append(m.Carried, CarriedSlot{View: s.vc.View(), Seq: sl.Seq, Digest: sl.Digest, Batch: sl.Batch, Cert: sl.Cert()})
		}
	}
}

// --- the speculative tail (DC7/DC8) ----------------------------------------

// specTip is the highest sequence number executed, speculatively or not.
func (s *Slots[X]) specTip() types.SeqNum { return max(s.env.Ledger().LastExecuted(), s.tip) }

// drain speculatively executes, in order, each slot right above the tip
// whose last stage closed (or whose early certificate names its proposal),
// answers its clients, restarts τ2, and announces the history digest at
// each checkpoint interval.
func (s *Slots[X]) drain() {
	for {
		sl := s.slots[s.specTip()+1]
		if sl == nil || sl.Batch == nil || !sl.done && (sl.cert == nil || sl.cert.Digest != sl.Digest) {
			return
		}
		results := s.env.SpecExecute(sl.Seq, sl.Batch)
		if results == nil {
			return
		}
		sl.specd, s.tip = true, sl.Seq
		ReplyExecuted(s.env, s.vc.View(), sl.Seq, sl.Batch, results, true)
		s.backlog.Progress()
		if iv := s.env.Config().CheckpointInterval; iv > 0 && uint64(sl.Seq)%iv == 0 {
			cp := &CheckpointMsg{Seq: sl.Seq, StateHash: s.env.HistoryDigest(), Replica: s.env.ID()}
			cp.Sig = s.env.Signer().Sign(cp.Digest())
			s.env.Broadcast(cp)
			s.checkpoint(s.env.ID(), cp)
		}
	}
}

// checkpoint records a replica's history digest at a checkpoint and, once
// a quorum announced this replica's own, commits the speculated prefix up
// to it. Own means the current HistoryDigest, not the digest at m.Seq: once
// the tip has passed m.Seq the two differ, and that checkpoint never
// commits (a known defect, ROADMAP item 2).
func (s *Slots[X]) checkpoint(from types.NodeID, m *CheckpointMsg) {
	s.checkpoints.Add(m.Seq, from, m.StateHash)
	if voters := Backers(&s.checkpoints, m.Seq, s.env.HistoryDigest()); len(voters) >= s.Quorum && s.specTip() >= m.Seq {
		s.CommitSpeculated(m.Seq, voters)
		s.checkpoints.Delete(m.Seq)
	}
}

// CommitSpeculated durably commits, once the speculative tip has reached
// seq, every speculatively executed slot from the execution point up to
// seq, with voters as each one's proof: a checkpoint quorum, or Zyzzyva's
// client commit certificate.
func (s *Slots[X]) CommitSpeculated(seq types.SeqNum, voters []types.NodeID) {
	if s.specTip() < seq {
		return
	}
	for n := s.env.Ledger().LastExecuted() + 1; n <= seq; n++ {
		sl := s.slots[n]
		if sl == nil || !sl.specd {
			return
		}
		proof := &types.CommitProof{View: s.vc.View(), Seq: n, Digest: sl.Digest,
			Voters: append([]types.NodeID(nil), voters...)}
		s.env.Commit(s.vc.View(), n, sl.Batch, proof)
	}
}
