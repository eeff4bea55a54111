package core

import (
	"slices"
	"time"

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
	// stage by broadcasting the certificate of a quorum of them. Under a
	// Tree topology the votes go up the view's tree as partial aggregates
	// and the certificate comes back down it. Otherwise every vote goes to
	// every replica taking part, and each counts the votes for itself.
	Collect bool
	// Quorum is how many votes close the stage, the proposal counted
	// where it stands in for the leader's vote.
	Quorum LinearTerm
	// FastWait gives a collector stage SBFT's fast path (DC6): the votes
	// of all n replicas, certified as StageFastCommit, commit the slot at
	// once. When FastWait (τ3) passes first, a quorum certified as
	// StagePrepare closes the stage; below a quorum τ3 is re-armed. All n,
	// not Profile.FastQuorum (DESIGN.md → Stage runner).
	FastWait time.Duration
}

// The runner's timers: τ3, and a tree's inner node's wait for its subtree.
const timerFastPath = "fastpath"

var aggrTimers = [numStages]string{StagePrepare: "aggregate-prepare", StageCommit: "aggregate-commit"}

// branching is the fan-out of a Tree topology's tree.
const branching = 2

// index returns stage's position in the stage list, or -1.
func (s *Slots[X]) index(stage Stage) int {
	for i := range s.stages {
		if s.stages[i].Stage == stage {
			return i
		}
	}
	return -1
}

// certStage returns the position of the collector stage whose votes a
// certificate announced as `as` holds, and how many it must hold; -1 if
// there is none. A fast-path stage announces all n votes as
// StageFastCommit and a quorum as StagePrepare.
func (s *Slots[X]) certStage(as Stage) (int, int) {
	for i := range s.stages {
		switch st := &s.stages[i]; {
		case !st.Collect:
		case st.FastWait == 0 && as == st.Stage, st.FastWait > 0 && as == StagePrepare:
			return i, s.threshold(st)
		case st.FastWait > 0 && as == StageFastCommit:
			return i, s.env.N()
		}
	}
	return -1, 0
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
	return s.active == 0 || s.position(v, id) < s.active
}

// send delivers an ordering message of this replica to every other replica
// taking part in the current view or, under a Tree topology, to its
// children.
func (s *Slots[X]) send(m types.Message) {
	switch {
	case s.tree:
		s.down(m)
	case s.active == 0:
		s.env.Broadcast(m)
	default:
		for pos := range s.active {
			if id := s.replicaAt(s.vc.View(), pos); id != s.env.ID() {
				s.env.Send(id, m)
			}
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
// view's re-issued slots included), relays a newly assigned one down a
// tree, and runs its stages.
func (s *Slots[X]) Order(m *ProposeMsg) {
	if sl := s.Accept(m); sl != nil {
		if s.tree {
			s.down(m)
		}
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
// one. A stale, late or misdirected vote or aggregate is dropped before
// its signatures are checked.
func (s *Slots[X]) OnMessage(from types.NodeID, m types.Message) bool {
	switch mm := m.(type) {
	case *ProposeMsg:
		if mm.Verify(s.env) {
			s.Order(mm)
		}
	case *VoteMsg:
		s.onVote(from, mm)
	case *CertMsg:
		s.onCert(mm, false)
	case *AggrMsg:
		s.onAggr(mm)
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
	if i < 0 || s.tree || s.stages[i].Collect && !s.vc.Leading() ||
		!s.InActiveSet(m.View, from) || !s.InActiveSet(m.View, s.env.ID()) ||
		s.settled(m.Seq, i) || !m.Verify(s.env, from) {
		return
	}
	sl := s.vote(m.Stage, m.View, m.Seq, from, m.Digest, m.Sig)
	if sl != nil && (i == 0 || sl.Past(s.stages[i-1].Stage)) {
		s.check(sl, i)
	}
}

// settled reports whether a vote at stage i of seq can no longer change
// what the runner does, so that it is dropped unverified: the slot has
// executed or its last stage closed, or stage i closed. The exception is
// the fast-path stage of an undecided slot: after τ3 closed it, the
// leader still turns the n-th vote into the fast-commit certificate.
func (s *Slots[X]) settled(seq types.SeqNum, i int) bool {
	if seq <= s.env.Ledger().LastExecuted() {
		return true
	}
	sl := s.slots[seq]
	return sl != nil && (sl.done || sl.Past(s.stages[i].Stage) && s.stages[i].FastWait == 0)
}

// onCert handles the leader's certificate closing a collector stage; own
// marks this leader's own, whose signature needs no check. A tree relays
// it down. A fast-path one commits the slot, any other closes its stage.
// Only the speculative tail acts on one for a slot not held undecided: it
// keeps one that overtook its proposal, and a repeat runs the tail again.
func (s *Slots[X]) onCert(m *CertMsg, own bool) {
	i, quorum := s.certStage(m.Stage)
	if i < 0 || !own && !m.Verify(s.env) || m.View != s.vc.View() || s.vc.Active() {
		return
	}
	sl := s.slots[m.Seq]
	if !s.spec && (sl == nil || sl.Batch == nil || sl.Digest != m.Digest || sl.done) ||
		!VerifyCert(s.env, m.Cert, quorum, s.stages[i].Stage, m.View, m.Seq, m.Digest) {
		return
	}
	if s.tree {
		s.down(m)
	}
	switch {
	case sl == nil || sl.Batch == nil:
		if m.Seq > s.env.Ledger().LastExecuted() {
			if sl = s.slot(m.Seq); sl != nil {
				sl.cert = m
			}
		}
	case sl.Digest != m.Digest || sl.specd:
	case m.Stage == StageFastCommit:
		s.advance(sl, len(s.stages)-1, m)
	case s.spec || !sl.Past(s.stages[i].Stage):
		s.close(sl, i, m)
	}
}

// cast sends this replica's vote at st — to the leader of a collector
// stage, to everyone taking part otherwise — and records it where it is
// counted here as it was sent: signed under signatures, unsigned under
// MACs, where no peer's vote carries a signature either, so a MAC-mode
// certificate would never reach a quorum. On a tree the vote is signed,
// recorded here and travels up in this replica's aggregate.
func (s *Slots[X]) cast(sl *Slot[X], st *StageSpec) {
	if v := s.vc.View(); s.tree {
		s.vote(st.Stage, v, sl.Seq, s.env.ID(), sl.Digest, s.env.Signer().Sign(VoteDigest(st.Stage, v, sl.Seq, sl.Digest)))
		return
	}
	m := NewVote(s.env, st.Stage, s.vc.View(), sl.Seq, sl.Digest)
	if st.Collect && !s.vc.Leading() {
		s.env.Send(s.vc.Leader(), m)
		return
	}
	if !st.Collect {
		s.send(m)
	}
	s.vote(st.Stage, m.View, m.Seq, s.env.ID(), m.Digest, m.Sig)
}

// check closes stage i of sl if a quorum voted for the assigned digest. A
// collector stage closes at the leader, which certifies the votes. A
// fast-path stage closes early only once every replica voted; its slow
// path is τ3's. An inner node of a tree passes its subtree's votes up once
// all are in (a leaf at once) or, when its wait of 2 × BatchTimeout ends,
// what came, so that a silent descendant cannot block the slot.
func (s *Slots[X]) check(sl *Slot[X], i int) {
	st := &s.stages[i]
	switch {
	case s.tree && !s.vc.Leading() && (sl.count(st.Stage) >= s.subtree() || sl.sent[i] > 0):
		s.forward(sl, i) // the whole subtree, or late votes
	case s.tree && !s.vc.Leading():
		s.env.SetTimer(TimerID{Name: aggrTimers[st.Stage], Seq: sl.Seq, View: s.vc.View()}, 2*s.env.Config().BatchTimeout)
	case st.Collect && !s.vc.Leading() || sl.done:
	case st.FastWait > 0:
		if sl.count(st.Stage) == s.env.N() {
			s.env.StopTimer(TimerID{Name: timerFastPath, Seq: sl.Seq, View: s.vc.View()})
			s.certify(sl, i, StageFastCommit)
		}
	case st.Collect:
		if !sl.Past(st.Stage) && sl.count(st.Stage) >= s.threshold(st) {
			s.certify(sl, i, st.Stage)
		}
	case sl.reached(st.Stage, s.threshold(st)):
		s.close(sl, i, nil)
	}
}

// certify sends the leader's certificate of stage i's votes, announced as
// stage `as`, and acts on it as every receiver does.
func (s *Slots[X]) certify(sl *Slot[X], i int, as Stage) {
	cm := &CertMsg{Stage: as, View: s.vc.View(), Seq: sl.Seq, Digest: sl.Digest,
		Cert: sl.Certificate(s.stages[i].Stage), Leader: s.env.ID()}
	cm.Sig = s.env.Signer().Sign(cm.SigDigest())
	s.send(cm)
	s.onCert(cm, true)
}

// close marks stage i of sl closed — by the votes counted here, or by the
// certificate cm — and moves on.
func (s *Slots[X]) close(sl *Slot[X], i int, cm *CertMsg) {
	stage := s.stages[i].Stage
	sl.past |= 1 << stage
	if s.Closed != nil {
		s.Closed(sl, stage, cm)
	}
	s.advance(sl, i, cm)
}

// advance starts the stage after i (-1: the proposal) or, after the last,
// commits sl or hands it to the speculative tail.
func (s *Slots[X]) advance(sl *Slot[X], i int, cm *CertMsg) {
	if i+1 < len(s.stages) {
		st := &s.stages[i+1]
		if st.Voters != VotersBackups || !s.vc.Leading() {
			s.cast(sl, st)
		}
		s.check(sl, i+1)
		if st.FastWait > 0 && s.vc.Leading() {
			s.env.SetTimer(TimerID{Name: timerFastPath, Seq: sl.Seq, View: s.vc.View()}, st.FastWait)
		}
		return
	}
	sl.cert, sl.done = cm, true
	if s.spec {
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

// OnTimer handles the runner's timers and reports whether id was one: on
// τ3 the leader takes the slow path, or waits again below a quorum; when
// an inner node's wait ends, it forwards what its subtree sent.
func (s *Slots[X]) OnTimer(id TimerID) bool {
	sl := s.slots[id.Seq]
	for i := range s.stages {
		st := &s.stages[i]
		switch {
		case st.FastWait > 0 && id.Name == timerFastPath:
			switch {
			case !s.vc.Leading() || id.View != s.vc.View() || sl == nil || sl.done || sl.Past(st.Stage):
			case sl.count(st.Stage) >= s.threshold(st):
				s.certify(sl, i, StagePrepare)
			default:
				s.env.SetTimer(id, st.FastWait)
			}
		case s.tree && id.Name == aggrTimers[st.Stage]:
			if sl != nil && id.View == s.vc.View() {
				s.forward(sl, i)
			}
		default:
			continue
		}
		return true
	}
	return false
}

// --- tree dissemination and aggregation (DC14) ------------------------------

// position returns id's place in view v's breadth-first tree: position 0
// is the root, the view's leader, and the children of position p are
// branching*p+1 … branching*p+branching. Rotating the view rotates the
// tree.
func (s *Slots[X]) position(v types.View, id types.NodeID) int {
	n := uint64(s.env.N())
	return int((uint64(id) + n - uint64(s.env.Config().LeaderOf(v))) % n)
}

// replicaAt inverts position.
func (s *Slots[X]) replicaAt(v types.View, pos int) types.NodeID {
	return types.NodeID((uint64(s.env.Config().LeaderOf(v)) + uint64(pos)) % uint64(s.env.N()))
}

// Parent returns this replica's parent in view v's tree, -1 at the root.
func (s *Slots[X]) Parent(v types.View) types.NodeID {
	pos := s.position(v, s.env.ID())
	if pos == 0 {
		return -1
	}
	return s.replicaAt(v, (pos-1)/branching)
}

// subtree returns how many replicas, this one included, sit in its
// subtree of the current view's tree: a contiguous run of positions per
// level.
func (s *Slots[X]) subtree() int {
	n, size := s.env.N(), 0
	pos := s.position(s.vc.View(), s.env.ID())
	for lo, hi := pos, pos; lo < n; lo, hi = branching*lo+1, branching*hi+branching {
		size += min(hi, n-1) - lo + 1
	}
	return size
}

// down relays m to this replica's children in the current view's tree.
func (s *Slots[X]) down(m types.Message) {
	v := s.vc.View()
	pos := s.position(v, s.env.ID())
	for c := branching*pos + 1; c <= branching*pos+branching && c < s.env.N(); c++ {
		s.env.Send(s.replicaAt(v, c), m)
	}
}

// onAggr records the votes of a child's aggregate. Everything that
// decides whether a vote would be taken — distinct replica IDs, no more
// than n of them, the current view, a stage of the list, a slot inside
// the window — is checked before any signature, and a signer already on
// record is not verified again: an aggregate costs at most n
// verifications however many signatures it lists.
func (s *Slots[X]) onAggr(m *AggrMsg) {
	n, i := s.env.N(), s.index(m.Stage)
	if !s.tree || i < 0 || m.View != s.vc.View() || s.vc.Active() || len(m.Signers) != len(m.Sigs) || len(m.Signers) > n {
		return
	}
	for j, id := range m.Signers {
		if id < 0 || int(id) >= n || slices.Contains(m.Signers[:j], id) {
			return
		}
	}
	sl := s.slot(m.Seq)
	if sl == nil {
		return
	}
	key, want := stageKey{m.Seq, m.Stage}, VoteDigest(m.Stage, m.View, m.Seq, m.Digest)
	for j, id := range m.Signers {
		if s.votes.index(key, id) < 0 && s.env.Verifier().VerifySig(id, want, m.Sigs[j]) {
			s.votes.Add(key, id, ballot{m.Digest, m.Sigs[j]})
		}
	}
	if sl.Batch != nil {
		s.check(sl, i)
	}
}

// forward sends the parent every vote signature held at stage i for the
// assigned digest, if there are more than the last aggregate carried.
func (s *Slots[X]) forward(sl *Slot[X], i int) {
	st := s.stages[i].Stage
	cert := sl.Certificate(st)
	if cert.Size() <= int(sl.sent[i]) {
		return
	}
	sl.sent[i] = uint16(cert.Size())
	view := s.vc.View()
	s.env.Send(s.Parent(view), &AggrMsg{Stage: st, View: view, Seq: sl.Seq, Digest: sl.Digest,
		Signers: cert.Signers, Sigs: cert.Sigs})
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
// each checkpoint interval. A slot executed speculatively has left the
// leader's window, so the leader proposes again.
func (s *Slots[X]) drain() {
	tip := s.tip
	for {
		sl := s.slots[s.specTip()+1]
		if sl == nil || sl.Batch == nil || !sl.done && (sl.cert == nil || sl.cert.Digest != sl.Digest) {
			break
		}
		results := s.env.SpecExecute(sl.Seq, sl.Batch)
		if results == nil {
			break
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
	if s.tip != tip {
		s.Propose()
	}
}

// checkpoint records a replica's history digest at a checkpoint and, once
// a quorum announced the digest this replica announced there itself — its
// history at m.Seq, whatever it has executed since — commits the speculated
// prefix up to it. This replica's own announcement replaces the one it made
// before a rollback re-executed the slot.
func (s *Slots[X]) checkpoint(from types.NodeID, m *CheckpointMsg) {
	self := s.env.ID()
	if from == self {
		s.checkpoints.Replace(m.Seq, from, m.StateHash)
	} else {
		s.checkpoints.Add(m.Seq, from, m.StateHash)
	}
	i := s.checkpoints.index(m.Seq, self)
	if i < 0 || s.specTip() < m.Seq {
		return
	}
	if voters := Backers(&s.checkpoints, m.Seq, s.checkpoints.Votes(m.Seq)[i].Val); len(voters) >= s.Quorum {
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
