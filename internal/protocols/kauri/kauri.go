// Package kauri implements a Kauri-style tree-based protocol [149],
// design choice 14: replicas are organized in a b-ary tree with the
// leader at the root. Proposals flow down the tree (each internal node
// relays to its children) and votes aggregate up it (each internal node
// combines its subtree's signatures with its own before forwarding), so
// no node ever talks to more than b+1 peers — the load-balancing
// property experiment X9 measures. Commitment uses two tree rounds
// (prepare aggregation, then commit aggregation), the linearized
// equivalent of PBFT's two quadratic phases.
//
// The protocol optimistically assumes internal (non-leaf) nodes are
// honest and alive (assumption a3): a failed internal node silences its
// whole subtree, the root cannot assemble a quorum, and the view change
// *reconfigures the tree* — the next view permutes replica positions, so
// the failed node eventually lands on a leaf where it can do no harm.
package kauri

import (
	"bftkit/internal/core"
	"bftkit/internal/crypto"
	"bftkit/internal/types"
)

// Timer names.
const (
	timerProgress = "progress"
	timerVCRetry  = "vc-retry"
	timerAggr     = "aggregate" // bounded wait for subtree votes
)

// Branching is the tree fan-out.
const Branching = 2

func shareDigest(stage string, v types.View, seq types.SeqNum, d types.Digest) types.Digest {
	var h types.Hasher
	h.Str("kauri-share").Str(stage).U64(uint64(v)).U64(uint64(seq)).Digest(d)
	return h.Sum()
}

// ProposalMsg flows down the tree.
type ProposalMsg struct {
	View   types.View
	Seq    types.SeqNum
	Digest types.Digest
	Batch  *types.Batch
	Sig    []byte // root's signature
}

// Kind implements types.Message.
func (*ProposalMsg) Kind() string { return "KAURI-PROPOSE" }

// Slot implements obsv.Slotted.
func (m *ProposalMsg) Slot() (types.View, types.SeqNum) { return m.View, m.Seq }

// SigDigest is the signed content.
func (m *ProposalMsg) SigDigest() types.Digest {
	var h types.Hasher
	h.Str("kauri-propose").U64(uint64(m.View)).U64(uint64(m.Seq)).Digest(m.Digest)
	return h.Sum()
}

// AggrMsg carries aggregated vote signatures up the tree. Stage is
// "prepare" or "commit".
type AggrMsg struct {
	Stage   string
	View    types.View
	Seq     types.SeqNum
	Digest  types.Digest
	Signers []types.NodeID
	Sigs    [][]byte
}

// Kind implements types.Message.
func (m *AggrMsg) Kind() string { return "KAURI-AGGR-" + m.Stage }

// Slot implements obsv.Slotted.
func (m *AggrMsg) Slot() (types.View, types.SeqNum) { return m.View, m.Seq }

// CertMsg flows a completed certificate down the tree. Stage "prepare"
// starts the commit round; stage "commit" commits the slot.
type CertMsg struct {
	Stage  string
	View   types.View
	Seq    types.SeqNum
	Digest types.Digest
	Cert   *crypto.Certificate
	Sig    []byte // root's signature
}

// Kind implements types.Message.
func (m *CertMsg) Kind() string { return "KAURI-CERT-" + m.Stage }

// Slot implements obsv.Slotted.
func (m *CertMsg) Slot() (types.View, types.SeqNum) { return m.View, m.Seq }

// EncodedSize implements sim.Sizer (threshold certificates are constant).
func (m *CertMsg) EncodedSize() int {
	size := 64 + crypto.SigSize
	if m.Cert != nil {
		size += m.Cert.EncodedSize()
	}
	return size
}

// SigDigest is the signed content.
func (m *CertMsg) SigDigest() types.Digest {
	var h types.Hasher
	h.Str("kauri-cert").Str(m.Stage).U64(uint64(m.View)).U64(uint64(m.Seq)).Digest(m.Digest)
	return h.Sum()
}

// ViewChangeMsg reconfigures the tree (star topology: straight to the
// next root).
type ViewChangeMsg struct {
	NewView   types.View
	Base      types.SeqNum
	Committed []CommittedSlot
	Prepared  []PreparedSlot
	Replica   types.NodeID
	Sig       []byte
}

// CommittedSlot carries a committed slot and its proof.
type CommittedSlot struct {
	View   types.View
	Seq    types.SeqNum
	Batch  *types.Batch
	Voters []types.NodeID
}

// PreparedSlot carries a slot with a prepare certificate.
type PreparedSlot struct {
	View   types.View
	Seq    types.SeqNum
	Digest types.Digest
	Batch  *types.Batch
	Cert   *crypto.Certificate
}

// Kind implements types.Message.
func (*ViewChangeMsg) Kind() string { return "KAURI-VIEW-CHANGE" }

// Vote implements core.ViewChangeVote.
func (m *ViewChangeMsg) Vote() (types.View, types.NodeID, []byte) { return m.NewView, m.Replica, m.Sig }

// SigDigest is the signed content.
func (m *ViewChangeMsg) SigDigest() types.Digest {
	var h types.Hasher
	h.Str("kauri-vc").U64(uint64(m.NewView)).U64(uint64(m.Base)).U64(uint64(m.Replica))
	for _, s := range m.Committed {
		h.U64(uint64(s.Seq))
	}
	for _, s := range m.Prepared {
		h.U64(uint64(s.Seq)).Digest(s.Digest)
	}
	return h.Sum()
}

// NewViewMsg installs a view (broadcast; the tree is not trusted yet).
type NewViewMsg struct {
	View        types.View
	Base        types.SeqNum
	ViewChanges []*ViewChangeMsg
	Committed   []CommittedSlot
	Proposals   []*ProposalMsg
	Sig         []byte
}

// Kind implements types.Message.
func (*NewViewMsg) Kind() string { return "KAURI-NEW-VIEW" }

// SigDigest is the signed content.
func (m *NewViewMsg) SigDigest() types.Digest {
	var h types.Hasher
	h.Str("kauri-nv").U64(uint64(m.View)).U64(uint64(m.Base))
	for _, p := range m.Proposals {
		h.U64(uint64(p.Seq)).Digest(p.Digest)
	}
	return h.Sum()
}

type stageState struct {
	own     []byte
	signers map[types.NodeID][]byte
	sent    bool // root only: certificate built
	// lastSent is how many signatures the last upward aggregate held;
	// late subtree votes trigger an incremental re-send so a slow leaf
	// cannot starve the root of its quorum.
	lastSent int
}

type slot struct {
	digest   types.Digest
	batch    *types.Batch
	proposed bool
	prepare  stageState
	commit   stageState
	prepCert *crypto.Certificate
	done     bool
}

// Kauri is the protocol state machine for one replica.
type Kauri struct {
	env core.Env
	cm  *core.CheckpointManager

	// backlog is the request intake and τ2 timer; vc the view-change
	// skeleton, which owns the current view (both from the core kit).
	backlog *core.Backlog
	vc      *core.ViewChange[*ViewChangeMsg]

	nextSeq types.SeqNum
	slots   map[types.SeqNum]*slot
	// preparedProof persists prepare certificates across tree
	// reconfigurations (the per-view slots map is reset on install).
	preparedProof map[types.SeqNum]*PreparedSlot
}

// New returns a Kauri replica.
func New(cfg core.Config) core.Protocol { return &Kauri{} }

func init() {
	core.Register(core.Registration{
		Name:       "kauri",
		Profile:    core.KauriProfile(),
		NewReplica: New,
	})
}

// Init implements core.Protocol.
func (k *Kauri) Init(env core.Env) {
	k.env = env
	k.cm = core.NewCheckpointManager(env)
	k.slots = make(map[types.SeqNum]*slot)
	k.preparedProof = make(map[types.SeqNum]*PreparedSlot)
	k.backlog = core.NewBacklog(env, timerProgress)
	k.vc = core.NewViewChange(env, k.backlog, timerVCRetry, env.Config().Quorum(),
		core.ViewChangeHooks[*ViewChangeMsg]{Build: k.buildViewChange, NewView: k.sendNewView})
}

// View returns the current view.
func (k *Kauri) View() types.View { return k.vc.View() }

// --- tree geometry -------------------------------------------------------

// position returns a replica's index in the view's breadth-first tree
// layout: position 0 is the root (the leader), children of position i are
// b*i+1 … b*i+b.
func (k *Kauri) position(v types.View, id types.NodeID) int {
	n := uint64(k.env.N())
	return int((uint64(id) + n - uint64(v)%n) % n)
}

// replicaAt inverts position.
func (k *Kauri) replicaAt(v types.View, pos int) types.NodeID {
	n := uint64(k.env.N())
	return types.NodeID((uint64(v)%n + uint64(pos)) % n)
}

// Parent returns this replica's parent in the view's tree (-1 for root).
func (k *Kauri) Parent(v types.View) types.NodeID {
	pos := k.position(v, k.env.ID())
	if pos == 0 {
		return -1
	}
	return k.replicaAt(v, (pos-1)/Branching)
}

// Children returns this replica's children in the view's tree.
func (k *Kauri) Children(v types.View) []types.NodeID {
	pos := k.position(v, k.env.ID())
	var out []types.NodeID
	for c := Branching*pos + 1; c <= Branching*pos+Branching; c++ {
		if c < k.env.N() {
			out = append(out, k.replicaAt(v, c))
		}
	}
	return out
}

func (k *Kauri) root(v types.View) types.NodeID { return k.replicaAt(v, 0) }
func (k *Kauri) isRoot() bool                   { return k.root(k.View()) == k.env.ID() }

func (k *Kauri) down(m types.Message) {
	for _, c := range k.Children(k.View()) {
		k.env.Send(c, m)
	}
}

// --- request intake ------------------------------------------------------

// OnRequest implements core.Protocol: requests go to the tree's root,
// which is the view's round-robin leader.
func (k *Kauri) OnRequest(req *types.Request) {
	if k.backlog.Submit(req, k.root(k.View())) {
		k.maybePropose()
	}
}

func (k *Kauri) maybePropose() {
	if !k.vc.MayPropose() {
		return
	}
	for {
		reqs := k.backlog.Take(k.env.Config().BatchSize)
		if len(reqs) == 0 {
			return
		}
		batch := types.NewBatch(reqs...)
		k.nextSeq++
		prop := &ProposalMsg{View: k.View(), Seq: k.nextSeq, Digest: batch.Digest(), Batch: batch}
		prop.Sig = k.env.Signer().Sign(prop.SigDigest())
		k.down(prop)
		k.acceptProposal(prop)
	}
}

func (k *Kauri) slot(seq types.SeqNum) *slot {
	sl := k.slots[seq]
	if sl == nil {
		sl = &slot{
			prepare: stageState{signers: make(map[types.NodeID][]byte)},
			commit:  stageState{signers: make(map[types.NodeID][]byte)},
		}
		k.slots[seq] = sl
	}
	return sl
}

// acceptProposal relays down the tree and starts the prepare aggregation.
func (k *Kauri) acceptProposal(m *ProposalMsg) {
	if m.View != k.View() || k.vc.Active() {
		return
	}
	if m.Batch.Digest() != m.Digest {
		return
	}
	sl := k.slot(m.Seq)
	if sl.proposed && sl.digest != m.Digest {
		k.vc.Start(k.View() + 1)
		return
	}
	if sl.proposed {
		return
	}
	sl.proposed = true
	sl.digest = m.Digest
	sl.batch = m.Batch
	k.backlog.Proposed(m.Batch)
	k.down(m) // relay to the subtree
	// Vote prepare: sign and start aggregating the subtree.
	sl.prepare.own = k.env.Signer().Sign(shareDigest("prepare", m.View, m.Seq, m.Digest))
	sl.prepare.signers[k.env.ID()] = sl.prepare.own
	k.maybeForwardAggr("prepare", m.Seq, sl, &sl.prepare)
}

// subtreeSize returns how many replicas (including self) sit in this
// replica's subtree in the current view's tree.
func (k *Kauri) subtreeSize() int {
	pos := k.position(k.View(), k.env.ID())
	n := k.env.N()
	size := 0
	var count func(p int)
	count = func(p int) {
		if p >= n {
			return
		}
		size++
		for c := Branching*p + 1; c <= Branching*p+Branching; c++ {
			count(c)
		}
	}
	count(pos)
	return size
}

// maybeForwardAggr sends the aggregate to the parent once the whole
// subtree has voted (or immediately at a leaf); the root instead tries to
// finish the certificate.
func (k *Kauri) maybeForwardAggr(stage string, seq types.SeqNum, sl *slot, st *stageState) {
	if k.isRoot() {
		k.maybeFinishStage(stage, seq, sl, st)
		return
	}
	if len(st.signers) < k.subtreeSize() {
		if st.lastSent == 0 {
			// Wait briefly for the subtree; forward a partial aggregate
			// on timeout so a silent descendant cannot block the slot.
			k.env.SetTimer(core.TimerID{Name: timerAggr + "-" + stage, Seq: seq, View: k.View()},
				2*k.env.Config().BatchTimeout)
		} else if len(st.signers) > st.lastSent {
			k.forwardAggr(stage, seq, sl, st) // incremental late votes
		}
		return
	}
	k.forwardAggr(stage, seq, sl, st)
}

func (k *Kauri) forwardAggr(stage string, seq types.SeqNum, sl *slot, st *stageState) {
	if len(st.signers) <= st.lastSent {
		return
	}
	st.lastSent = len(st.signers)
	agg := &AggrMsg{Stage: stage, View: k.View(), Seq: seq, Digest: sl.digest}
	for id, sig := range st.signers {
		agg.Signers = append(agg.Signers, id)
		agg.Sigs = append(agg.Sigs, sig)
	}
	k.env.Send(k.Parent(k.View()), agg)
}

// maybeFinishStage (root only) builds the certificate at quorum.
func (k *Kauri) maybeFinishStage(stage string, seq types.SeqNum, sl *slot, st *stageState) {
	if st.sent || len(st.signers) < k.env.Config().Quorum() {
		return
	}
	st.sent = true
	cert := &crypto.Certificate{
		Digest:    shareDigest(stage, k.View(), seq, sl.digest),
		Threshold: k.env.Scheme() == crypto.SchemeThreshold,
	}
	for id, sig := range st.signers {
		cert.Add(id, sig)
	}
	cm := &CertMsg{Stage: stage, View: k.View(), Seq: seq, Digest: sl.digest, Cert: cert}
	cm.Sig = k.env.Signer().Sign(cm.SigDigest())
	k.down(cm)
	k.onCert(cm)
}

// OnMessage implements core.Protocol.
func (k *Kauri) OnMessage(from types.NodeID, m types.Message) {
	if k.cm.OnMessage(from, m) {
		return
	}
	switch mm := m.(type) {
	case *core.ForwardMsg:
		k.OnRequest(mm.Req)
	case *ProposalMsg:
		if !k.env.Verifier().VerifySig(k.root(mm.View), mm.SigDigest(), mm.Sig) {
			return
		}
		k.acceptProposal(mm)
	case *AggrMsg:
		k.onAggr(mm)
	case *CertMsg:
		if !k.env.Verifier().VerifySig(k.root(mm.View), mm.SigDigest(), mm.Sig) {
			return
		}
		k.onCert(mm)
	case *ViewChangeMsg:
		k.vc.OnViewChange(from, mm)
	case *NewViewMsg:
		k.onNewView(from, mm)
	}
}

func (k *Kauri) onAggr(m *AggrMsg) {
	if m.View != k.View() || k.vc.Active() || len(m.Signers) != len(m.Sigs) {
		return
	}
	sl := k.slot(m.Seq)
	if sl.proposed && sl.digest != m.Digest {
		return
	}
	var st *stageState
	if m.Stage == "prepare" {
		st = &sl.prepare
	} else {
		st = &sl.commit
	}
	want := shareDigest(m.Stage, m.View, m.Seq, m.Digest)
	for i, id := range m.Signers {
		if st.signers[id] != nil {
			continue
		}
		if !k.env.Verifier().VerifySig(id, want, m.Sigs[i]) {
			continue
		}
		st.signers[id] = m.Sigs[i]
	}
	k.maybeForwardAggr(m.Stage, m.Seq, sl, st)
}

// onCert handles a certificate flowing down: a prepare certificate starts
// the commit round; a commit certificate commits.
func (k *Kauri) onCert(m *CertMsg) {
	if m.View != k.View() || k.vc.Active() {
		return
	}
	sl := k.slot(m.Seq)
	if !sl.proposed || sl.digest != m.Digest || sl.done {
		return
	}
	want := shareDigest(m.Stage, m.View, m.Seq, m.Digest)
	if m.Cert == nil || m.Cert.Digest != want ||
		m.Cert.Verify(k.env.Verifier(), k.env.Config().Quorum()) != nil {
		return
	}
	k.down(m) // relay down the tree
	if m.Stage == "prepare" {
		sl.prepCert = m.Cert
		if prev := k.preparedProof[m.Seq]; prev == nil || prev.View < m.View {
			k.preparedProof[m.Seq] = &PreparedSlot{
				View: m.View, Seq: m.Seq, Digest: m.Digest, Batch: sl.batch, Cert: m.Cert,
			}
		}
		if sl.commit.own == nil {
			sl.commit.own = k.env.Signer().Sign(shareDigest("commit", m.View, m.Seq, m.Digest))
			sl.commit.signers[k.env.ID()] = sl.commit.own
			k.maybeForwardAggr("commit", m.Seq, sl, &sl.commit)
		}
		return
	}
	// Commit certificate: the slot is decided.
	sl.done = true
	proof := &types.CommitProof{View: m.View, Seq: m.Seq, Digest: m.Digest,
		Voters: append([]types.NodeID(nil), m.Cert.Signers...)}
	k.env.Commit(m.View, m.Seq, sl.batch, proof)
}

// OnTimer implements core.Protocol.
func (k *Kauri) OnTimer(id core.TimerID) {
	switch id.Name {
	case timerAggr + "-prepare":
		if id.View == k.View() {
			if sl := k.slots[id.Seq]; sl != nil {
				k.forwardAggr("prepare", id.Seq, sl, &sl.prepare)
			}
		}
	case timerAggr + "-commit":
		if id.View == k.View() {
			if sl := k.slots[id.Seq]; sl != nil {
				k.forwardAggr("commit", id.Seq, sl, &sl.commit)
			}
		}
	case timerProgress:
		if k.backlog.Expired(id) {
			k.vc.Start(k.View() + 1)
		}
	case timerVCRetry:
		k.vc.Retry(id)
	}
}

// OnExecuted implements core.Protocol.
func (k *Kauri) OnExecuted(seq types.SeqNum, batch *types.Batch, results [][]byte) {
	k.backlog.Executed(batch)
	core.ReplyExecuted(k.env, k.View(), seq, batch, results)
	delete(k.slots, seq)
	delete(k.preparedProof, seq)
	if k.nextSeq < seq {
		k.nextSeq = seq
	}
	k.cm.OnExecuted(seq)
	k.backlog.Progress()
	k.maybePropose()
}
