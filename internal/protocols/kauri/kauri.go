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
	"bftkit/internal/types"
)

// Timer names.
const (
	timerProgress = "progress"
)

// aggrTimers name, per tree round, the bounded wait for subtree votes.
var aggrTimers = [...]string{core.StagePrepare: "aggregate-prepare", core.StageCommit: "aggregate-commit"}

// Branching is the tree fan-out.
const Branching = 2

// AggrMsg carries a subtree's vote signatures at Stage (prepare or
// commit) up the tree, each over core.VoteDigest. Unlike a core.CertMsg it
// is partial and unsigned: every relay adds its own vote and its children's.
type AggrMsg struct {
	Stage   core.Stage
	View    types.View
	Seq     types.SeqNum
	Digest  types.Digest
	Signers []types.NodeID
	Sigs    [][]byte
}

// Kind implements types.Message.
func (m *AggrMsg) Kind() string {
	if m.Stage == core.StageCommit {
		return "KAURI-AGGR-commit"
	}
	return "KAURI-AGGR-prepare"
}

// Slot implements obsv.Slotted.
func (m *AggrMsg) Slot() (types.View, types.SeqNum) { return m.View, m.Seq }

// slotExt is what a Kauri slot keeps beside the kit's state: per stage,
// how many signatures the last upward aggregate held. Late subtree votes
// trigger an incremental re-send so a slow leaf cannot starve the root of
// its quorum.
type slotExt struct {
	prepareSent, commitSent int
	done                    bool
}

func (x *slotExt) lastSent(stage core.Stage) *int {
	if stage == core.StagePrepare {
		return &x.prepareSent
	}
	return &x.commitSent
}

type slot = core.Slot[slotExt]

// Kauri is the protocol state machine for one replica.
type Kauri struct {
	env core.Env
	cm  *core.CheckpointManager

	// backlog is the request intake and τ2 timer; vc the view-change
	// stage, which owns the current view; Slots the ordering stage's
	// per-sequence state (all from the core kit).
	backlog *core.Backlog
	vc      *core.ViewChange
	Slots   *core.Slots[slotExt]

	// preparedProof persists prepare certificates across tree
	// reconfigurations (the per-view slots are dropped on install).
	preparedProof map[types.SeqNum]*core.CarriedSlot
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
	k.preparedProof = make(map[types.SeqNum]*core.CarriedSlot)
	k.backlog = core.NewBacklog(env, timerProgress)
	k.vc = core.NewViewChange(env, k.backlog, env.Config().Quorum(), k.viewChangeHooks())
	// Two tree rounds the root certifies, aggregated up the tree by hand.
	profile := core.KauriProfile()
	k.Slots = core.NewSlots[slotExt](env, profile, k.backlog, k.vc, k.cm,
		core.StageSpec{Stage: core.StagePrepare, Voters: core.VotersAll, Collect: true, Quorum: profile.Quorum},
		core.StageSpec{Stage: core.StageCommit, Voters: core.VotersAll, Collect: true, Quorum: profile.Quorum})
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
	k.Slots.Propose(func(prop *core.ProposeMsg) {
		k.down(prop)
		k.acceptProposal(prop)
	})
}

// acceptProposal relays down the tree and starts the prepare aggregation.
func (k *Kauri) acceptProposal(m *core.ProposeMsg) {
	sl := k.Slots.Accept(m)
	if sl == nil {
		return
	}
	k.down(m) // relay to the subtree
	k.vote(core.StagePrepare, sl)
}

// vote signs this replica's share for a stage and starts aggregating the
// subtree's.
func (k *Kauri) vote(stage core.Stage, sl *slot) {
	sig := k.env.Signer().Sign(core.VoteDigest(stage, k.View(), sl.Seq, sl.Digest))
	k.Slots.Vote(stage, k.View(), sl.Seq, k.env.ID(), sl.Digest, sig)
	k.maybeForwardAggr(stage, sl)
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
func (k *Kauri) maybeForwardAggr(stage core.Stage, sl *slot) {
	if k.isRoot() {
		k.maybeFinishStage(stage, sl)
		return
	}
	if sl.Count(stage) < k.subtreeSize() && *sl.X.lastSent(stage) == 0 {
		// Wait briefly for the subtree; forward a partial aggregate
		// on timeout so a silent descendant cannot block the slot.
		k.env.SetTimer(core.TimerID{Name: aggrTimers[stage], Seq: sl.Seq, View: k.View()},
			2*k.env.Config().BatchTimeout)
		return
	}
	k.forwardAggr(stage, sl) // the whole subtree, or incremental late votes
}

// forwardAggr sends the parent every signature held for the slot's digest,
// if there are more than the last aggregate carried.
func (k *Kauri) forwardAggr(stage core.Stage, sl *slot) {
	cert := sl.Certificate(stage)
	if last := sl.X.lastSent(stage); cert.Size() > *last {
		*last = cert.Size()
		k.env.Send(k.Parent(k.View()), &AggrMsg{Stage: stage, View: k.View(), Seq: sl.Seq,
			Digest: sl.Digest, Signers: cert.Signers, Sigs: cert.Sigs})
	}
}

// maybeFinishStage (root only) builds the certificate at quorum.
func (k *Kauri) maybeFinishStage(stage core.Stage, sl *slot) {
	if !sl.Reached(stage, k.Slots.Quorum) {
		return
	}
	cm := sl.Certify(stage, stage)
	k.down(cm)
	k.onCert(cm)
}

// OnMessage implements core.Protocol.
func (k *Kauri) OnMessage(from types.NodeID, m types.Message) {
	if k.cm.OnMessage(from, m) || k.vc.OnMessage(from, m) {
		return
	}
	switch mm := m.(type) {
	case *core.ForwardMsg:
		k.OnRequest(mm.Req)
	case *core.ProposeMsg: // the root's, relayed down the tree
		if mm.Verify(k.env) {
			k.acceptProposal(mm)
		}
	case *AggrMsg:
		k.onAggr(mm)
	case *core.CertMsg: // likewise
		if mm.Verify(k.env) {
			k.onCert(mm)
		}
	}
}

func (k *Kauri) onAggr(m *AggrMsg) {
	if m.View != k.View() || k.vc.Active() || len(m.Signers) != len(m.Sigs) || int(m.Stage) >= len(aggrTimers) {
		return
	}
	// Each signature is one signer's vote for the digest the aggregate
	// names; a signer already on record is not verified again.
	want := core.VoteDigest(m.Stage, m.View, m.Seq, m.Digest)
	for i, id := range m.Signers {
		if sl := k.Slots.Get(m.Seq); sl != nil && sl.Voted(m.Stage, id) {
			continue
		}
		if k.env.Verifier().VerifySig(id, want, m.Sigs[i]) {
			k.Slots.Vote(m.Stage, m.View, m.Seq, id, m.Digest, m.Sigs[i])
		}
	}
	if sl := k.Slots.Get(m.Seq); sl != nil && sl.Batch != nil {
		k.maybeForwardAggr(m.Stage, sl)
	}
}

// onCert handles a certificate flowing down: a prepare certificate starts
// the commit round; a commit certificate commits.
func (k *Kauri) onCert(m *core.CertMsg) {
	if m.View != k.View() || k.vc.Active() {
		return
	}
	sl := k.Slots.Get(m.Seq)
	if sl == nil || sl.Batch == nil || sl.Digest != m.Digest || sl.X.done {
		return
	}
	if !core.VerifyCert(k.env, m.Cert, k.Slots.Quorum, m.Stage, m.View, m.Seq, m.Digest) {
		return
	}
	k.down(m) // relay down the tree
	if m.Stage == core.StagePrepare {
		if prev := k.preparedProof[m.Seq]; prev == nil || prev.View < m.View {
			k.preparedProof[m.Seq] = &core.CarriedSlot{
				View: m.View, Seq: m.Seq, Digest: m.Digest, Batch: sl.Batch, Cert: m.Cert,
			}
		}
		if !sl.Voted(core.StageCommit, k.env.ID()) {
			k.vote(core.StageCommit, sl)
		}
		return
	}
	// Commit certificate: the slot is decided.
	sl.X.done = true
	proof := &types.CommitProof{View: m.View, Seq: m.Seq, Digest: m.Digest,
		Voters: append([]types.NodeID(nil), m.Cert.Signers...)}
	k.env.Commit(m.View, m.Seq, sl.Batch, proof)
}

// OnTimer implements core.Protocol.
func (k *Kauri) OnTimer(id core.TimerID) {
	for stage, name := range aggrTimers {
		if id.Name == name {
			// The subtree did not answer in time: forward what is there.
			if sl := k.Slots.Get(id.Seq); sl != nil && id.View == k.View() {
				k.forwardAggr(core.Stage(stage), sl)
			}
			return
		}
	}
	k.vc.OnTimer(id)
}

// OnExecuted implements core.Protocol.
func (k *Kauri) OnExecuted(seq types.SeqNum, batch *types.Batch, results [][]byte) {
	delete(k.preparedProof, seq)
	k.Slots.Executed(seq, batch, results)
	k.maybePropose()
}
