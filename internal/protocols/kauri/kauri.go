// Package kauri implements a Kauri-style tree-based protocol [149],
// design choice 14: replicas are organized in a b-ary tree with the
// leader at the root. Proposals flow down the tree (each internal node
// relays to its children) and votes aggregate up it (each internal node
// combines its subtree's signatures with its own before forwarding), so
// no node ever talks to more than b+1 peers — the load-balancing
// property experiment X9 measures. Commitment uses two tree rounds, the
// linearized equivalent of PBFT's two quadratic phases. The tree is
// core.Slots' stage runner under the profile's Tree topology.
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

const timerProgress = "progress" // τ2: triggers a view change

// Kauri is the protocol state machine for one replica.
type Kauri struct {
	env core.Env
	cm  *core.CheckpointManager

	// The core kit: request intake and τ2, view change, ordering.
	backlog *core.Backlog
	vc      *core.ViewChange
	Slots   *core.Slots[struct{}]

	// preparedProof keeps prepare certificates across views.
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
	// Two tree rounds the root certifies.
	profile := core.KauriProfile()
	k.Slots = core.NewSlots[struct{}](env, profile, k.backlog, k.vc, k.cm,
		core.StageSpec{Stage: core.StagePrepare, Voters: core.VotersAll, Collect: true, Quorum: profile.Quorum},
		core.StageSpec{Stage: core.StageCommit, Voters: core.VotersAll, Collect: true, Quorum: profile.Quorum})
	k.Slots.Closed = k.prepared
}

// OnRequest implements core.Protocol: requests go to the tree's root,
// which is the view's round-robin leader.
func (k *Kauri) OnRequest(req *types.Request) {
	if k.backlog.Submit(req, k.vc.Leader()) {
		k.maybePropose()
	}
}

func (k *Kauri) maybePropose() { k.Slots.Propose() }

// OnMessage implements core.Protocol.
func (k *Kauri) OnMessage(from types.NodeID, m types.Message) {
	if k.cm.OnMessage(from, m) || k.vc.OnMessage(from, m) || k.Slots.OnMessage(from, m) {
		return
	}
	if mm, ok := m.(*core.ForwardMsg); ok {
		k.OnRequest(mm.Req)
	}
}

// prepared keeps a prepare certificate for the next view change.
func (k *Kauri) prepared(sl *core.Slot[struct{}], stage core.Stage, cm *core.CertMsg) {
	if prev := k.preparedProof[sl.Seq]; stage == core.StagePrepare && (prev == nil || prev.View < cm.View) {
		k.preparedProof[sl.Seq] = &core.CarriedSlot{View: cm.View, Seq: sl.Seq, Digest: sl.Digest, Batch: sl.Batch, Cert: cm.Cert}
	}
}

// OnTimer implements core.Protocol.
func (k *Kauri) OnTimer(id core.TimerID) {
	if !k.Slots.OnTimer(id) {
		k.vc.OnTimer(id)
	}
}

// OnExecuted implements core.Protocol.
func (k *Kauri) OnExecuted(seq types.SeqNum, batch *types.Batch, results [][]byte) {
	delete(k.preparedProof, seq)
	k.Slots.Executed(seq, batch, results)
	k.maybePropose()
}
