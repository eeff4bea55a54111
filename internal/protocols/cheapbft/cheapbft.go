// Package cheapbft implements a CheapBFT-style protocol [112], design
// choice 5 (optimistic replica reduction): only 2f+1 *active* replicas
// run agreement, optimistically assuming none of them is faulty
// (assumption a2); the remaining f replicas stay *passive* and merely
// receive state updates for committed batches. Because the quorum is all
// 2f+1 active replicas, a single silent active replica stalls the fast
// protocol; the fallback is a view change that rotates the active set
// (the composite-agreement switch of the original paper, folded into the
// leader-change machinery). n stays 3f+1.
//
// The original CheapBFT needs trusted counters (CASH) to make 2f+1-replica
// agreement safe against equivocation; our substitution (DESIGN.md) keeps
// the full 3f+1 deployment and rotates which 2f+1 replicas are active, so
// safety rests on standard quorum intersection across view changes while
// preserving the measured property the paper cares about: f fewer
// replicas do agreement work in the fault-free case.
package cheapbft

import (
	"bftkit/internal/core"
	"bftkit/internal/crypto"
	"bftkit/internal/types"
)

// Timer names.
const (
	timerProgress = "progress"
)

// UpdateMsg ships a committed batch to the passive replicas.
type UpdateMsg struct {
	View   types.View
	Seq    types.SeqNum
	Batch  *types.Batch
	Voters []types.NodeID
	Sig    []byte
}

// Kind implements types.Message.
func (*UpdateMsg) Kind() string { return "CHEAP-UPDATE" }

// Slot implements obsv.Slotted.
func (m *UpdateMsg) Slot() (types.View, types.SeqNum) { return m.View, m.Seq }

// SigDigest is the signed content.
func (m *UpdateMsg) SigDigest() types.Digest {
	var h types.Hasher
	h.Str("cheap-update").U64(uint64(m.View)).U64(uint64(m.Seq)).Digest(m.Batch.Digest())
	return h.Sum()
}

// SigClaims implements crypto.SigClaimer: the active replica's signature
// on the shipped batch, which passive receivers verify against the sender.
func (m *UpdateMsg) SigClaims(from types.NodeID) []crypto.SigClaim {
	return []crypto.SigClaim{{Signer: from, Digest: m.SigDigest(), Sig: m.Sig}}
}

// Options tunes a CheapBFT replica.
type Options struct {
	// SilentActive withholds votes while active (forces the fallback).
	SilentActive bool
}

// CheapBFT is the protocol state machine for one replica.
type CheapBFT struct {
	env  core.Env
	opts Options
	cm   *core.CheckpointManager

	// backlog is the request intake and τ2 timer; vc the view-change
	// stage, which owns the current view; Slots the ordering stage's
	// per-sequence state (all from the core kit).
	backlog *core.Backlog
	vc      *core.ViewChange
	Slots   *core.Slots[struct{}]
}

// New returns a CheapBFT replica.
func New(cfg core.Config) core.Protocol { return NewWithOptions(cfg, Options{}) }

// NewWithOptions returns a replica with explicit options.
func NewWithOptions(_ core.Config, opts Options) core.Protocol { return &CheapBFT{opts: opts} }

func init() {
	core.Register(core.Registration{
		Name:       "cheapbft",
		Profile:    core.CheapBFTProfile(),
		NewReplica: New,
	})
}

// Init implements core.Protocol.
func (c *CheapBFT) Init(env core.Env) {
	c.env = env
	c.cm = core.NewCheckpointManager(env)
	c.backlog = core.NewBacklog(env, timerProgress)
	c.vc = core.NewViewChange(env, c.backlog, env.Config().Quorum(), c.viewChangeHooks())
	// One voting stage among the 2f+1 active replicas, all of them the
	// quorum — the point of DC5. Rotating the view rotates the set.
	profile := core.CheapBFTProfile()
	c.Slots = core.NewSlots[struct{}](env, profile, c.backlog, c.vc, c.cm,
		core.StageSpec{Stage: core.StageCommit, Voters: core.VotersActive, Quorum: profile.Quorum})
	c.Slots.Withhold = c.opts.SilentActive
	c.Slots.Committed = c.update
}

// View returns the current view.
func (c *CheapBFT) View() types.View { return c.vc.View() }

// OnRequest implements core.Protocol.
func (c *CheapBFT) OnRequest(req *types.Request) {
	if c.backlog.Submit(req, c.vc.Leader()) {
		c.maybePropose()
	}
}

func (c *CheapBFT) maybePropose() { c.Slots.Propose(c.Slots.Issue) }

// OnMessage implements core.Protocol.
func (c *CheapBFT) OnMessage(from types.NodeID, m types.Message) {
	if c.cm.OnMessage(from, m) || c.vc.OnMessage(from, m) || c.Slots.OnMessage(from, m) {
		return
	}
	switch mm := m.(type) {
	case *core.ForwardMsg:
		c.OnRequest(mm.Req)
	case *UpdateMsg:
		c.onUpdate(from, mm)
	}
}

// update is the leader's news of a commit for the passive replicas.
func (c *CheapBFT) update(sl *core.Slot[struct{}], proof *types.CommitProof) {
	if !c.vc.Leading() {
		return
	}
	up := &UpdateMsg{View: c.View(), Seq: sl.Seq, Batch: sl.Batch, Voters: proof.Voters}
	up.Sig = c.env.Signer().Sign(up.SigDigest())
	for _, id := range c.env.Replicas() {
		if !c.Slots.InActiveSet(c.View(), id) {
			c.env.Send(id, up)
		}
	}
}

// onUpdate lets passive replicas apply committed batches.
func (c *CheapBFT) onUpdate(from types.NodeID, m *UpdateMsg) {
	if from != c.env.Config().LeaderOf(m.View) {
		return
	}
	if !c.env.Verifier().VerifySig(from, m.SigDigest(), m.Sig) {
		return
	}
	proof := &types.CommitProof{View: m.View, Seq: m.Seq, Digest: m.Batch.Digest(),
		Voters: append([]types.NodeID(nil), m.Voters...)}
	c.env.Commit(m.View, m.Seq, m.Batch, proof)
}

// OnTimer implements core.Protocol.
func (c *CheapBFT) OnTimer(id core.TimerID) {
	c.vc.OnTimer(id)
}

// OnExecuted implements core.Protocol.
func (c *CheapBFT) OnExecuted(seq types.SeqNum, batch *types.Batch, results [][]byte) {
	c.Slots.Executed(seq, batch, results)
	c.maybePropose()
}
