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
	timerVCRetry  = "vc-retry"
)

// ProposeMsg is the leader's assignment to the active set.
type ProposeMsg struct {
	View   types.View
	Seq    types.SeqNum
	Digest types.Digest
	Batch  *types.Batch
	Sig    []byte
}

// Kind implements types.Message.
func (*ProposeMsg) Kind() string { return "CHEAP-PROPOSE" }

// Slot implements obsv.Slotted.
func (m *ProposeMsg) Slot() (types.View, types.SeqNum) { return m.View, m.Seq }

// SigDigest is the signed content.
func (m *ProposeMsg) SigDigest() types.Digest {
	var h types.Hasher
	h.Str("cheap-propose").U64(uint64(m.View)).U64(uint64(m.Seq)).Digest(m.Digest)
	return h.Sum()
}

// SigClaims implements crypto.SigClaimer: the leader's signature, which
// receivers verify against the sender.
func (m *ProposeMsg) SigClaims(from types.NodeID) []crypto.SigClaim {
	return []crypto.SigClaim{{Signer: from, Digest: m.SigDigest(), Sig: m.Sig}}
}

// VoteMsg is an active replica's accept, broadcast within the active set.
type VoteMsg struct {
	View    types.View
	Seq     types.SeqNum
	Digest  types.Digest
	Replica types.NodeID
	Sig     []byte
}

// Kind implements types.Message.
func (*VoteMsg) Kind() string { return "CHEAP-VOTE" }

// Slot implements obsv.Slotted.
func (m *VoteMsg) Slot() (types.View, types.SeqNum) { return m.View, m.Seq }

// SigDigest is the signed content.
func (m *VoteMsg) SigDigest() types.Digest {
	var h types.Hasher
	h.Str("cheap-vote").U64(uint64(m.View)).U64(uint64(m.Seq)).Digest(m.Digest).U64(uint64(m.Replica))
	return h.Sum()
}

// SigClaims implements crypto.SigClaimer: the voter's signature, which
// receivers verify against the sender.
func (m *VoteMsg) SigClaims(from types.NodeID) []crypto.SigClaim {
	return []crypto.SigClaim{{Signer: from, Digest: m.SigDigest(), Sig: m.Sig}}
}

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

// stageVote is CheapBFT's one voting stage, among the active replicas.
const stageVote = "vote"

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
	c.vc = core.NewViewChange(env, c.backlog, timerVCRetry, env.Config().Quorum(), c.viewChangeHooks())
	c.Slots = core.NewSlots[struct{}](env, core.CheapBFTProfile(), c.backlog, c.vc, c.cm, stageVote)
}

// View returns the current view.
func (c *CheapBFT) View() types.View { return c.vc.View() }

// ActiveSet returns the 2f+1 active replicas of a view: the leader and
// the next 2f replicas in ring order (rotating the view rotates the set,
// which is how a faulty active replica eventually gets benched).
func (c *CheapBFT) ActiveSet(v types.View) []types.NodeID {
	n := c.env.N()
	k := 2*c.env.F() + 1
	out := make([]types.NodeID, 0, k)
	lead := uint64(v) % uint64(n)
	for i := 0; i < k; i++ {
		out = append(out, types.NodeID((lead+uint64(i))%uint64(n)))
	}
	return out
}

// IsActive reports whether id is active in view v.
func (c *CheapBFT) IsActive(v types.View, id types.NodeID) bool {
	for _, a := range c.ActiveSet(v) {
		if a == id {
			return true
		}
	}
	return false
}

func (c *CheapBFT) broadcastActive(v types.View, m types.Message) {
	for _, id := range c.ActiveSet(v) {
		if id != c.env.ID() {
			c.env.Send(id, m)
		}
	}
}

// OnRequest implements core.Protocol.
func (c *CheapBFT) OnRequest(req *types.Request) {
	if c.backlog.Submit(req, c.vc.Leader()) {
		c.maybePropose()
	}
}

func (c *CheapBFT) maybePropose() {
	c.Slots.Propose(func(seq types.SeqNum, batch *types.Batch) {
		pm := &ProposeMsg{View: c.View(), Seq: seq, Digest: batch.Digest(), Batch: batch}
		pm.Sig = c.env.Signer().Sign(pm.SigDigest())
		c.broadcastActive(c.View(), pm)
		c.acceptPropose(pm)
	})
}

func (c *CheapBFT) acceptPropose(m *ProposeMsg) {
	if !c.IsActive(m.View, c.env.ID()) {
		return
	}
	sl := c.Slots.Accept(m.View, m.Seq, m.Digest, m.Batch)
	if sl == nil {
		return
	}
	if !c.opts.SilentActive {
		vm := &VoteMsg{View: m.View, Seq: m.Seq, Digest: m.Digest, Replica: c.env.ID()}
		vm.Sig = c.env.Signer().Sign(vm.SigDigest())
		c.broadcastActive(c.View(), vm)
		c.Slots.Vote(stageVote, m.View, m.Seq, c.env.ID(), m.Digest, vm.Sig)
	}
	c.checkCommit(sl)
}

// OnMessage implements core.Protocol.
func (c *CheapBFT) OnMessage(from types.NodeID, m types.Message) {
	if c.cm.OnMessage(from, m) || c.vc.OnMessage(from, m) {
		return
	}
	switch mm := m.(type) {
	case *core.ForwardMsg:
		c.OnRequest(mm.Req)
	case *ProposeMsg:
		if from != c.env.Config().LeaderOf(mm.View) {
			return
		}
		if !c.env.Verifier().VerifySig(from, mm.SigDigest(), mm.Sig) {
			return
		}
		c.acceptPropose(mm)
	case *VoteMsg:
		if mm.Replica != from || mm.View != c.View() || c.vc.Active() {
			return
		}
		if !c.IsActive(mm.View, from) || !c.IsActive(mm.View, c.env.ID()) {
			return
		}
		if !c.env.Verifier().VerifySig(from, mm.SigDigest(), mm.Sig) {
			return
		}
		if sl := c.Slots.Vote(stageVote, mm.View, mm.Seq, from, mm.Digest, mm.Sig); sl != nil {
			c.checkCommit(sl)
		}
	case *UpdateMsg:
		c.onUpdate(from, mm)
	}
}

// checkCommit fires when ALL 2f+1 active replicas voted — the whole
// point of DC5: the quorum is the entire active set.
func (c *CheapBFT) checkCommit(sl *core.Slot[struct{}]) {
	if !sl.Reached(stageVote, c.Slots.Quorum) {
		return
	}
	proof := &types.CommitProof{View: c.View(), Seq: sl.Seq, Digest: sl.Digest, Voters: sl.Voters(stageVote)}
	c.env.Commit(c.View(), sl.Seq, sl.Batch, proof)
	// The leader informs the passive replicas.
	if c.vc.Leading() {
		up := &UpdateMsg{View: c.View(), Seq: sl.Seq, Batch: sl.Batch, Voters: proof.Voters}
		up.Sig = c.env.Signer().Sign(up.SigDigest())
		for _, id := range c.env.Replicas() {
			if !c.IsActive(c.View(), id) {
				c.env.Send(id, up)
			}
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
	// Only active replicas answer clients in CheapBFT.
	c.Slots.Executed(seq, batch, results, c.IsActive(c.View(), c.env.ID()))
	c.maybePropose()
}
