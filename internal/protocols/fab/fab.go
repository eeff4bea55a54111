// Package fab implements a FaB-Paxos-style protocol [140], design choice
// 2 (phase reduction through redundancy): with 5f+1 replicas, consensus
// commits in two ordering phases — the leader's proposal plus a single
// all-to-all accept round with a 4f+1 quorum — instead of PBFT's three.
// The paper's §2.3 notes the matching 5f−1 lower bound for two-step
// Byzantine consensus [7, 123]; Profile.Validate enforces it.
package fab

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

// ProposeMsg is the leader's proposal (phase 1, linear).
type ProposeMsg struct {
	View   types.View
	Seq    types.SeqNum
	Digest types.Digest
	Batch  *types.Batch
	Sig    []byte
}

// Kind implements types.Message.
func (*ProposeMsg) Kind() string { return "FAB-PROPOSE" }

// Slot implements obsv.Slotted.
func (m *ProposeMsg) Slot() (types.View, types.SeqNum) { return m.View, m.Seq }

// SigDigest is the signed content.
func (m *ProposeMsg) SigDigest() types.Digest {
	var h types.Hasher
	h.Str("fab-propose").U64(uint64(m.View)).U64(uint64(m.Seq)).Digest(m.Digest)
	return h.Sum()
}

// SigClaims implements crypto.SigClaimer: the leader's signature, which
// receivers verify against the sender.
func (m *ProposeMsg) SigClaims(from types.NodeID) []crypto.SigClaim {
	return []crypto.SigClaim{{Signer: from, Digest: m.SigDigest(), Sig: m.Sig}}
}

// AcceptMsg is a replica's accept, broadcast to everyone (phase 2,
// quadratic — the phase FaB pays replicas to keep).
type AcceptMsg struct {
	View    types.View
	Seq     types.SeqNum
	Digest  types.Digest
	Replica types.NodeID
	Sig     []byte
}

// Kind implements types.Message.
func (*AcceptMsg) Kind() string { return "FAB-ACCEPT" }

// Slot implements obsv.Slotted.
func (m *AcceptMsg) Slot() (types.View, types.SeqNum) { return m.View, m.Seq }

// SigDigest is the signed content.
func (m *AcceptMsg) SigDigest() types.Digest {
	var h types.Hasher
	h.Str("fab-accept").U64(uint64(m.View)).U64(uint64(m.Seq)).Digest(m.Digest).U64(uint64(m.Replica))
	return h.Sum()
}

// SigClaims implements crypto.SigClaimer: the accepter's signature, which
// receivers verify against the sender.
func (m *AcceptMsg) SigClaims(from types.NodeID) []crypto.SigClaim {
	return []crypto.SigClaim{{Signer: from, Digest: m.SigDigest(), Sig: m.Sig}}
}

// stageAccept is FaB's one voting stage: the all-to-all accept round.
const stageAccept = "accept"

// FaB is the protocol state machine for one replica.
type FaB struct {
	env core.Env
	cm  *core.CheckpointManager

	// backlog is the request intake and τ2 timer; vc the view-change
	// stage, which owns the current view; Slots the ordering stage's
	// per-sequence state, with the profile's 4f+1 quorum — the price of
	// losing a phase (all from the core kit).
	backlog *core.Backlog
	vc      *core.ViewChange
	Slots   *core.Slots[struct{}]
}

// New returns a FaB replica.
func New(cfg core.Config) core.Protocol { return &FaB{} }

func init() {
	core.Register(core.Registration{
		Name:       "fab",
		Profile:    core.FaBProfile(),
		NewReplica: New,
	})
}

// Init implements core.Protocol.
func (f *FaB) Init(env core.Env) {
	f.env = env
	f.cm = core.NewCheckpointManager(env)
	f.backlog = core.NewBacklog(env, timerProgress)
	// FaB's view-change quorum is n−f messages.
	f.vc = core.NewViewChange(env, f.backlog, timerVCRetry, env.N()-env.F(), f.viewChangeHooks())
	f.Slots = core.NewSlots[struct{}](env, core.FaBProfile(), f.backlog, f.vc, f.cm, stageAccept)
}

// View returns the current view.
func (f *FaB) View() types.View { return f.vc.View() }

// OnRequest implements core.Protocol.
func (f *FaB) OnRequest(req *types.Request) {
	if f.backlog.Submit(req, f.vc.Leader()) {
		f.maybePropose()
	}
}

func (f *FaB) maybePropose() {
	f.Slots.Propose(func(seq types.SeqNum, batch *types.Batch) {
		pm := &ProposeMsg{View: f.View(), Seq: seq, Digest: batch.Digest(), Batch: batch}
		pm.Sig = f.env.Signer().Sign(pm.SigDigest())
		f.env.Broadcast(pm)
		f.acceptPropose(pm)
	})
}

func (f *FaB) acceptPropose(m *ProposeMsg) {
	sl := f.Slots.Accept(m.View, m.Seq, m.Digest, m.Batch)
	if sl == nil {
		return
	}
	am := &AcceptMsg{View: m.View, Seq: m.Seq, Digest: m.Digest, Replica: f.env.ID()}
	am.Sig = f.env.Signer().Sign(am.SigDigest())
	f.env.Broadcast(am)
	f.Slots.Vote(stageAccept, m.View, m.Seq, f.env.ID(), m.Digest, nil)
	f.checkCommit(sl)
}

// OnMessage implements core.Protocol.
func (f *FaB) OnMessage(from types.NodeID, m types.Message) {
	if f.cm.OnMessage(from, m) || f.vc.OnMessage(from, m) {
		return
	}
	switch mm := m.(type) {
	case *core.ForwardMsg:
		f.OnRequest(mm.Req)
	case *ProposeMsg:
		if from != f.env.Config().LeaderOf(mm.View) {
			return
		}
		if !f.env.Verifier().VerifySig(from, mm.SigDigest(), mm.Sig) {
			return
		}
		f.acceptPropose(mm)
	case *AcceptMsg:
		if mm.Replica != from || mm.View != f.View() || f.vc.Active() {
			return
		}
		if !f.env.Verifier().VerifySig(from, mm.SigDigest(), mm.Sig) {
			return
		}
		if sl := f.Slots.Vote(stageAccept, mm.View, mm.Seq, from, mm.Digest, nil); sl != nil {
			f.checkCommit(sl)
		}
	}
}

// checkCommit fires on 4f+1 matching accepts: two phases total.
func (f *FaB) checkCommit(sl *core.Slot[struct{}]) {
	if !sl.Reached(stageAccept, f.Slots.Quorum) {
		return
	}
	proof := &types.CommitProof{View: f.View(), Seq: sl.Seq, Digest: sl.Digest, Voters: sl.Voters(stageAccept)}
	f.env.Commit(f.View(), sl.Seq, sl.Batch, proof)
}

// OnTimer implements core.Protocol.
func (f *FaB) OnTimer(id core.TimerID) {
	f.vc.OnTimer(id)
}

// OnExecuted implements core.Protocol.
func (f *FaB) OnExecuted(seq types.SeqNum, batch *types.Batch, results [][]byte) {
	f.Slots.Executed(seq, batch, results, true)
	f.maybePropose()
}
