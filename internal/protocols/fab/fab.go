// Package fab implements a FaB-Paxos-style protocol [140], design choice
// 2 (phase reduction through redundancy): with 5f+1 replicas, consensus
// commits in two ordering phases — the leader's proposal plus a single
// all-to-all accept round with a 4f+1 quorum — instead of PBFT's three.
// The paper's §2.3 notes the matching 5f−1 lower bound for two-step
// Byzantine consensus [7, 123]; Profile.Validate enforces it.
package fab

import (
	"bftkit/internal/core"
	"bftkit/internal/types"
)

// Timer names.
const (
	timerProgress = "progress"
)

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
	f.vc = core.NewViewChange(env, f.backlog, env.N()-env.F(), f.viewChangeHooks())
	// FaB's one voting stage: the all-to-all accept round.
	profile := core.FaBProfile()
	f.Slots = core.NewSlots[struct{}](env, profile, f.backlog, f.vc, f.cm,
		core.StageSpec{Stage: core.StageAccept, Voters: core.VotersAll, Quorum: profile.Quorum})
}

// View returns the current view.
func (f *FaB) View() types.View { return f.vc.View() }

// OnRequest implements core.Protocol.
func (f *FaB) OnRequest(req *types.Request) {
	if f.backlog.Submit(req, f.vc.Leader()) {
		f.maybePropose()
	}
}

func (f *FaB) maybePropose() { f.Slots.Propose() }

// OnMessage implements core.Protocol.
func (f *FaB) OnMessage(from types.NodeID, m types.Message) {
	if f.cm.OnMessage(from, m) || f.vc.OnMessage(from, m) || f.Slots.OnMessage(from, m) {
		return
	}
	if mm, ok := m.(*core.ForwardMsg); ok {
		f.OnRequest(mm.Req)
	}
}

// OnTimer implements core.Protocol.
func (f *FaB) OnTimer(id core.TimerID) {
	f.vc.OnTimer(id)
}

// OnExecuted implements core.Protocol.
func (f *FaB) OnExecuted(seq types.SeqNum, batch *types.Batch, results [][]byte) {
	f.Slots.Executed(seq, batch, results)
	f.maybePropose()
}
