// Package poe implements a Proof-of-Execution-style protocol [103],
// design choice 7 (speculative phase reduction): a linear protocol in
// which the leader collects signed shares from only 2f+1 replicas, then
// broadcasts the resulting certificate; replicas execute *speculatively*
// upon the certificate and answer clients, who accept on 2f+1 matching
// speculative replies. Compared with SBFT's fast path (DC6, all 3f+1
// shares), PoE stays responsive — it never waits for the slowest f
// replicas — but buys that with possible rollback: if a view change
// reveals that the certificate's quorum was partly Byzantine and a
// different order survives, speculatively executed slots are undone
// through the runtime's undo log.
//
// Durable commitment happens lazily at checkpoint windows, where replicas
// exchange history digests (core.Slots' speculative tail, as Zyzzyva).
package poe

import (
	"bftkit/internal/core"
	"bftkit/internal/types"
)

// Timer names.
const (
	timerProgress = "progress"
)

// PoE is the protocol state machine for one replica.
type PoE struct {
	env core.Env

	// backlog is the request intake and τ2 timer; vc the view-change
	// stage, which owns the current view; Slots the ordering stage's
	// per-sequence state and its speculative tail (all from the core kit).
	backlog *core.Backlog
	vc      *core.ViewChange
	Slots   *core.Slots[struct{}]
}

// New returns a PoE replica.
func New(core.Config) core.Protocol { return &PoE{} }

func init() {
	core.Register(core.Registration{
		Name:       "poe",
		Profile:    core.PoEProfile(),
		NewReplica: New,
	})
}

// Init implements core.Protocol.
func (p *PoE) Init(env core.Env) {
	p.env = env
	p.backlog = core.NewBacklog(env, timerProgress)
	p.vc = core.NewViewChange(env, p.backlog, env.Config().Quorum(), p.viewChangeHooks())
	// PoE's one voting stage: signed shares to the collector, whose 2f+1
	// certificate every replica executes speculatively.
	profile := core.PoEProfile()
	p.Slots = core.NewSlots[struct{}](env, profile, p.backlog, p.vc, nil,
		core.StageSpec{Stage: core.StageShare, Voters: core.VotersAll, Collect: true, Quorum: profile.Quorum})
}

// View returns the current view.
func (p *PoE) View() types.View { return p.vc.View() }

// OnRequest implements core.Protocol.
func (p *PoE) OnRequest(req *types.Request) {
	if p.backlog.Submit(req, p.vc.Leader()) {
		p.maybePropose()
	}
}

func (p *PoE) maybePropose() { p.Slots.Propose() }

// OnMessage implements core.Protocol.
func (p *PoE) OnMessage(from types.NodeID, m types.Message) {
	if p.vc.OnMessage(from, m) || p.Slots.OnMessage(from, m) {
		return
	}
	if mm, ok := m.(*core.ForwardMsg); ok {
		p.OnRequest(mm.Req)
	}
}

// OnTimer implements core.Protocol.
func (p *PoE) OnTimer(id core.TimerID) {
	p.vc.OnTimer(id)
}

// OnExecuted implements core.Protocol (commit-path execution).
func (p *PoE) OnExecuted(seq types.SeqNum, batch *types.Batch, results [][]byte) {
	p.Slots.Executed(seq, batch, results)
	p.maybePropose()
}
