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
// exchange history digests (as in our Zyzzyva implementation).
package poe

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

// Options tunes a PoE replica.
type Options struct {
	// SilentLeader drops client requests (attack injection).
	SilentLeader bool
}

// slotExt is what a PoE slot keeps beside the kit's state.
type slotExt struct {
	cert     *crypto.Certificate // the 2f+1 share certificate, once known
	executed bool                // speculatively executed
}

// PoE is the protocol state machine for one replica.
type PoE struct {
	env  core.Env
	opts Options

	// backlog is the request intake and τ2 timer; vc the view-change
	// stage, which owns the current view; Slots the ordering stage's
	// per-sequence state (all from the core kit).
	backlog *core.Backlog
	vc      *core.ViewChange
	Slots   *core.Slots[slotExt]

	// ready buffers certified slots awaiting contiguous speculative
	// execution.
	ready map[types.SeqNum]*core.CertMsg

	// cpVotes tallies history digests per checkpoint window.
	cpVotes core.Tally[types.SeqNum, types.Digest]
}

// New returns a PoE replica.
func New(cfg core.Config) core.Protocol { return NewWithOptions(cfg, Options{}) }

// NewWithOptions returns a replica with explicit options.
func NewWithOptions(_ core.Config, opts Options) core.Protocol { return &PoE{opts: opts} }

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
	p.ready = make(map[types.SeqNum]*core.CertMsg)
	p.backlog = core.NewBacklog(env, timerProgress)
	p.vc = core.NewViewChange(env, p.backlog, timerVCRetry, env.Config().Quorum(), p.viewChangeHooks())
	// PoE's one voting stage: signed shares to the collector.
	p.Slots = core.NewSlots[slotExt](env, core.PoEProfile(), p.backlog, p.vc, nil, core.StageShare)
}

// View returns the current view.
func (p *PoE) View() types.View { return p.vc.View() }

// OnRequest implements core.Protocol.
func (p *PoE) OnRequest(req *types.Request) {
	if p.backlog.Submit(req, p.vc.Leader()) && !p.opts.SilentLeader {
		p.maybePropose()
	}
}

func (p *PoE) maybePropose() {
	p.Slots.Propose(func(m *core.ProposeMsg) {
		p.env.Broadcast(m)
		p.acceptPropose(m)
	})
}

func (p *PoE) acceptPropose(m *core.ProposeMsg) {
	if p.Slots.Accept(m) == nil {
		return
	}
	share := core.NewVote(p.env, core.StageShare, m.View, m.Seq, m.Digest)
	if p.vc.Leading() {
		p.onShare(p.env.ID(), share)
	} else {
		p.env.Send(p.vc.Leader(), share)
	}
}

// OnMessage implements core.Protocol.
func (p *PoE) OnMessage(from types.NodeID, m types.Message) {
	if p.vc.OnMessage(from, m) {
		return
	}
	switch mm := m.(type) {
	case *core.ForwardMsg:
		p.OnRequest(mm.Req)
	case *core.ProposeMsg:
		if mm.Verify(p.env) {
			p.acceptPropose(mm)
		}
	case *core.VoteMsg:
		if mm.Verify(p.env, from) {
			p.onShare(from, mm)
		}
	case *core.CertMsg:
		if mm.Verify(p.env) {
			p.onCertify(mm)
		}
	case *core.CheckpointMsg:
		if mm.Replica == from && p.env.Verifier().VerifySig(from, mm.Digest(), mm.Sig) {
			p.recordCheckpoint(from, mm)
		}
	}
}

func (p *PoE) onShare(from types.NodeID, m *core.VoteMsg) {
	if !p.vc.Leading() {
		return
	}
	sl := p.Slots.Vote(m.Stage, m.View, m.Seq, from, m.Digest, m.Sig)
	if sl == nil || !sl.Reached(core.StageShare, p.Slots.Quorum) {
		return
	}
	cm := sl.Certify(core.StageShare, core.StageShare)
	p.env.Broadcast(cm)
	p.onCertify(cm)
}

// onCertify speculatively executes certified slots in sequence order.
func (p *PoE) onCertify(m *core.CertMsg) {
	if m.View != p.View() || p.vc.Active() || m.Stage != core.StageShare ||
		!core.VerifyCert(p.env, m.Cert, p.Slots.Quorum, core.StageShare, m.View, m.Seq, m.Digest) {
		return
	}
	sl := p.Slots.Get(m.Seq)
	if sl == nil || sl.Batch == nil {
		if m.Seq > p.env.Ledger().LastExecuted() {
			p.ready[m.Seq] = m // batch not here yet
		}
		return
	}
	if sl.Digest != m.Digest || sl.X.executed {
		return
	}
	sl.X.cert = m.Cert
	p.ready[m.Seq] = m
	p.drainReady()
}

func (p *PoE) drainReady() {
	for {
		next := p.specTip() + 1
		m, ok := p.ready[next]
		if !ok {
			return
		}
		sl := p.Slots.Get(next)
		if sl == nil || sl.Batch == nil || sl.Digest != m.Digest {
			return
		}
		delete(p.ready, next)
		results := p.env.SpecExecute(next, sl.Batch)
		if results == nil {
			continue
		}
		sl.X.executed = true
		for i, req := range sl.Batch.Requests {
			p.env.Reply(&types.Reply{
				Client:      req.Client,
				ClientSeq:   req.ClientSeq,
				View:        m.View,
				Seq:         next,
				Result:      results[i],
				Speculative: true,
				History:     p.env.HistoryDigest(),
			})
		}
		p.backlog.Progress()
		iv := p.env.Config().CheckpointInterval
		if iv > 0 && uint64(next)%iv == 0 {
			cp := &core.CheckpointMsg{Seq: next, StateHash: p.env.HistoryDigest(), Replica: p.env.ID()}
			cp.Sig = p.env.Signer().Sign(cp.Digest())
			p.env.Broadcast(cp)
			p.recordCheckpoint(p.env.ID(), cp)
		}
	}
}

func (p *PoE) specTip() types.SeqNum {
	tip := p.env.Ledger().LastExecuted()
	for sl := range p.Slots.All() {
		if sl.X.executed && sl.Seq > tip {
			tip = sl.Seq
		}
	}
	return tip
}

func (p *PoE) recordCheckpoint(from types.NodeID, m *core.CheckpointMsg) {
	p.cpVotes.Add(m.Seq, from, m.StateHash)
	// Only a quorum on our own history commits anything here, so that is
	// the one value worth counting — on every vote, since our speculative
	// tip may reach m.Seq after the quorum formed.
	if p.specTip() < m.Seq {
		return
	}
	voters := core.Backers(&p.cpVotes, m.Seq, p.env.HistoryDigest())
	if len(voters) < p.Slots.Quorum {
		return
	}
	// Durably commit the prefix.
	for s := p.env.Ledger().LastExecuted() + 1; s <= m.Seq; s++ {
		sl := p.Slots.Get(s)
		if sl == nil || !sl.X.executed {
			break
		}
		proof := &types.CommitProof{View: p.View(), Seq: s, Digest: sl.Digest,
			Voters: append([]types.NodeID(nil), voters...)}
		p.env.Commit(p.View(), s, sl.Batch, proof)
	}
	p.cpVotes.Delete(m.Seq)
}

// OnTimer implements core.Protocol.
func (p *PoE) OnTimer(id core.TimerID) {
	p.vc.OnTimer(id)
}

// OnExecuted implements core.Protocol (commit-path execution).
func (p *PoE) OnExecuted(seq types.SeqNum, batch *types.Batch, results [][]byte) {
	delete(p.ready, seq)
	p.Slots.Executed(seq, batch, results, true)
	p.maybePropose()
}
