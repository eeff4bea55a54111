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

// ProposeMsg is the leader's assignment (phase 1, linear).
type ProposeMsg struct {
	View   types.View
	Seq    types.SeqNum
	Digest types.Digest
	Batch  *types.Batch
	Sig    []byte
}

// Kind implements types.Message.
func (*ProposeMsg) Kind() string { return "POE-PROPOSE" }

// Slot implements obsv.Slotted.
func (m *ProposeMsg) Slot() (types.View, types.SeqNum) { return m.View, m.Seq }

// SigDigest is the signed content.
func (m *ProposeMsg) SigDigest() types.Digest {
	var h types.Hasher
	h.Str("poe-propose").U64(uint64(m.View)).U64(uint64(m.Seq)).Digest(m.Digest)
	return h.Sum()
}

// SigClaims implements crypto.SigClaimer: the leader's signature, which
// receivers verify against the sender.
func (m *ProposeMsg) SigClaims(from types.NodeID) []crypto.SigClaim {
	return []crypto.SigClaim{{Signer: from, Digest: m.SigDigest(), Sig: m.Sig}}
}

func shareDigest(v types.View, seq types.SeqNum, d types.Digest) types.Digest {
	var h types.Hasher
	h.Str("poe-share").U64(uint64(v)).U64(uint64(seq)).Digest(d)
	return h.Sum()
}

// ShareMsg is a replica's signed accept, sent to the collector.
type ShareMsg struct {
	View    types.View
	Seq     types.SeqNum
	Digest  types.Digest
	Replica types.NodeID
	Sig     []byte
}

// Kind implements types.Message.
func (*ShareMsg) Kind() string { return "POE-SHARE" }

// Slot implements obsv.Slotted.
func (m *ShareMsg) Slot() (types.View, types.SeqNum) { return m.View, m.Seq }

// SigClaims implements crypto.SigClaimer: the share signature, which
// the collector verifies against the sender.
func (m *ShareMsg) SigClaims(from types.NodeID) []crypto.SigClaim {
	return []crypto.SigClaim{{Signer: from, Digest: shareDigest(m.View, m.Seq, m.Digest), Sig: m.Sig}}
}

// CertifyMsg broadcasts the 2f+1 certificate; replicas execute
// speculatively on receipt (phase 3, linear).
type CertifyMsg struct {
	View   types.View
	Seq    types.SeqNum
	Digest types.Digest
	Cert   *crypto.Certificate
	Sig    []byte
}

// Kind implements types.Message.
func (*CertifyMsg) Kind() string { return "POE-CERTIFY" }

// Slot implements obsv.Slotted.
func (m *CertifyMsg) Slot() (types.View, types.SeqNum) { return m.View, m.Seq }

// EncodedSize implements sim.Sizer (threshold certificates stay constant).
func (m *CertifyMsg) EncodedSize() int {
	size := 64 + crypto.SigSize
	if m.Cert != nil {
		size += m.Cert.EncodedSize()
	}
	return size
}

// SigDigest is the signed content.
func (m *CertifyMsg) SigDigest() types.Digest {
	var h types.Hasher
	h.Str("poe-certify").U64(uint64(m.View)).U64(uint64(m.Seq)).Digest(m.Digest)
	return h.Sum()
}

// SigClaims implements crypto.SigClaimer: the collector's signature,
// which receivers verify against the sender.
func (m *CertifyMsg) SigClaims(from types.NodeID) []crypto.SigClaim {
	return []crypto.SigClaim{{Signer: from, Digest: m.SigDigest(), Sig: m.Sig}}
}

// CheckpointMsg exchanges history digests for lazy durable commitment.
type CheckpointMsg struct {
	Seq     types.SeqNum
	History types.Digest
	Replica types.NodeID
	Sig     []byte
}

// Kind implements types.Message.
func (*CheckpointMsg) Kind() string { return "POE-CHECKPOINT" }

// SigDigest is the signed content.
func (m *CheckpointMsg) SigDigest() types.Digest {
	var h types.Hasher
	h.Str("poe-cp").U64(uint64(m.Seq)).Digest(m.History).U64(uint64(m.Replica))
	return h.Sum()
}

// Options tunes a PoE replica.
type Options struct {
	// SilentLeader drops client requests (attack injection).
	SilentLeader bool
}

// stageShare is PoE's one voting stage: signed shares to the collector.
const stageShare = "share"

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
	ready map[types.SeqNum]*CertifyMsg

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
	p.ready = make(map[types.SeqNum]*CertifyMsg)
	p.backlog = core.NewBacklog(env, timerProgress)
	p.vc = core.NewViewChange(env, p.backlog, timerVCRetry, env.Config().Quorum(), p.viewChangeHooks())
	p.Slots = core.NewSlots[slotExt](env, core.PoEProfile(), p.backlog, p.vc, nil, stageShare)
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
	p.Slots.Propose(func(seq types.SeqNum, batch *types.Batch) {
		pm := &ProposeMsg{View: p.View(), Seq: seq, Digest: batch.Digest(), Batch: batch}
		pm.Sig = p.env.Signer().Sign(pm.SigDigest())
		p.env.Broadcast(pm)
		p.acceptPropose(pm)
	})
}

func (p *PoE) acceptPropose(m *ProposeMsg) {
	if p.Slots.Accept(m.View, m.Seq, m.Digest, m.Batch) == nil {
		return
	}
	sd := shareDigest(m.View, m.Seq, m.Digest)
	share := &ShareMsg{View: m.View, Seq: m.Seq, Digest: m.Digest,
		Replica: p.env.ID(), Sig: p.env.Signer().Sign(sd)}
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
	case *ProposeMsg:
		if from != p.env.Config().LeaderOf(mm.View) {
			return
		}
		if !p.env.Verifier().VerifySig(from, mm.SigDigest(), mm.Sig) {
			return
		}
		p.acceptPropose(mm)
	case *ShareMsg:
		if mm.Replica != from {
			return
		}
		if !p.env.Verifier().VerifySig(from, shareDigest(mm.View, mm.Seq, mm.Digest), mm.Sig) {
			return
		}
		p.onShare(from, mm)
	case *CertifyMsg:
		if from != p.env.Config().LeaderOf(mm.View) {
			return
		}
		if !p.env.Verifier().VerifySig(from, mm.SigDigest(), mm.Sig) {
			return
		}
		p.onCertify(mm)
	case *CheckpointMsg:
		if mm.Replica != from {
			return
		}
		if !p.env.Verifier().VerifySig(from, mm.SigDigest(), mm.Sig) {
			return
		}
		p.recordCheckpoint(from, mm)
	}
}

func (p *PoE) onShare(from types.NodeID, m *ShareMsg) {
	if !p.vc.Leading() {
		return
	}
	sl := p.Slots.Vote(stageShare, m.View, m.Seq, from, m.Digest, m.Sig)
	if sl == nil || !sl.Reached(stageShare, p.Slots.Quorum) {
		return
	}
	cert := sl.Certificate(stageShare, shareDigest(m.View, m.Seq, sl.Digest))
	cert.Threshold = p.env.Scheme() == crypto.SchemeThreshold
	cm := &CertifyMsg{View: m.View, Seq: m.Seq, Digest: sl.Digest, Cert: cert}
	cm.Sig = p.env.Signer().Sign(cm.SigDigest())
	p.env.Broadcast(cm)
	p.onCertify(cm)
}

// onCertify speculatively executes certified slots in sequence order.
func (p *PoE) onCertify(m *CertifyMsg) {
	if m.View != p.View() || p.vc.Active() {
		return
	}
	want := shareDigest(m.View, m.Seq, m.Digest)
	if m.Cert == nil || m.Cert.Digest != want ||
		m.Cert.Verify(p.env.Verifier(), p.Slots.Quorum) != nil {
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
			cp := &CheckpointMsg{Seq: next, History: p.env.HistoryDigest(), Replica: p.env.ID()}
			cp.Sig = p.env.Signer().Sign(cp.SigDigest())
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

func (p *PoE) recordCheckpoint(from types.NodeID, m *CheckpointMsg) {
	p.cpVotes.Add(m.Seq, from, m.History)
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
