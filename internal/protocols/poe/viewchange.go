package poe

import (
	"bftkit/internal/core"
	"bftkit/internal/types"
)

// View change: replicas ship certified slots above their durable commit
// point. A slot some client accepted has a 2f+1 certificate held by at
// least f+1 honest replicas, so the new leader (which collects 2f+1
// view-changes) always sees at least one certified copy and re-proposes
// it; speculation that certified under a Byzantine-assisted quorum but
// lost the view change is rolled back — the DC7 trade-off. The frame is
// core.ViewChange; this file holds what a PoE view-change carries, how
// its certificates are checked, and how the new view's order is chosen
// and installed.

func (p *PoE) buildViewChange(v types.View) *ViewChangeMsg {
	vc := &ViewChangeMsg{
		NewView: v,
		Base:    p.env.Ledger().LastExecuted(),
		Replica: p.env.ID(),
	}
	core.RetainedCommitted(p.env, func(view types.View, seq types.SeqNum, b *types.Batch, voters []types.NodeID) {
		vc.Committed = append(vc.Committed, CommittedSlot{View: view, Seq: seq, Batch: b, Voters: voters})
	})
	for _, sl := range p.Slots.Assigned() {
		if sl.Seq > vc.Base && sl.X.cert != nil {
			vc.Slots = append(vc.Slots, CertifiedSlot{
				View: p.View(), Seq: sl.Seq, Digest: sl.Digest, Batch: sl.Batch, Cert: sl.X.cert,
			})
		}
	}
	vc.Sig = p.env.Signer().Sign(vc.SigDigest())
	return vc
}

// validSlot reports whether a carried slot's 2f+1 share certificate
// verifies; the new leader ignores the others. (Received messages are
// never edited: the new-view message relays them, signatures intact.)
func (p *PoE) validSlot(s *CertifiedSlot) bool {
	if s.Batch == nil || s.Batch.Digest() != s.Digest || s.Cert == nil {
		return false
	}
	return s.Cert.Digest == shareDigest(s.View, s.Seq, s.Digest) &&
		s.Cert.Verify(p.env.Verifier(), p.Slots.Quorum) == nil
}

func (p *PoE) sendNewView(v types.View, vcs []*ViewChangeMsg) {
	var base, maxS types.SeqNum
	committed := make(map[types.SeqNum]*CommittedSlot)
	chosen := make(map[types.SeqNum]*CertifiedSlot)
	for _, vc := range vcs {
		if vc.Base > base {
			base = vc.Base
		}
		for i := range vc.Committed {
			s := &vc.Committed[i]
			if committed[s.Seq] == nil {
				committed[s.Seq] = s
			}
		}
		for i := range vc.Slots {
			s := &vc.Slots[i]
			if !p.validSlot(s) {
				continue
			}
			if cur := chosen[s.Seq]; cur == nil || s.View > cur.View {
				chosen[s.Seq] = s
			}
			if s.Seq > maxS {
				maxS = s.Seq
			}
		}
	}
	nv := &NewViewMsg{View: v, Base: base, ViewChanges: vcs}
	for seq := types.SeqNum(1); seq <= base; seq++ {
		if s := committed[seq]; s != nil {
			nv.Committed = append(nv.Committed, *s)
		}
	}
	for seq := base + 1; seq <= maxS; seq++ {
		var batch *types.Batch
		digest := types.ZeroDigest
		if s := chosen[seq]; s != nil {
			batch, digest = s.Batch, s.Digest
		} else {
			batch = types.NewBatch()
		}
		pm := &ProposeMsg{View: v, Seq: seq, Digest: digest, Batch: batch}
		pm.Sig = p.env.Signer().Sign(pm.SigDigest())
		nv.Proposals = append(nv.Proposals, pm)
	}
	nv.Sig = p.env.Signer().Sign(nv.SigDigest())
	p.env.Broadcast(nv)
	p.installNewView(nv)
}

func (p *PoE) onNewView(from types.NodeID, m *NewViewMsg) {
	if p.vc.Justified(from, m.View, m.SigDigest(), m.Sig, m.ViewChanges) {
		p.installNewView(m)
	}
}

func (p *PoE) installNewView(m *NewViewMsg) {
	p.vc.Install(m.View, func() { p.adoptNewView(m) })
	p.maybePropose()
}

// adoptNewView takes over what the new-view message carries; the kit
// holds proposing until it returns.
func (p *PoE) adoptNewView(m *NewViewMsg) {
	// Roll back uncommitted speculation; the decided order replaces it.
	p.env.RollbackSpecAbove(p.env.Ledger().LastExecuted())
	p.ready = make(map[types.SeqNum]*CertifyMsg)
	p.Slots.Rewind()
	p.Slots.Advance(m.Base)
	for i := range m.Committed {
		s := &m.Committed[i]
		core.AdoptCommitted(p.env, s.View, s.Seq, s.Batch, s.Voters)
	}

	for _, pm := range m.Proposals {
		p.Slots.Advance(pm.Seq)
		if pm.Seq > p.env.Ledger().LastExecuted() {
			p.acceptPropose(pm)
		}
	}
}
