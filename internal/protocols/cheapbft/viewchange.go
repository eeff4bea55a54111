package cheapbft

import (
	"bftkit/internal/core"
	"bftkit/internal/types"
)

// View change doubles as CheapBFT's fallback switch: rotating the view
// rotates the active set, benching a faulty active replica. View-change
// messages carry both retained committed slots (with their proofs, so
// replicas that were passive catch up) and voted-but-uncommitted slots
// (picked by plurality, which preserves any slot a client accepted: a
// committed slot has all 2f+1 active voters, at least f+1 of them honest
// and present in any 2f+1 view-change quorum). The frame is
// core.ViewChange; this file holds what a CheapBFT view-change carries and
// how the rotated configuration is chosen and installed.

func (c *CheapBFT) buildViewChange(v types.View) *ViewChangeMsg {
	vc := &ViewChangeMsg{
		NewView: v,
		Base:    c.env.Ledger().LastExecuted(),
		Replica: c.env.ID(),
	}
	core.RetainedCommitted(c.env, func(view types.View, seq types.SeqNum, b *types.Batch, voters []types.NodeID) {
		vc.Committed = append(vc.Committed, CommittedSlot{View: view, Seq: seq, Batch: b, Voters: voters})
	})
	for _, sl := range c.Slots.Assigned() {
		if sl.Seq > vc.Base && !sl.Past(stageVote) {
			vc.Prepared = append(vc.Prepared, PreparedSlot{
				View: c.View(), Seq: sl.Seq, Digest: sl.Digest, Batch: sl.Batch,
			})
		}
	}
	vc.Sig = c.env.Signer().Sign(vc.SigDigest())
	return vc
}

func (c *CheapBFT) sendNewView(v types.View, vcs []*ViewChangeMsg) {
	var base, maxS types.SeqNum
	committed := make(map[types.SeqNum]*CommittedSlot)
	var prepared core.SlotClaims
	for _, vc := range vcs {
		if vc.Base > base {
			base = vc.Base
		}
		for i := range vc.Committed {
			s := &vc.Committed[i]
			if cur := committed[s.Seq]; cur == nil {
				committed[s.Seq] = s
			}
			if s.Seq > maxS {
				maxS = s.Seq
			}
		}
		for _, s := range vc.Prepared {
			prepared.Add(vc.Replica, s.Seq, s.Digest, s.Batch)
		}
	}
	if prepared.Max > maxS {
		maxS = prepared.Max
	}
	nv := &NewViewMsg{View: v, Base: base, ViewChanges: vcs}
	for seq := types.SeqNum(1); seq <= maxS; seq++ {
		if s := committed[seq]; s != nil {
			nv.Committed = append(nv.Committed, *s)
			continue
		}
		if seq <= base {
			continue
		}
		batch := prepared.Best(seq)
		pm := &ProposeMsg{View: v, Seq: seq, Digest: batch.Digest(), Batch: batch}
		pm.Sig = c.env.Signer().Sign(pm.SigDigest())
		nv.Proposals = append(nv.Proposals, pm)
	}
	nv.Sig = c.env.Signer().Sign(nv.SigDigest())
	c.env.Broadcast(nv)
	c.installNewView(nv)
}

func (c *CheapBFT) onNewView(from types.NodeID, m *NewViewMsg) {
	if c.vc.Justified(from, m.View, m.SigDigest(), m.Sig, m.ViewChanges) {
		c.installNewView(m)
	}
}

func (c *CheapBFT) installNewView(m *NewViewMsg) {
	c.vc.Install(m.View, func() { c.adoptNewView(m) })
	c.maybePropose()
}

// adoptNewView takes over what the new-view message carries; the kit
// holds proposing until it returns.
func (c *CheapBFT) adoptNewView(m *NewViewMsg) {
	c.Slots.Advance(m.Base)
	for i := range m.Committed {
		s := &m.Committed[i]
		core.AdoptCommitted(c.env, s.View, s.Seq, s.Batch, s.Voters)
		c.Slots.Advance(s.Seq)
	}
	for _, pm := range m.Proposals {
		c.Slots.Advance(pm.Seq)
		if pm.Seq > c.env.Ledger().LastExecuted() {
			c.acceptPropose(pm)
		}
	}
}
