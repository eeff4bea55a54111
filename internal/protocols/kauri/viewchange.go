package kauri

import (
	"bftkit/internal/core"
	"bftkit/internal/types"
)

// View change = tree reconfiguration: the next view rotates every
// replica's tree position, so a faulty internal node ends up elsewhere
// (assumption a3's escape hatch). Prepared slots travel with their
// prepare certificates; the new root re-proposes the highest-certified
// digest per slot and carries committed slots for stragglers. The frame
// is core.ViewChange (the root of view v's tree is v's round-robin
// leader); this file holds what a Kauri view-change carries, how its
// certificates are checked, and how the new tree's slots are chosen.

func (k *Kauri) buildViewChange(v types.View) *ViewChangeMsg {
	vc := &ViewChangeMsg{
		NewView: v,
		Base:    k.env.Ledger().LastExecuted(),
		Replica: k.env.ID(),
	}
	core.RetainedCommitted(k.env, func(view types.View, seq types.SeqNum, b *types.Batch, voters []types.NodeID) {
		vc.Committed = append(vc.Committed, CommittedSlot{View: view, Seq: seq, Batch: b, Voters: voters})
	})
	for seq, proof := range k.preparedProof {
		if seq > vc.Base {
			vc.Prepared = append(vc.Prepared, *proof)
		}
	}
	vc.Sig = k.env.Signer().Sign(vc.SigDigest())
	return vc
}

// validPrepared reports whether a carried slot's prepare certificate
// verifies; the new root ignores the others. (Received messages are never
// edited: the new-view message relays them, signatures intact.)
func (k *Kauri) validPrepared(s *PreparedSlot) bool {
	if s.Batch == nil || s.Batch.Digest() != s.Digest || s.Cert == nil {
		return false
	}
	return s.Cert.Digest == shareDigest(stagePrepare, s.View, s.Seq, s.Digest) &&
		s.Cert.Verify(k.env.Verifier(), k.Slots.Quorum) == nil
}

func (k *Kauri) sendNewView(v types.View, vcs []*ViewChangeMsg) {
	var base, maxS types.SeqNum
	committed := make(map[types.SeqNum]*CommittedSlot)
	chosen := make(map[types.SeqNum]*PreparedSlot)
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
		for i := range vc.Prepared {
			s := &vc.Prepared[i]
			if !k.validPrepared(s) {
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
		prop := &ProposalMsg{View: v, Seq: seq, Digest: digest, Batch: batch}
		prop.Sig = k.env.Signer().Sign(prop.SigDigest())
		nv.Proposals = append(nv.Proposals, prop)
	}
	nv.Sig = k.env.Signer().Sign(nv.SigDigest())
	k.env.Broadcast(nv)
	k.installNewView(nv)
}

func (k *Kauri) onNewView(from types.NodeID, m *NewViewMsg) {
	if k.vc.Justified(from, m.View, m.SigDigest(), m.Sig, m.ViewChanges) {
		k.installNewView(m)
	}
}

func (k *Kauri) installNewView(m *NewViewMsg) {
	k.vc.Install(m.View, func() { k.adoptNewView(m) })
	k.maybePropose()
}

// adoptNewView takes over what the new-view message carries; the kit
// holds proposing until it returns.
func (k *Kauri) adoptNewView(m *NewViewMsg) {
	k.Slots.Advance(m.Base)
	for i := range m.Committed {
		s := &m.Committed[i]
		core.AdoptCommitted(k.env, s.View, s.Seq, s.Batch, s.Voters)
	}
	for _, prop := range m.Proposals {
		k.Slots.Advance(prop.Seq)
		if prop.Seq > k.env.Ledger().LastExecuted() {
			k.acceptProposal(prop)
		}
	}
}
