package kauri

import (
	"bftkit/internal/core"
	"bftkit/internal/types"
)

// What is Kauri's own in the view-change stage; the messages and the
// recovery loop are core.ViewChange (the root of view v's tree is v's
// round-robin leader, and view-change traffic goes straight to it: the
// tree is not trusted yet). View change = tree reconfiguration: the next
// view rotates every replica's tree position, so a faulty internal node
// ends up elsewhere (assumption a3's escape hatch). Prepared slots travel
// with their prepare certificates; the new root re-proposes the
// highest-certified batch per slot.

func (k *Kauri) viewChangeHooks() core.ViewChangeHooks {
	return core.ViewChangeHooks{
		Vouch: func(m *core.ViewChangeMsg) {
			m.Committed = core.RetainedCommitted(k.env)
			for seq, proof := range k.preparedProof {
				if seq > m.Base {
					m.Carried = append(m.Carried, *proof)
				}
			}
		},
		// A carried slot counts when its prepare certificate verifies.
		Pick: core.HighestView(func(s *core.CarriedSlot) bool {
			return s.Cert != nil && s.Cert.Digest == shareDigest(stagePrepare, s.View, s.Seq, s.Digest) &&
				s.Cert.Verify(k.env.Verifier(), k.Slots.Quorum) == nil
		}),
		Keep:      core.UpToBase,
		SigDigest: func(s *core.CarriedSlot) types.Digest { return proposal(s).SigDigest() },
		Accept:    func(s *core.CarriedSlot) { k.acceptProposal(proposal(s)) },
		Resume:    k.maybePropose,
	}
}

func proposal(s *core.CarriedSlot) *ProposalMsg {
	return &ProposalMsg{View: s.View, Seq: s.Seq, Digest: s.Digest, Batch: s.Batch, Sig: s.LeaderSig}
}
