package kauri

import "bftkit/internal/core"

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
			return core.VerifyCert(k.env, s.Cert, k.Slots.Quorum, core.StagePrepare, s.View, s.Seq, s.Digest)
		}),
		Keep:   core.UpToBase,
		Resume: k.maybePropose,
	}
}
