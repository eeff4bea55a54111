package fab

import (
	"bftkit/internal/core"
	"bftkit/internal/types"
)

// What is FaB's own in the view-change stage; the messages and the
// recovery loop are core.ViewChange, with FaB's n−f quorum. Replicas carry
// the slots they accepted and the new leader re-proposes per slot the
// batch with the most witnesses. A committed slot (4f+1 accepts)
// intersects any n−f view-change quorum in at least 3f+1 replicas, of
// which at least 2f+1 are honest — always a strict plurality over any
// competing digest (at most f Byzantine claims plus honest replicas that
// accepted nothing), so decided slots survive.

func (f *FaB) viewChangeHooks() core.ViewChangeHooks {
	return core.ViewChangeHooks{
		Vouch: func(m *core.ViewChangeMsg) {
			m.Committed = core.RetainedCommitted(f.env)
			for _, sl := range f.Slots.Assigned() {
				if sl.Seq > m.Base {
					m.Carried = append(m.Carried, core.CarriedSlot{
						View: f.View(), Seq: sl.Seq, Digest: sl.Digest, Batch: sl.Batch,
					})
				}
			}
		},
		Pick:      core.MostClaimed,
		Keep:      core.UpToBase,
		SigDigest: func(s *core.CarriedSlot) types.Digest { return proposal(s).SigDigest() },
		Accept:    func(s *core.CarriedSlot) { f.acceptPropose(proposal(s)) },
		Resume:    f.maybePropose,
	}
}

func proposal(s *core.CarriedSlot) *ProposeMsg {
	return &ProposeMsg{View: s.View, Seq: s.Seq, Digest: s.Digest, Batch: s.Batch, Sig: s.LeaderSig}
}
