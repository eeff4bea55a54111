package fab

import "bftkit/internal/core"

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
			f.Slots.Carry(m, func(*core.Slot[struct{}]) bool { return true })
		},
		Pick:   core.MostClaimed,
		Keep:   core.UpToBase,
		Resume: f.maybePropose,
	}
}
