package poe

import "bftkit/internal/core"

// What is PoE's own in the view-change stage; the messages and the
// recovery loop are core.ViewChange. Replicas carry certified slots above
// their durable commit point. A slot some client accepted has a 2f+1
// certificate held by at least f+1 honest replicas, so the new leader
// (which collects 2f+1 view-changes) always sees at least one certified
// copy and re-proposes it; speculation that certified under a
// Byzantine-assisted quorum but lost the view change is rolled back — the
// DC7 trade-off.

func (p *PoE) viewChangeHooks() core.ViewChangeHooks {
	return core.ViewChangeHooks{
		Vouch: func(m *core.ViewChangeMsg) {
			m.Committed = core.RetainedCommitted(p.env)
			p.Slots.Carry(m, func(sl *core.Slot[struct{}]) bool { return sl.Cert() != nil })
		},
		// A carried slot counts when its 2f+1 share certificate verifies.
		Pick: core.HighestView(func(s *core.CarriedSlot) bool {
			return core.VerifyCert(p.env, s.Cert, p.Slots.Quorum, core.StageShare, s.View, s.Seq, s.Digest)
		}),
		Keep: core.UpToBase,
		// The rolled-back speculation is re-assigned in the decided order.
		Reset:  func(*core.NewViewMsg) { p.Slots.Rewind() },
		Resume: p.maybePropose,
	}
}
