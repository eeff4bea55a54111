package poe

import (
	"bftkit/internal/core"
	"bftkit/internal/types"
)

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
			for _, sl := range p.Slots.Assigned() {
				if sl.Seq > m.Base && sl.X.cert != nil {
					m.Carried = append(m.Carried, core.CarriedSlot{
						View: p.View(), Seq: sl.Seq, Digest: sl.Digest, Batch: sl.Batch, Cert: sl.X.cert,
					})
				}
			}
		},
		// A carried slot counts when its 2f+1 share certificate verifies.
		Pick: core.HighestView(func(s *core.CarriedSlot) bool {
			return s.Cert != nil && s.Cert.Digest == shareDigest(s.View, s.Seq, s.Digest) &&
				s.Cert.Verify(p.env.Verifier(), p.Slots.Quorum) == nil
		}),
		Keep:      core.UpToBase,
		SigDigest: func(s *core.CarriedSlot) types.Digest { return proposal(s).SigDigest() },
		Accept:    func(s *core.CarriedSlot) { p.acceptPropose(proposal(s)) },
		// Roll back uncommitted speculation; the decided order replaces it.
		Reset: func(*core.NewViewMsg) {
			p.env.RollbackSpecAbove(p.env.Ledger().LastExecuted())
			p.ready = make(map[types.SeqNum]*CertifyMsg)
			p.Slots.Rewind()
		},
		Resume: p.maybePropose,
	}
}

func proposal(s *core.CarriedSlot) *ProposeMsg {
	return &ProposeMsg{View: s.View, Seq: s.Seq, Digest: s.Digest, Batch: s.Batch, Sig: s.LeaderSig}
}
