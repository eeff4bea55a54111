package pbft

import (
	"slices"

	"bftkit/internal/core"
	"bftkit/internal/crypto"
)

// This file holds what is PBFT's own in the view-change stage (dimension
// P3, stable leader); the messages and the recovery loop are
// core.ViewChange. Replicas that suspect the leader carry their prepared
// certificates; the new leader re-issues, from the quorum's highest stable
// checkpoint, the highest-view validly prepared batch of every slot and
// fills gaps with no-ops. PBFT carries no committed slots: a replica
// behind the quorum's execution point asks for catch-up instead.

func (p *PBFT) viewChangeHooks() core.ViewChangeHooks {
	return core.ViewChangeHooks{
		Vouch: p.vouch,
		Pick:  core.HighestView(p.validProof),
		// Re-issued pre-prepares flow through the normal acceptance
		// path, so backups prepare and commit them again in the new view.
		Accept: p.acceptPrePrepare,
		Reset: func(nv *core.NewViewMsg) {
			if nv.Base > p.env.Ledger().LastExecuted() {
				// We are behind the quorum's execution point: fetch the
				// committed slots we missed during the view churn.
				p.requestCatchup()
			}
		},
		Resume: p.maybePropose, // a new leader resumes proposing its own backlog
	}
}

// vouch carries everything prepared above the last stable checkpoint. A
// front-running adversary that starts a view change also drops its hold.
func (p *PBFT) vouch(m *core.ViewChangeMsg) {
	p.holding = false
	p.env.StopTimer(core.TimerID{Name: timerHold})
	for _, proof := range p.preparedProof {
		if proof.Seq > m.Stable {
			m.Carried = append(m.Carried, *proof)
		}
	}
}

// validProof checks a carried prepared proof: the leader's pre-prepare
// signature plus 2f backup prepare signatures over the same digest. In
// MAC mode prepare votes are not transferable (no non-repudiation —
// exactly DC 11's point); we then rely on the signature over the whole
// view-change message, the simplification PBFT's view-change-ack
// machinery papers over.
func (p *PBFT) validProof(s *core.CarriedSlot) bool {
	if p.env.Scheme() == crypto.SchemeMAC {
		return true
	}
	leader := p.env.Config().LeaderOf(s.View)
	return s.Cert != nil && !slices.Contains(s.Cert.Signers, leader) &&
		p.env.Verifier().VerifySig(leader, s.Proposal(leader).SigDigest(), s.LeaderSig) &&
		core.VerifyCert(p.env, s.Cert, 2*p.env.F(), core.StagePrepare, s.View, s.Seq, s.Digest)
}
