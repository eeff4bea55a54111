package pbft

import (
	"bftkit/internal/core"
	"bftkit/internal/crypto"
	"bftkit/internal/types"
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
		Vouch:     p.vouch,
		Pick:      core.HighestView(p.validProof),
		SigDigest: func(s *core.CarriedSlot) types.Digest { return prePrepare(s).SigDigest() },
		// Re-issued pre-prepares flow through the normal acceptance
		// path, so backups prepare and commit them again in the new view.
		Accept: func(s *core.CarriedSlot) { p.acceptPrePrepare(prePrepare(s)) },
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

func prePrepare(s *core.CarriedSlot) *PrePrepareMsg {
	return &PrePrepareMsg{View: s.View, Seq: s.Seq, Digest: s.Digest, Batch: s.Batch, Sig: s.LeaderSig}
}

// vouch carries everything prepared above the last stable checkpoint. A
// replica that starts a view change also stops forming batches.
func (p *PBFT) vouch(m *core.ViewChangeMsg) {
	p.batchArmed = false
	p.env.StopTimer(core.TimerID{Name: timerBatch})
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
func (p *PBFT) validProof(pp *core.CarriedSlot) bool {
	if p.env.Scheme() == crypto.SchemeMAC {
		return true
	}
	if pp.Cert == nil || pp.Cert.Size() < 2*p.env.F() || len(pp.Cert.Sigs) != pp.Cert.Size() {
		return false
	}
	leader := p.env.Config().LeaderOf(pp.View)
	if !p.env.Verifier().VerifySig(leader, prePrepare(pp).SigDigest(), pp.LeaderSig) {
		return false
	}
	probe := &PrepareMsg{View: pp.View, Seq: pp.Seq, Digest: pp.Digest}
	for i, signer := range pp.Cert.Signers {
		probe.Replica = signer
		if signer == leader || !p.env.Verifier().VerifySig(signer, probe.SigDigest(), pp.Cert.Sigs[i]) {
			return false
		}
	}
	return true
}
