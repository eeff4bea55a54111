package pbft

import (
	"bftkit/internal/core"
	"bftkit/internal/crypto"
	"bftkit/internal/types"
)

// This file implements PBFT's view-change stage (dimension P3, stable
// leader): replicas that suspect the leader exchange signed view-change
// messages carrying their prepared certificates; the designated leader of
// the next view collects 2f+1 of them and installs the view with a
// new-view message that re-issues every prepared slot, filling gaps with
// no-op batches. The frame — start gate, join rule, quorum gate, new-view
// justification, entered-view reset — is core.ViewChange; this file holds
// what is PBFT's own: what a view-change message carries, how carried
// prepared proofs are validated, and how the new view's slots are chosen.

func (p *PBFT) buildViewChange(v types.View) *ViewChangeMsg {
	p.batchArmed = false
	p.env.StopTimer(core.TimerID{Name: timerBatch})

	vc := &ViewChangeMsg{
		NewView:    v,
		LastStable: p.env.Ledger().LowWater(),
		LastExec:   p.env.Ledger().LastExecuted(),
		Replica:    p.env.ID(),
	}
	for _, proof := range p.preparedProof {
		if proof.Seq > vc.LastStable {
			vc.Prepared = append(vc.Prepared, *proof)
		}
	}
	vc.Sig = p.env.Signer().Sign(vc.SigDigest())
	return vc
}

// validProof checks a carried prepared proof; the new leader ignores
// forged ones. A proof needs the leader's pre-prepare signature plus 2f
// backup prepare signatures over the same digest. In MAC mode prepare
// votes are not transferable (no non-repudiation — exactly DC 11's
// point); we then rely on the signature over the whole view-change
// message, the simplification PBFT's view-change-ack machinery papers
// over. Received messages are never edited: the new-view message relays
// them, and their signatures must still verify at every backup.
func (p *PBFT) validProof(pp *PreparedProof) bool {
	if pp.Batch == nil || pp.Batch.Digest() != pp.Digest {
		return false
	}
	if p.env.Scheme() == crypto.SchemeMAC {
		return true
	}
	if pp.Cert == nil || pp.Cert.Size() < 2*p.env.F() {
		return false
	}
	leader := p.env.Config().LeaderOf(pp.View)
	ppProbe := &PrePrepareMsg{View: pp.View, Seq: pp.Seq, Digest: pp.Digest}
	if !p.env.Verifier().VerifySig(leader, ppProbe.SigDigest(), pp.LeaderSig) {
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

// sendNewView runs at the new leader once 2f+1 view-changes are in.
func (p *PBFT) sendNewView(v types.View, vcs []*ViewChangeMsg) {
	// Compute min-s (highest stable checkpoint) and collect, per slot,
	// the prepared proof with the highest view.
	var minS, maxS, maxExec types.SeqNum
	chosen := make(map[types.SeqNum]*PreparedProof)
	for _, vc := range vcs {
		if vc.LastStable > minS {
			minS = vc.LastStable
		}
		if vc.LastExec > maxExec {
			maxExec = vc.LastExec
		}
		for i := range vc.Prepared {
			pp := &vc.Prepared[i]
			if !p.validProof(pp) {
				continue
			}
			if cur := chosen[pp.Seq]; cur == nil || pp.View > cur.View {
				chosen[pp.Seq] = pp
			}
			if pp.Seq > maxS {
				maxS = pp.Seq
			}
		}
	}

	nv := &NewViewMsg{View: v, Base: maxExec, ViewChanges: vcs}
	for s := minS + 1; s <= maxS; s++ {
		var batch *types.Batch
		var digest types.Digest
		if pp := chosen[s]; pp != nil && pp.Seq > minS {
			batch, digest = pp.Batch, pp.Digest
		} else {
			batch, digest = types.NewBatch(), types.ZeroDigest // no-op filler
		}
		repp := &PrePrepareMsg{View: v, Seq: s, Digest: digest, Batch: batch}
		repp.Sig = p.env.Signer().Sign(repp.SigDigest())
		nv.PrePrepares = append(nv.PrePrepares, repp)
	}
	nv.Sig = p.env.Signer().Sign(nv.SigDigest())
	p.env.Broadcast(nv)
	p.installNewView(nv, maxS)
}

func (p *PBFT) onNewView(from types.NodeID, m *NewViewMsg) {
	if !p.vc.Justified(from, m.View, m.SigDigest(), m.Sig, m.ViewChanges) {
		return
	}
	var maxS types.SeqNum
	for _, pp := range m.PrePrepares {
		if pp.Seq > maxS {
			maxS = pp.Seq
		}
	}
	p.installNewView(m, maxS)
}

func (p *PBFT) installNewView(m *NewViewMsg, maxS types.SeqNum) {
	p.vc.Install(m.View, func() { p.adoptNewView(m, maxS) })
	// A new leader resumes proposing its own backlog.
	p.maybePropose()
}

// adoptNewView takes over what the new-view message carries; the kit
// holds proposing until it returns.
func (p *PBFT) adoptNewView(m *NewViewMsg, maxS types.SeqNum) {
	p.Slots.Advance(max(m.Base, maxS))
	if m.Base > p.env.Ledger().LastExecuted() {
		// We are behind the quorum's execution point: fetch the
		// committed slots we missed during the view churn.
		p.requestCatchup()
	}
	// Adopt the re-issued pre-prepares: they flow through the normal
	// acceptance path, so backups prepare and commit them again in the
	// new view.
	for _, pp := range m.PrePrepares {
		if pp.Seq > p.env.Ledger().LastExecuted() {
			p.acceptPrePrepare(pp)
		}
	}
}
