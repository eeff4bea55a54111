package sbft

import (
	"bftkit/internal/core"
	"bftkit/internal/types"
)

// What is SBFT's own in the view-change stage; the messages and the
// recovery loop are core.ViewChange (the paper notes several linear
// protocols keep PBFT's quadratic view-change stage). Replicas carry every
// slot for which they hold a 2f+1 share certificate, and executed slots
// with their transferable commit certificates, so decided slots survive
// even when the rest of the quorum lags. A slot that fast-committed
// somewhere necessarily has a 2f+1 certificate in at least f+1 honest
// view-change senders (the SBFT paper's argument, compressed).

func (s *SBFT) viewChangeHooks() core.ViewChangeHooks {
	return core.ViewChangeHooks{
		Vouch:     s.vouch,
		Pick:      core.HighestView(s.validPrepared),
		Keep:      func(cs *core.CommittedSlot, _ types.SeqNum) bool { return s.validCommitted(cs) },
		SigDigest: func(c *core.CarriedSlot) types.Digest { return prePrepare(c).SigDigest() },
		Accept: func(c *core.CarriedSlot) {
			s.acceptPrePrepare(prePrepare(c))
			if s.vc.Leading() {
				s.env.SetTimer(core.TimerID{Name: timerFastPath, Seq: c.Seq, View: c.View}, s.opts.FastPathWait)
			}
		},
		// The certificate is transferable: check it, and retain it for the
		// next view change.
		Adopt: func(cs *core.CommittedSlot) {
			if s.validCommitted(cs) {
				s.commitCerts[cs.Seq] = cs
				core.AdoptCommitted(s.env, cs)
			}
		},
		Resume: s.maybePropose,
	}
}

func prePrepare(c *core.CarriedSlot) *PrePrepareMsg {
	return &PrePrepareMsg{View: c.View, Seq: c.Seq, Digest: c.Digest, Batch: c.Batch, Sig: c.LeaderSig}
}

func (s *SBFT) vouch(m *core.ViewChangeMsg) {
	for _, cs := range s.commitCerts {
		if cs.Seq > m.Stable {
			m.Committed = append(m.Committed, *cs)
		}
	}
	for seq, proof := range s.preparedProof {
		if seq > m.Base {
			m.Carried = append(m.Carried, *proof)
		}
	}
	// The collector can also assemble fresh certificates from the sign
	// shares it holds for the current view.
	for _, sl := range s.Slots.Assigned() {
		if sl.Seq > m.Base && s.preparedProof[sl.Seq] == nil && sl.Count(stageSign) >= s.Slots.Quorum {
			m.Carried = append(m.Carried, core.CarriedSlot{
				View: s.View(), Seq: sl.Seq, Digest: sl.Digest, Batch: sl.Batch,
				Cert: sl.Certificate(stageSign, shareDigest(stageSign, s.View(), sl.Seq, sl.Digest)),
			})
		}
	}
}

// validPrepared reports whether a carried slot's certificate verifies; it
// may cover the "sign" or the "commit" stage depending on which proof the
// sender held.
func (s *SBFT) validPrepared(p *core.CarriedSlot) bool {
	if p.Cert == nil {
		return false
	}
	for _, stage := range []string{stageSign, stageCommit} {
		if p.Cert.Digest == shareDigest(stage, p.View, p.Seq, p.Digest) {
			return p.Cert.Verify(s.env.Verifier(), s.Slots.Quorum) == nil
		}
	}
	return false
}

// validCommitted reports whether a carried committed slot's certificate
// verifies: all n sign shares for a fast commit, 2f+1 commit shares
// otherwise.
func (s *SBFT) validCommitted(cs *core.CommittedSlot) bool {
	if cs.Batch == nil || cs.Cert == nil {
		return false
	}
	need := s.Slots.Quorum
	switch d := cs.Batch.Digest(); cs.Cert.Digest {
	case shareDigest(stageCommit, cs.View, cs.Seq, d):
	case shareDigest(stageSign, cs.View, cs.Seq, d):
		need = s.env.N()
	default:
		return false
	}
	return cs.Cert.Verify(s.env.Verifier(), need) == nil
}
