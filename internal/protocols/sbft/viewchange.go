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
		Vouch: s.vouch,
		Pick:  core.HighestView(s.validPrepared),
		Keep:  func(cs *core.CommittedSlot, _ types.SeqNum) bool { return s.validCommitted(cs) },
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
		if cert := sl.Certificate(core.StageSign); sl.Seq > m.Base && s.preparedProof[sl.Seq] == nil && cert.Size() >= s.Slots.Quorum {
			m.Carried = append(m.Carried, core.CarriedSlot{View: s.vc.View(), Seq: sl.Seq, Digest: sl.Digest, Batch: sl.Batch, Cert: cert})
		}
	}
}

// validPrepared reports whether a carried slot's certificate verifies: a
// quorum of sign or of commit shares, whichever proof the sender held.
func (s *SBFT) validPrepared(p *core.CarriedSlot) bool {
	return core.VerifyCert(s.env, p.Cert, s.Slots.Quorum, core.StageSign, p.View, p.Seq, p.Digest) ||
		core.VerifyCert(s.env, p.Cert, s.Slots.Quorum, core.StageCommit, p.View, p.Seq, p.Digest)
}

// validCommitted reports whether a committed slot's certificate verifies:
// all n sign shares for a fast commit, 2f+1 commit shares otherwise.
func (s *SBFT) validCommitted(cs *core.CommittedSlot) bool {
	if cs.Batch == nil {
		return false
	}
	d := cs.Batch.Digest()
	return core.VerifyCert(s.env, cs.Cert, s.Slots.Quorum, core.StageCommit, cs.View, cs.Seq, d) ||
		core.VerifyCert(s.env, cs.Cert, s.env.N(), core.StageSign, cs.View, cs.Seq, d)
}
