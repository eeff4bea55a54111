package sbft

import (
	"bftkit/internal/core"
	"bftkit/internal/types"
)

// View change: replicas that suspect the leader send signed view-change
// messages carrying every slot for which they hold a 2f+1 share
// certificate; the new leader collects 2f+1 of them and re-issues the
// surviving slots. A slot that fast-committed somewhere necessarily has a
// 2f+1 certificate in at least f+1 honest view-change senders, so decided
// batches survive (the SBFT paper's argument, compressed). The frame is
// core.ViewChange; this file holds what an SBFT view-change carries, how
// its certificates are checked, and how the new view is chosen and
// installed.

func (s *SBFT) buildViewChange(v types.View) *ViewChangeMsg {
	vc := &ViewChangeMsg{
		NewView:  v,
		LastExec: s.env.Ledger().LastExecuted(),
		Replica:  s.env.ID(),
	}
	for _, cs := range s.commitCerts {
		if cs.Seq > s.env.Ledger().LowWater() {
			vc.Committed = append(vc.Committed, *cs)
		}
	}
	for seq, proof := range s.preparedProof {
		if seq > vc.LastExec {
			vc.Prepared = append(vc.Prepared, *proof)
		}
	}
	// The collector can also assemble fresh certificates from the sign
	// shares it holds for the current view.
	for _, sl := range s.Slots.Assigned() {
		if sl.Seq > vc.LastExec && s.preparedProof[sl.Seq] == nil && sl.Count(stageSign) >= s.Slots.Quorum {
			vc.Prepared = append(vc.Prepared, PreparedSlot{
				View: s.View(), Seq: sl.Seq, Digest: sl.Digest, Batch: sl.Batch,
				Cert: sl.Certificate(stageSign, shareDigest(stageSign, s.View(), sl.Seq, sl.Digest)),
			})
		}
	}
	vc.Sig = s.env.Signer().Sign(vc.SigDigest())
	return vc
}

// validPrepared reports whether a carried prepared slot's certificate
// verifies; it may cover the "sign" or the "commit" stage depending on
// which proof the sender held. The new leader ignores slots that fail.
// (Received messages are never edited: the new-view message relays them,
// signatures intact.)
func (s *SBFT) validPrepared(p *PreparedSlot) bool {
	if p.Batch == nil || p.Batch.Digest() != p.Digest || p.Cert == nil {
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
func (s *SBFT) validCommitted(cs *CommittedSlot) bool {
	if cs.Batch == nil || cs.Cert == nil {
		return false
	}
	need, stage := s.Slots.Quorum, stageCommit
	if cs.Fast {
		need, stage = s.env.N(), stageSign
	}
	return cs.Cert.Digest == shareDigest(stage, cs.View, cs.Seq, cs.Batch.Digest()) &&
		cs.Cert.Verify(s.env.Verifier(), need) == nil
}

func (s *SBFT) sendNewView(v types.View, vcs []*ViewChangeMsg) {
	var base, maxS types.SeqNum
	committed := make(map[types.SeqNum]*CommittedSlot)
	chosen := make(map[types.SeqNum]*PreparedSlot)
	for _, vc := range vcs {
		if vc.LastExec > base {
			base = vc.LastExec
		}
		for i := range vc.Committed {
			cs := &vc.Committed[i]
			if !s.validCommitted(cs) {
				continue
			}
			if committed[cs.Seq] == nil {
				committed[cs.Seq] = cs
			}
			if cs.Seq > maxS {
				maxS = cs.Seq
			}
		}
		for i := range vc.Prepared {
			p := &vc.Prepared[i]
			if !s.validPrepared(p) {
				continue
			}
			if cur := chosen[p.Seq]; cur == nil || p.View > cur.View {
				chosen[p.Seq] = p
			}
			if p.Seq > maxS {
				maxS = p.Seq
			}
		}
	}
	nv := &NewViewMsg{View: v, Base: base, ViewChanges: vcs}
	for seq := types.SeqNum(1); seq <= maxS; seq++ {
		if cs := committed[seq]; cs != nil {
			nv.Committed = append(nv.Committed, *cs)
		}
	}
	for seq := base + 1; seq <= maxS; seq++ {
		if committed[seq] != nil {
			continue // already carried with its certificate
		}
		var batch *types.Batch
		var digest types.Digest
		if p := chosen[seq]; p != nil {
			batch, digest = p.Batch, p.Digest
		} else {
			batch, digest = types.NewBatch(), types.ZeroDigest
		}
		pp := &PrePrepareMsg{View: v, Seq: seq, Digest: digest, Batch: batch}
		pp.Sig = s.env.Signer().Sign(pp.SigDigest())
		nv.PrePrepares = append(nv.PrePrepares, pp)
	}
	nv.Sig = s.env.Signer().Sign(nv.SigDigest())
	s.env.Broadcast(nv)
	s.installNewView(nv, maxS)
}

func (s *SBFT) onNewView(from types.NodeID, m *NewViewMsg) {
	if !s.vc.Justified(from, m.View, m.SigDigest(), m.Sig, m.ViewChanges) {
		return
	}
	var maxS types.SeqNum
	for _, pp := range m.PrePrepares {
		if pp.Seq > maxS {
			maxS = pp.Seq
		}
	}
	s.installNewView(m, maxS)
}

func (s *SBFT) installNewView(m *NewViewMsg, maxS types.SeqNum) {
	s.vc.Install(m.View, func() { s.adoptNewView(m, maxS) })
	s.maybePropose()
}

// adoptNewView takes over what the new-view message carries; the kit
// holds proposing until it returns.
func (s *SBFT) adoptNewView(m *NewViewMsg, maxS types.SeqNum) {
	s.Slots.Advance(max(m.Base, maxS))
	for i := range m.Committed {
		cs := &m.Committed[i]
		if cs.Batch == nil || cs.Cert == nil {
			continue
		}
		if cs.Seq > s.env.Ledger().LastExecuted() {
			if !s.validCommitted(cs) {
				continue
			}
			s.commitCerts[cs.Seq] = cs
			core.AdoptCommitted(s.env, cs.View, cs.Seq, cs.Batch, cs.Voters)
		}
		s.Slots.Advance(cs.Seq)
	}
	for _, pp := range m.PrePrepares {
		if pp.Seq > s.env.Ledger().LastExecuted() {
			s.acceptPrePrepare(pp)
			if s.vc.Leading() {
				s.env.SetTimer(core.TimerID{Name: timerFastPath, Seq: pp.Seq, View: m.View}, s.opts.FastPathWait)
			}
		}
	}
}
