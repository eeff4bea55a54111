package themis

import (
	"sort"

	"bftkit/internal/core"
	"bftkit/internal/types"
)

// View change: plurality pick over prepared slots plus carried committed
// slots, as in the other stable-leader protocols of this repository. With
// n = 4f+1 and quorums of 3f+1, a committed slot intersects any 3f+1
// view-change quorum in at least 2f+1 replicas, at least f+1 honest — a
// strict plurality over anything f Byzantine replicas can fabricate.
// Re-proposed slots skip fair-order re-validation (their reports were
// checked when first proposed and the prepared certificate pins them).
// The frame is core.ViewChange with Themis's 3f+1 quorum; this file holds
// what a Themis view-change carries and how the new view is chosen,
// installed and re-fed with reports.

func (t *Themis) buildViewChange(v types.View) *ViewChangeMsg {
	vc := &ViewChangeMsg{
		NewView: v,
		Base:    t.env.Ledger().LastExecuted(),
		Replica: t.env.ID(),
	}
	core.RetainedCommitted(t.env, func(view types.View, seq types.SeqNum, b *types.Batch, voters []types.NodeID) {
		vc.Committed = append(vc.Committed, CommittedSlot{View: view, Seq: seq, Batch: b, Voters: voters})
	})
	for seq, proof := range t.preparedProof {
		if seq > vc.Base {
			vc.Prepared = append(vc.Prepared, *proof)
		}
	}
	vc.Sig = t.env.Signer().Sign(vc.SigDigest())
	return vc
}

func (t *Themis) sendNewView(v types.View, vcs []*ViewChangeMsg) {
	var base types.SeqNum
	committed := make(map[types.SeqNum]*CommittedSlot)
	var prepared core.SlotClaims
	for _, vc := range vcs {
		if vc.Base > base {
			base = vc.Base
		}
		for i := range vc.Committed {
			s := &vc.Committed[i]
			if committed[s.Seq] == nil {
				committed[s.Seq] = s
			}
		}
		for _, s := range vc.Prepared {
			prepared.Add(vc.Replica, s.Seq, s.Digest, s.Batch)
		}
	}
	// A slot committed anywhere has 3f+1 prepared witnesses, at least
	// 2f+1 of them honest — always a strict majority of any view-change
	// quorum. Prefer the plurality; committed carries override.
	nv := &NewViewMsg{View: v, Base: base, ViewChanges: vcs}
	for seq := types.SeqNum(1); seq <= base; seq++ {
		if s := committed[seq]; s != nil {
			nv.Committed = append(nv.Committed, *s)
		}
	}
	for seq := base + 1; seq <= prepared.Max; seq++ {
		prop := &ProposalMsg{View: v, Seq: seq, Batch: prepared.Best(seq)}
		prop.Sig = t.env.Signer().Sign(prop.SigDigest())
		nv.Proposals = append(nv.Proposals, prop)
	}
	nv.Sig = t.env.Signer().Sign(nv.SigDigest())
	t.env.Broadcast(nv)
	t.installNewView(nv)
}

func (t *Themis) onNewView(from types.NodeID, m *NewViewMsg) {
	if t.vc.Justified(from, m.View, m.SigDigest(), m.Sig, m.ViewChanges) {
		t.installNewView(m)
	}
}

func (t *Themis) installNewView(m *NewViewMsg) {
	t.vc.Install(m.View, func() { t.adoptNewView(m) })
}

// adoptNewView takes over what the new-view message carries; the kit
// holds proposing until it returns.
func (t *Themis) adoptNewView(m *NewViewMsg) {
	t.reports = make(map[types.NodeID]*ReportMsg)
	t.Slots.Advance(m.Base)
	for i := range m.Committed {
		s := &m.Committed[i]
		core.AdoptCommitted(t.env, s.View, s.Seq, s.Batch, s.Voters)
	}
	for _, prop := range m.Proposals {
		t.Slots.Advance(prop.Seq)
		if prop.Seq > t.env.Ledger().LastExecuted() {
			t.acceptProposal(t.env.Config().LeaderOf(m.View), prop, true)
		}
	}
	// Requests that were pinned to lost proposals become orderable
	// again, and everything unexecuted is re-reported to the new leader
	// (the old leader may have swallowed the original reports).
	t.ordered = make(map[types.RequestKey]bool)
	t.local = t.local[:0]
	for key, req := range t.seenReq {
		if !t.backlog.Done(key) {
			t.local = append(t.local, req)
		} else {
			delete(t.seenReq, key)
		}
	}
	sort.Slice(t.local, func(i, j int) bool { return t.local[i].ArrivalHint < t.local[j].ArrivalHint })
	if len(t.local) > 0 {
		t.roundArmed = true
		t.env.SetTimer(core.TimerID{Name: timerRound}, t.env.Config().BatchTimeout)
	}
}
