package fab

import (
	"bftkit/internal/core"
	"bftkit/internal/types"
)

// View change: the new leader collects n−f view-change messages, each
// carrying the sender's accepted slots, and re-proposes per slot the
// digest with the most witnesses. A committed slot (4f+1 accepts)
// intersects any n−f view-change quorum in at least 3f+1 replicas, of
// which at least 2f+1 are honest — always a strict plurality over any
// competing digest (at most f Byzantine claims plus honest replicas that
// accepted nothing), so decided slots survive. The frame is
// core.ViewChange (with FaB's n−f quorum); this file holds what a FaB
// view-change carries and how the new view is chosen and installed.

func (f *FaB) buildViewChange(v types.View) *ViewChangeMsg {
	vc := &ViewChangeMsg{
		NewView: v,
		Base:    f.env.Ledger().LastExecuted(),
		Replica: f.env.ID(),
	}
	core.RetainedCommitted(f.env, func(view types.View, seq types.SeqNum, b *types.Batch, voters []types.NodeID) {
		vc.Committed = append(vc.Committed, CommittedSlot{View: view, Seq: seq, Batch: b, Voters: voters})
	})
	for _, sl := range f.Slots.Assigned() {
		if sl.Seq > vc.Base {
			vc.Accepted = append(vc.Accepted, AcceptedSlot{
				View: f.View(), Seq: sl.Seq, Digest: sl.Digest, Batch: sl.Batch,
			})
		}
	}
	vc.Sig = f.env.Signer().Sign(vc.SigDigest())
	return vc
}

func (f *FaB) sendNewView(v types.View, vcs []*ViewChangeMsg) {
	var base types.SeqNum
	committed := make(map[types.SeqNum]*CommittedSlot)
	var accepted core.SlotClaims
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
		for _, s := range vc.Accepted {
			accepted.Add(vc.Replica, s.Seq, s.Digest, s.Batch)
		}
	}
	nv := &NewViewMsg{View: v, Base: base, ViewChanges: vcs}
	for seq := types.SeqNum(1); seq <= base; seq++ {
		if s := committed[seq]; s != nil {
			nv.Committed = append(nv.Committed, *s)
		}
	}
	for seq := base + 1; seq <= accepted.Max; seq++ {
		batch := accepted.Best(seq)
		pm := &ProposeMsg{View: v, Seq: seq, Digest: batch.Digest(), Batch: batch}
		pm.Sig = f.env.Signer().Sign(pm.SigDigest())
		nv.Proposals = append(nv.Proposals, pm)
	}
	nv.Sig = f.env.Signer().Sign(nv.SigDigest())
	f.env.Broadcast(nv)
	f.installNewView(nv)
}

func (f *FaB) onNewView(from types.NodeID, m *NewViewMsg) {
	if f.vc.Justified(from, m.View, m.SigDigest(), m.Sig, m.ViewChanges) {
		f.installNewView(m)
	}
}

func (f *FaB) installNewView(m *NewViewMsg) {
	f.vc.Install(m.View, func() { f.adoptNewView(m) })
	f.maybePropose()
}

// adoptNewView takes over what the new-view message carries; the kit
// holds proposing until it returns.
func (f *FaB) adoptNewView(m *NewViewMsg) {
	f.Slots.Advance(m.Base)
	for i := range m.Committed {
		s := &m.Committed[i]
		core.AdoptCommitted(f.env, s.View, s.Seq, s.Batch, s.Voters)
	}
	for _, pm := range m.Proposals {
		f.Slots.Advance(pm.Seq)
		if pm.Seq > f.env.Ledger().LastExecuted() {
			f.acceptPropose(pm)
		}
	}
}
