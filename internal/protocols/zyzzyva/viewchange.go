package zyzzyva

import (
	"bftkit/internal/core"
	"bftkit/internal/types"
)

// View change: replicas ship their speculative histories above their
// commit point; the new leader keeps, per slot, any digest claimed by at
// least f+1 view-change senders (a slot a client completed — fast path
// 3f+1 or certificate 2f+1 — always has f+1 honest witnesses), fills the
// rest with no-ops, and re-issues order-requests in the new view.
// Replicas roll back conflicting speculation through the runtime's undo
// log — exactly the rollback cost design choice 8 warns about. The frame
// is core.ViewChange; this file holds what a Zyzzyva view-change carries,
// how it is checked, and how the new view's order is chosen and installed.

func (z *Zyzzyva) buildViewChange(v types.View) *ViewChangeMsg {
	vc := &ViewChangeMsg{
		NewView: v,
		Base:    z.env.Ledger().LastExecuted(),
		Replica: z.env.ID(),
	}
	core.RetainedCommitted(z.env, func(view types.View, seq types.SeqNum, b *types.Batch, voters []types.NodeID) {
		vc.Committed = append(vc.Committed, CommittedSlot{View: view, Seq: seq, Batch: b, Voters: voters})
	})
	for _, sl := range z.Slots.Assigned() {
		if sl.X.executed && sl.Seq > vc.Base {
			vc.Slots = append(vc.Slots, SpecSlot{Seq: sl.Seq, Digest: sl.Digest, Batch: sl.Batch})
		}
	}
	for seq, cert := range z.clientCerts {
		if seq > vc.Base {
			vc.Certs = append(vc.Certs, cert)
		}
	}
	vc.Sig = z.env.Signer().Sign(vc.SigDigest())
	return vc
}

func (z *Zyzzyva) sendNewView(v types.View, vcs []*ViewChangeMsg) {
	var base, maxS types.SeqNum
	committed := make(map[types.SeqNum]*CommittedSlot)
	certified := make(map[types.SeqNum]*CommitMsg)
	var specs core.SlotClaims
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
		for _, cert := range vc.Certs {
			if !z.verifyClientCert(cert) {
				continue // forged: ignore (the message itself is relayed unedited)
			}
			if cur := certified[cert.Seq]; cur == nil || cert.View > cur.View {
				certified[cert.Seq] = cert
			}
			if cert.Seq > maxS {
				maxS = cert.Seq
			}
		}
		for _, s := range vc.Slots {
			specs.Add(vc.Replica, s.Seq, s.Digest, s.Batch)
		}
	}
	if specs.Max > maxS {
		maxS = specs.Max
	}
	nv := &NewViewMsg{View: v, Base: base, ViewChanges: vcs}
	for seq := types.SeqNum(1); seq <= base; seq++ {
		if s := committed[seq]; s != nil {
			nv.Committed = append(nv.Committed, *s)
		}
	}
	for seq := base + 1; seq <= maxS; seq++ {
		var batch *types.Batch
		// A client commit certificate pins the slot's content: the
		// client proved 2f+1 replicas speculated this exact history,
		// so at least f+1 honest spec slots carry its batch.
		if cert := certified[seq]; cert != nil {
			for _, b := range specs.Claimed(seq) {
				if z.batchMatchesCert(b, cert) {
					batch = b
					break
				}
			}
		}
		if batch == nil {
			// f+1 witnesses pin a possibly-completed slot; below that
			// keep the most-witnessed digest (it can only help
			// liveness).
			batch = specs.Best(seq)
		}
		or := &OrderReqMsg{View: v, Seq: seq, Digest: batch.Digest(), Batch: batch}
		or.Sig = z.env.Signer().Sign(or.SigDigest())
		nv.OrderReqs = append(nv.OrderReqs, or)
	}
	nv.Sig = z.env.Signer().Sign(nv.SigDigest())
	z.env.Broadcast(nv)
	z.installNewView(nv)
}

// batchMatchesCert reports whether a spec batch contains the certified
// client request (the certificate identifies the slot's request).
func (z *Zyzzyva) batchMatchesCert(b *types.Batch, cert *CommitMsg) bool {
	if b == nil {
		return false
	}
	for _, req := range b.Requests {
		if req.Client == cert.Client && req.ClientSeq == cert.ClientSeq {
			return true
		}
	}
	return false
}

func (z *Zyzzyva) onNewView(from types.NodeID, m *NewViewMsg) {
	if z.vc.Justified(from, m.View, m.SigDigest(), m.Sig, m.ViewChanges) {
		z.installNewView(m)
	}
}

func (z *Zyzzyva) installNewView(m *NewViewMsg) {
	z.vc.Install(m.View, func() { z.adoptNewView(m) })
	z.maybePropose()
}

// adoptNewView takes over what the new-view message carries; the kit
// holds proposing until it returns.
func (z *Zyzzyva) adoptNewView(m *NewViewMsg) {
	// Roll back all uncommitted speculation; the new view's order
	// replaces it (the runtime restores state and history digests).
	z.env.RollbackSpecAbove(z.env.Ledger().LastExecuted())
	z.Slots.Advance(m.Base)
	for i := range m.Committed {
		s := &m.Committed[i]
		core.AdoptCommitted(z.env, s.View, s.Seq, s.Batch, s.Voters)
	}
	for _, or := range m.OrderReqs {
		z.Slots.Advance(or.Seq)
		if or.Seq > z.env.Ledger().LastExecuted() {
			z.acceptOrderReq(or)
		}
	}
}
