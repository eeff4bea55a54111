package zyzzyva

import (
	"maps"
	"slices"

	"bftkit/internal/core"
	"bftkit/internal/types"
)

// What is Zyzzyva's own in the view-change stage; the messages and the
// recovery loop are core.ViewChange. Replicas carry their speculative
// histories above their commit point, and the client commit certificates
// they received as evidence; the new leader keeps, per slot, the batch a
// certificate pins or else the one most senders claim (a slot a client
// completed — fast path 3f+1 or certificate 2f+1 — always has f+1 honest
// witnesses), fills the rest with no-ops, and re-issues order-requests in
// the new view. Replicas roll back conflicting speculation through the
// runtime's undo log — exactly the rollback cost design choice 8 warns
// about.

func (z *Zyzzyva) viewChangeHooks() core.ViewChangeHooks {
	return core.ViewChangeHooks{
		Vouch: func(m *core.ViewChangeMsg) {
			m.Committed = core.RetainedCommitted(z.env)
			z.Slots.Carry(m, (*core.Slot[struct{}]).Speculated)
			for _, seq := range slices.Sorted(maps.Keys(z.clientCerts)) {
				if seq > m.Base {
					m.Evidence = append(m.Evidence, z.clientCerts[seq])
				}
			}
		},
		Pick:   z.pick,
		Keep:   core.UpToBase,
		Resume: z.maybePropose,
	}
}

// pick is the most-claimed picker under the client-certificate pin: a
// verified client commit certificate proves 2f+1 replicas speculated this
// exact history, so at least f+1 honest senders claim its batch, and that
// batch is taken whatever else is claimed more often. Below that the
// most-witnessed batch is kept (it can only help liveness).
func (z *Zyzzyva) pick(vcs []*core.ViewChangeMsg) (types.SeqNum, func(types.SeqNum) *types.Batch) {
	claims := core.Claims(vcs)
	top := claims.Max
	certified := make(map[types.SeqNum]*CommitMsg)
	for _, m := range vcs {
		for _, e := range m.Evidence {
			cert, _ := e.(*CommitMsg)
			if !z.verifyClientCert(cert) {
				continue // forged: ignore (the message itself is relayed unedited)
			}
			if cur := certified[cert.Seq]; cur == nil || cert.View > cur.View {
				certified[cert.Seq] = cert
			}
			top = max(top, cert.Seq)
		}
	}
	return top, func(seq types.SeqNum) *types.Batch {
		if cert := certified[seq]; cert != nil {
			for _, b := range claims.Claimed(seq) {
				if batchMatchesCert(b, cert) {
					return b
				}
			}
		}
		return claims.Best(seq)
	}
}

// batchMatchesCert reports whether a claimed batch contains the certified
// client request (the certificate identifies the slot's request).
func batchMatchesCert(b *types.Batch, cert *CommitMsg) bool {
	for _, req := range b.Requests {
		if req.Client == cert.Client && req.ClientSeq == cert.ClientSeq {
			return true
		}
	}
	return false
}
