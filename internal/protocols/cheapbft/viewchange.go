package cheapbft

import (
	"bftkit/internal/core"
	"bftkit/internal/types"
)

// What is CheapBFT's own in the view-change stage; the messages and the
// recovery loop are core.ViewChange. The view change doubles as CheapBFT's
// fallback switch: rotating the view rotates the active set, benching a
// faulty active replica. Replicas carry both retained committed slots
// (with their proofs, so replicas that were passive catch up — wherever
// they lie, not only below the quorum's execution point) and
// voted-but-uncommitted slots, picked by plurality, which preserves any
// slot a client accepted: a committed slot has all 2f+1 active voters, at
// least f+1 of them honest and present in any 2f+1 view-change quorum.

func (c *CheapBFT) viewChangeHooks() core.ViewChangeHooks {
	return core.ViewChangeHooks{
		Vouch: func(m *core.ViewChangeMsg) {
			m.Committed = core.RetainedCommitted(c.env)
			c.Slots.Carry(m, func(sl *core.Slot[struct{}]) bool { return !sl.Past(core.StageCommit) })
		},
		Pick:   core.MostClaimed,
		Keep:   func(*core.CommittedSlot, types.SeqNum) bool { return true },
		Resume: c.maybePropose,
	}
}
