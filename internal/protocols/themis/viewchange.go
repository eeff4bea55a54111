package themis

import (
	"sort"

	"bftkit/internal/core"
	"bftkit/internal/types"
)

// What is Themis's own in the view-change stage; the messages and the
// recovery loop are core.ViewChange with Themis's 3f+1 quorum: a plurality
// pick over prepared slots plus carried committed slots. With n = 4f+1 and
// quorums of 3f+1, a committed slot intersects any 3f+1 view-change quorum
// in at least 2f+1 replicas, at least f+1 honest — a strict plurality over
// anything f Byzantine replicas can fabricate. Re-proposed slots skip
// fair-order re-validation (their reports were checked when first proposed
// and the prepared certificate pins them).

func (t *Themis) viewChangeHooks() core.ViewChangeHooks {
	return core.ViewChangeHooks{
		Vouch: func(m *core.ViewChangeMsg) {
			m.Committed = core.RetainedCommitted(t.env)
			for seq, proof := range t.preparedProof {
				if seq > m.Base {
					m.Carried = append(m.Carried, *proof)
				}
			}
		},
		Pick:   core.MostClaimed,
		Keep:   core.UpToBase,
		Accept: func(m *core.ProposeMsg) { t.acceptProposal(m, false) },
		Resume: t.refeed,
	}
}

// refeed runs once a new view is adopted: requests that were pinned to
// lost proposals become orderable again, and everything unexecuted is
// re-reported to the new leader (the old leader may have swallowed the
// original reports).
func (t *Themis) refeed() {
	t.reports = make(map[types.NodeID]*ReportMsg)
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
