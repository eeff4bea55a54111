// Package themis implements a Themis-style γ-order-fair protocol [113],
// design choice 13: a fair preordering phase in front of leader-based
// ordering. Clients broadcast requests to every replica; each replica
// reports its local receive order to the leader in signed ordered batches
// (flushed by timer τ6); the leader combines reports from n−f replicas
// into a *deterministic* fair order and proposes it together with the
// signed reports, so every backup can recompute and verify the order —
// the leader's only remaining freedom is which n−f reports to use, which
// is exactly the γ<1 slack the paper describes. Ordering then proceeds
// with PBFT-style prepare/commit rounds using the enlarged quorum 3f+1
// that n = 4f+1 replicas require.
//
// Substitution (DESIGN.md): real Themis builds a pairwise dependency
// graph and linearizes its condensation; we order by the median position
// of each request across the reports (ties broken by client id), which is
// deterministic, verifiable, and preserves the measured property — a pair
// ordered the same way by a γ fraction of replicas is almost never
// inverted — without the graph machinery.
package themis

import (
	"sort"

	"bftkit/internal/types"
)

// Timer names.
const (
	timerRound    = "round" // τ6: flush the local order report
	timerProgress = "progress"
	timerVCRetry  = "vc-retry"
)

// ReportMsg is one replica's local receive order (the preorder phase). A
// proposal carries the reports it was ordered from as its evidence.
type ReportMsg struct {
	Origin types.NodeID
	RSeq   uint64 // report sequence number, per origin
	Reqs   []*types.Request
	Sig    []byte
}

// Kind implements types.Message.
func (*ReportMsg) Kind() string { return "THEMIS-REPORT" }

// SigDigest is the signed content.
func (m *ReportMsg) SigDigest() types.Digest {
	var h types.Hasher
	h.Str("themis-report").U64(uint64(m.Origin)).U64(m.RSeq)
	for _, r := range m.Reqs {
		h.Digest(r.Digest())
	}
	return h.Sum()
}

// FairOrder computes the deterministic order of the union of reported
// requests: by median position across reports (requests absent from a
// report count as "last"), ties broken by (client, clientSeq). Exported
// so backups, tests, and the bftspace CLI share one definition.
func FairOrder(reports []*ReportMsg, skip func(types.RequestKey) bool) []*types.Request {
	type entry struct {
		req       *types.Request
		positions []int
	}
	entries := make(map[types.RequestKey]*entry)
	for _, rep := range reports {
		for pos, req := range rep.Reqs {
			key := req.Key()
			if skip != nil && skip(key) {
				continue
			}
			e := entries[key]
			if e == nil {
				e = &entry{req: req}
				entries[key] = e
			}
			e.positions = append(e.positions, pos)
		}
	}
	worst := 0
	for _, rep := range reports {
		if len(rep.Reqs) > worst {
			worst = len(rep.Reqs)
		}
	}
	type scored struct {
		req    *types.Request
		median float64
	}
	out := make([]scored, 0, len(entries))
	for _, e := range entries {
		// Pad with "last" for reports that missed the request.
		pos := append([]int(nil), e.positions...)
		for len(pos) < len(reports) {
			pos = append(pos, worst)
		}
		sort.Ints(pos)
		var median float64
		if n := len(pos); n%2 == 1 {
			median = float64(pos[n/2])
		} else {
			median = float64(pos[n/2-1]+pos[n/2]) / 2
		}
		out = append(out, scored{req: e.req, median: median})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].median != out[j].median {
			return out[i].median < out[j].median
		}
		if out[i].req.Client != out[j].req.Client {
			return out[i].req.Client < out[j].req.Client
		}
		return out[i].req.ClientSeq < out[j].req.ClientSeq
	})
	reqs := make([]*types.Request, len(out))
	for i, s := range out {
		reqs[i] = s.req
	}
	return reqs
}
