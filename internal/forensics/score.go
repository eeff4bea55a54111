package forensics

// Suspicion scoring: withholding and delaying leave no signature
// evidence (an omission is not attributable — the replica can always
// claim the network ate its messages), so the auditor grades them
// statistically against honest-peer baselines. The design constraint is
// the false-accusation guard: a crash, a partition, or a delay spike
// hits a replica in a bounded *time window*, while a Byzantine
// withholder or delayer misbehaves for the whole run. Scores are
// therefore fractions of run octiles in which the replica looked bad,
// and the accusation threshold (default 6 of 8 octiles) is out of reach
// for windowed faults. Known-administrative downtime (the chaos
// runner's own crash schedule) is excused outright; everything else
// must be absorbed by the octile structure.
//
// Lateness makes a replica suspected, never accused: a permanent few
// milliseconds of extra link delay on an honest replica looks exactly
// like a Byzantine delayer, and lateness within the protocols' timeouts
// fires no timer that could tell them apart. Only proofs and withholding
// accuse.

import (
	"sort"
	"time"

	"bftkit/internal/types"
)

// Score is one replica's suspicion summary.
type Score struct {
	Node types.NodeID `json:"node"`
	// Withhold is the fraction of active run octiles in which the
	// replica's delivered-message count fell below a quarter of the
	// peer median. 1.0 = silent (or vote-silent) all run.
	Withhold float64 `json:"withhold"`
	// Delay is the fraction of measurable run octiles in which the
	// replica's median delivery lag behind its peers' broadcast of the
	// same slot exceeded the adaptive lag floor.
	Delay float64 `json:"delay"`
	// Suspicion is the larger of Withhold and Delay.
	Suspicion float64 `json:"suspicion"`
	// Accused marks a proof conviction, or Withhold >= the accusation
	// threshold over enough evidence.
	Accused bool `json:"accused"`
	// Note explains the verdict in one phrase.
	Note string `json:"note,omitempty"`
}

// minBucketMsgs is the peer-median delivered-message count below which
// an octile carries no withholding signal (nothing much was happening).
const minBucketMsgs = 5

// minLagSamples is the per-octile lag-sample count below which an
// octile carries no delay signal for a replica.
const minLagSamples = 4

// minConsidered is the least number of evidence-bearing octiles a
// formal accusation may rest on.
const minConsidered = 4

// scores computes every replica's Score over [start, end]. Caller holds
// a.mu.
func (a *Auditor) scores(end time.Duration) []Score {
	start := a.start
	if end <= start {
		end = start + 1
	}
	span := end - start
	octile := func(at time.Duration) int {
		o := int((at - start) * scoreBuckets / span)
		if o < 0 {
			o = 0
		}
		if o >= scoreBuckets {
			o = scoreBuckets - 1
		}
		return o
	}
	excused := func(node types.NodeID, o int) bool {
		bFrom := start + span*time.Duration(o)/scoreBuckets
		bTo := start + span*time.Duration(o+1)/scoreBuckets
		for _, w := range a.downtime {
			if w.node == node && w.from < bTo && w.to > bFrom {
				return true
			}
		}
		return false
	}

	// Per-octile delivered-message counts, resampled from the raw bins.
	traffic := make([][]int, a.opt.N) // [node][octile]
	for i := range traffic {
		traffic[i] = make([]int, scoreBuckets)
		for bin, n := range a.sentBins[types.NodeID(i)] {
			traffic[i][octile(time.Duration(bin)*binWidth)] += n
		}
	}

	// Per-octile lag samples per node, plus the global absolute-lag
	// pool the adaptive floor derives from.
	lagSamples := make([][][]time.Duration, a.opt.N) // [node][octile][]lag
	for i := range lagSamples {
		lagSamples[i] = make([][]time.Duration, scoreBuckets)
	}
	var absPool []time.Duration
	for _, k := range a.lagOrder {
		g := a.lags[k]
		if g == nil || len(g.first) < 3 {
			continue
		}
		times := make([]time.Duration, 0, len(g.first))
		for _, t := range g.first {
			times = append(times, t)
		}
		sort.Slice(times, func(x, y int) bool { return times[x] < times[y] })
		med := times[len(times)/2]
		o := octile(med)
		for node, t := range g.first {
			if int(node) >= a.opt.N {
				continue
			}
			lag := t - med
			lagSamples[node][o] = append(lagSamples[node][o], lag)
			if lag >= 0 {
				absPool = append(absPool, lag)
			} else {
				absPool = append(absPool, -lag)
			}
		}
	}
	lagFloor := a.opt.LagFloor
	if len(absPool) > 0 {
		sort.Slice(absPool, func(x, y int) bool { return absPool[x] < absPool[y] })
		if adaptive := 4 * absPool[len(absPool)/2]; adaptive > lagFloor {
			lagFloor = adaptive
		}
	}

	convicted := make(map[types.NodeID]bool)
	for _, p := range a.proofs {
		convicted[p.Culprit] = true
	}

	local := func(id types.NodeID) bool {
		return a.opt.LocalNode != nil && *a.opt.LocalNode == id
	}

	out := make([]Score, a.opt.N)
	for i := 0; i < a.opt.N; i++ {
		node := types.NodeID(i)
		s := Score{Node: node}
		if local(node) {
			// The auditor's host: its own sends never reach this
			// vantage's inbound stream, so silence here is an artifact,
			// not evidence.
			s.Note = "local vantage: own traffic unobservable"
			if convicted[node] {
				s.Accused = true
				s.Note = "convicted by proof"
			}
			out[i] = s
			continue
		}

		// Withholding: compare each octile's traffic to the peer median.
		wConsidered, wSuspicious := 0, 0
		for o := 0; o < scoreBuckets; o++ {
			counts := make([]int, 0, a.opt.N)
			for j := 0; j < a.opt.N; j++ {
				if local(types.NodeID(j)) {
					continue // a phantom zero would drag the median down
				}
				counts = append(counts, traffic[j][o])
			}
			sort.Ints(counts)
			med := counts[len(counts)/2]
			if med < minBucketMsgs || excused(node, o) {
				continue
			}
			wConsidered++
			if traffic[i][o]*4 < med {
				wSuspicious++
			}
		}
		if wConsidered > 0 {
			s.Withhold = float64(wSuspicious) / float64(wConsidered)
		}

		// Delay: median lag per octile against the adaptive floor.
		dConsidered, dLate := 0, 0
		for o := 0; o < scoreBuckets; o++ {
			samples := lagSamples[i][o]
			if len(samples) < minLagSamples || excused(node, o) {
				continue
			}
			sort.Slice(samples, func(x, y int) bool { return samples[x] < samples[y] })
			dConsidered++
			if samples[len(samples)/2] > lagFloor {
				dLate++
			}
		}
		if dConsidered > 0 {
			s.Delay = float64(dLate) / float64(dConsidered)
		}

		s.Suspicion = max(s.Withhold, s.Delay)
		silent := s.Withhold >= a.opt.AccuseThreshold && wConsidered >= minConsidered
		late := s.Delay >= a.opt.AccuseThreshold && dConsidered >= minConsidered
		switch {
		case convicted[node]:
			s.Accused = true
			s.Note = "convicted by proof"
		case silent && !a.opt.AsymmetricRoles:
			s.Accused = true
			s.Note = "persistently silent versus peer baseline"
		case silent && a.opt.AsymmetricRoles:
			// Under asymmetric replica roles a silent replica may
			// simply be benched or starved.
			s.Note = "silent, but replica roles are asymmetric — possibly benched or starved"
		case late:
			s.Note = "persistently late versus peer baseline — lateness is not attributable"
		}
		out[i] = s
	}
	return out
}
