package harness

import (
	"fmt"
	"math"
	"sort"
	"time"

	"bftkit/internal/obsv"
	"bftkit/internal/types"
)

// ExecRecord is one executed request in one replica's history, in
// execution order. The safety auditor compares these across replicas.
type ExecRecord struct {
	Seq    types.SeqNum
	Digest types.Digest
}

// Metrics collects everything the experiments report. It is an Observer
// — the first one of every simulated deployment — plus onSubmit, which
// Cluster.Submit calls; on the simulator all callbacks are
// single-threaded.
type Metrics struct {
	// Client-side. Completed counts every finished request including
	// warmup; Measured counts only those inside the measured window
	// [MeasureFrom, ∞) and is the numerator Throughput uses. Latencies
	// holds one sample per Measured request with a known submit time.
	Submitted   int
	Completed   int
	Measured    int
	submitTimes map[types.RequestKey]time.Duration
	Latencies   []time.Duration
	// DoneOrder records request completion order (warmup included) for
	// fairness analysis.
	DoneOrder []types.RequestKey

	// Replica-side.
	execOrder   map[types.NodeID][]ExecRecord
	ExecCount   map[types.NodeID]int
	CommitCount map[types.NodeID]int
	// FirstCommit records when each (seq) first committed anywhere —
	// used for commit-latency measurements independent of clients.
	FirstCommit map[types.SeqNum]time.Duration
	// CommitOrder records, from replica 0's execution stream, the
	// global order requests were sequenced in (fairness ground truth).
	CommitOrder []types.RequestKey
	arrival     map[types.RequestKey]int64

	ViewChanges map[types.NodeID][]types.View
	Violations  []error

	// MeasureFrom gates throughput/latency collection so warmup can be
	// excluded; zero collects from the start. Requests completing before
	// MeasureFrom still count in Completed/DoneOrder but never in
	// Measured/Latencies.
	MeasureFrom time.Duration

	// Trace, when set, receives commit-latency samples (microseconds)
	// for its histogram as requests complete.
	Trace *obsv.Tracer
}

// NewMetrics returns an empty collector.
func NewMetrics() *Metrics {
	return &Metrics{
		submitTimes: make(map[types.RequestKey]time.Duration),
		execOrder:   make(map[types.NodeID][]ExecRecord),
		ExecCount:   make(map[types.NodeID]int),
		CommitCount: make(map[types.NodeID]int),
		FirstCommit: make(map[types.SeqNum]time.Duration),
		arrival:     make(map[types.RequestKey]int64),
		ViewChanges: make(map[types.NodeID][]types.View),
	}
}

func (m *Metrics) onSubmit(req *types.Request, at time.Duration) {
	m.Submitted++
	m.submitTimes[req.Key()] = at
	m.arrival[req.Key()] = req.ArrivalHint
	m.Trace.Submit(at, req.Client, req.Key())
}

func (m *Metrics) OnDone(id types.NodeID, req *types.Request, result []byte, at time.Duration) {
	m.Completed++
	m.DoneOrder = append(m.DoneOrder, req.Key())
	m.Trace.Done(at, id, req.Key())
	if at < m.MeasureFrom {
		return // warmup: visible in Completed, excluded from the window
	}
	m.Measured++
	if t0, ok := m.submitTimes[req.Key()]; ok {
		lat := at - t0
		m.Latencies = append(m.Latencies, lat)
		m.Trace.ObserveCommitLatency(lat)
	}
}

func (m *Metrics) OnCommit(id types.NodeID, v types.View, seq types.SeqNum, b *types.Batch, proof *types.CommitProof, at time.Duration) {
	m.CommitCount[id]++
	if _, ok := m.FirstCommit[seq]; !ok {
		m.FirstCommit[seq] = at
	}
}

func (m *Metrics) OnExecute(id types.NodeID, seq types.SeqNum, b *types.Batch, results [][]byte, at time.Duration) {
	m.ExecCount[id]++
	m.execOrder[id] = append(m.execOrder[id], ExecRecord{Seq: seq, Digest: b.Digest()})
	if id == 0 {
		for _, r := range b.Requests {
			m.CommitOrder = append(m.CommitOrder, r.Key())
		}
	}
}

func (m *Metrics) OnViewChange(id types.NodeID, v types.View, at time.Duration) {
	m.ViewChanges[id] = append(m.ViewChanges[id], v)
}

func (m *Metrics) OnViolation(id types.NodeID, err error) {
	m.Violations = append(m.Violations, fmt.Errorf("replica %v: %w", id, err))
}

// ExecOrder returns one replica's execution history.
func (m *Metrics) ExecOrder(id types.NodeID) []ExecRecord { return m.execOrder[id] }

// AuditSafety checks the fundamental SMR invariant: no two honest
// replicas executed different batches at the same sequence number, and no
// runtime-level violation (conflicting commit) was recorded. Comparison
// is by sequence number, not by position: a replica that skipped slots
// via checkpoint state transfer has gaps in its executed positions but
// must still agree on every slot it did execute. honest selects the
// replicas to audit.
func (m *Metrics) AuditSafety(honest func(types.NodeID) bool) error {
	if len(m.Violations) > 0 {
		return m.Violations[0]
	}
	bySeq := make(map[types.SeqNum]types.Digest)
	attributed := make(map[types.SeqNum]types.NodeID)
	ids := make([]types.NodeID, 0, len(m.execOrder))
	for id := range m.execOrder {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		if !honest(id) {
			continue
		}
		for _, rec := range m.execOrder[id] {
			if prev, ok := bySeq[rec.Seq]; ok {
				if prev != rec.Digest {
					return fmt.Errorf("safety: replicas %v and %v executed different batches at seq %d: %v vs %v",
						attributed[rec.Seq], id, rec.Seq, prev, rec.Digest)
				}
				continue
			}
			bySeq[rec.Seq] = rec.Digest
			attributed[rec.Seq] = id
		}
	}
	return nil
}

// Throughput returns requests completed inside the measured window
// [MeasureFrom, until] per second of virtual time. The numerator is
// Measured, not Completed, so warmup completions neither inflate the
// rate nor dilute it when the window excludes them.
func (m *Metrics) Throughput(until time.Duration) float64 {
	window := until - m.MeasureFrom
	if window <= 0 {
		return 0
	}
	return float64(m.Measured) / window.Seconds()
}

// LatencyPercentile returns the p-th percentile (0..100) of completed
// request latencies by the nearest-rank method: the sample at rank
// ⌈p/100·n⌉. Over 100 samples p50 is the 50th and p99 the 99th —
// truncating a fractional index instead (as a naive int cast does)
// biases every percentile downward.
func (m *Metrics) LatencyPercentile(p float64) time.Duration {
	if len(m.Latencies) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), m.Latencies...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// MeanLatency returns the average completed request latency.
func (m *Metrics) MeanLatency() time.Duration {
	if len(m.Latencies) == 0 {
		return 0
	}
	var sum time.Duration
	for _, l := range m.Latencies {
		sum += l
	}
	return sum / time.Duration(len(m.Latencies))
}

// FairnessViolations counts ordered pairs (a, b) where a was submitted
// before b (by ground-truth arrival hints, with a margin) yet committed
// after b. The margin excludes near-simultaneous submissions the
// fairness definition does not constrain.
//
// Counting is O(n log n): keys sorted by arrival are swept with a window
// pointer that admits, for each b, exactly the a's submitted at least
// margin earlier; admitted commit positions live in a Fenwick tree, so
// "how many admitted a committed before b" is one prefix query, and the
// violations are the remainder — an inversion count restricted to the
// margin window. Fairness experiments run this over tens of thousands of
// requests, where the previous all-pairs loop was quadratic.
func (m *Metrics) FairnessViolations(margin time.Duration) (violations, pairs int) {
	pos := make(map[types.RequestKey]int, len(m.CommitOrder))
	for i, k := range m.CommitOrder {
		pos[k] = i
	}
	keys := make([]types.RequestKey, 0, len(pos))
	for k := range pos {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if ai, aj := m.arrival[keys[i]], m.arrival[keys[j]]; ai != aj {
			return ai < aj
		}
		// Tie-break simultaneous arrivals by identity so the count is
		// deterministic (map iteration order must not leak in).
		if keys[i].Client != keys[j].Client {
			return keys[i].Client < keys[j].Client
		}
		return keys[i].ClientSeq < keys[j].ClientSeq
	})

	// Compress commit positions to ranks 1..n for the Fenwick tree.
	byPos := append([]types.RequestKey(nil), keys...)
	sort.Slice(byPos, func(i, j int) bool { return pos[byPos[i]] < pos[byPos[j]] })
	rank := make(map[types.RequestKey]int, len(byPos))
	for i, k := range byPos {
		rank[k] = i + 1
	}

	bit := make([]int, len(keys)+1)
	add := func(i int) {
		for ; i <= len(keys); i += i & -i {
			bit[i]++
		}
	}
	query := func(i int) (c int) { // admitted keys with rank <= i
		for ; i > 0; i -= i & -i {
			c += bit[i]
		}
		return c
	}

	w, admitted := 0, 0
	for j := 0; j < len(keys); j++ {
		for w < j && m.arrival[keys[j]]-m.arrival[keys[w]] >= int64(margin) {
			add(rank[keys[w]])
			admitted++
			w++
		}
		pairs += admitted
		// keys[j] itself is never admitted (w < j), so ranks ≤ rank[j]
		// are exactly the earlier submissions that also committed earlier.
		violations += admitted - query(rank[keys[j]])
	}
	return violations, pairs
}
