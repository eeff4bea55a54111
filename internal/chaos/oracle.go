package chaos

import (
	"bytes"
	"fmt"
	"time"

	"bftkit/internal/core"
	"bftkit/internal/types"
)

// Invariant names. Each violation carries one of these so the shrinker
// can preserve the failure class while mutating everything else.
const (
	// InvAgreement: two honest replicas committed or executed different
	// batches at the same sequence number (the SMR safety core, checked
	// at every commit/execute rather than at end of run).
	InvAgreement = "prefix-agreement"
	// InvResult: a client accepted a result that differs from what
	// honest replicas computed for that request, or two honest replicas
	// computed different results for the same request (P6).
	InvResult = "result-integrity"
	// InvDurability: a client-acked request never appeared in any honest
	// replica's committed execution — the ack was not backed by a
	// durable commit and a crash would lose it.
	InvDurability = "acked-durability"
	// InvZombie: the network delivered a message to a crashed replica or
	// across an active partition — a fault-injection model violation in
	// the simulator itself (this is the invariant that catches
	// duplicate-delivery/partition regressions in internal/sim).
	InvZombie = "zombie-delivery"
	// InvLiveness: an eventually-good schedule (faults healed, at most f
	// down, GST passed) failed to complete the workload within the
	// liveness bound.
	InvLiveness = "post-gst-liveness"
	// InvRuntime: a replica runtime detected a conflicting commit or
	// ledger corruption on its own.
	InvRuntime = "runtime-violation"
	// InvFalseAccusation: the forensics auditor produced a misbehavior
	// proof or a formal accusation on a schedule with zero Byzantine
	// assignments — crashes, partitions, and delay spikes alone framed
	// an honest replica. This is the accountability layer's soundness
	// invariant: every proof must trace to an actual misbehavior.
	InvFalseAccusation = "false-accusation"
	// InvRunaway: the schedule fired its whole event budget before the
	// workload and drain finished — an event storm that would otherwise
	// hold the run inside one virtual time slice forever.
	InvRunaway = "runaway"
)

// Violation is one invariant breach, timestamped on the virtual clock.
type Violation struct {
	Invariant string        `json:"invariant"`
	At        time.Duration `json:"at"`
	Detail    string        `json:"detail"`
}

func (v Violation) String() string {
	return fmt.Sprintf("[%s] t=%v %s", v.Invariant, v.At, v.Detail)
}

// maxViolations bounds the report; the first violation is the verdict,
// the rest are context.
const maxViolations = 16

type seqRecord struct {
	digest types.Digest
	by     types.NodeID
}

type keyRecord struct {
	result []byte
	by     types.NodeID
}

// Oracle checks the run's invariants continuously. It implements
// harness.Observer for protocol-level events plus OnDeliver, so the
// cluster's delivery tap feeds it every network delivery; the runner
// mirrors the fault state it injects, so the oracle knows which
// deliveries are legal. All state is single-threaded under the
// simulator.
type Oracle struct {
	f   int
	byz map[types.NodeID]bool
	now func() time.Duration
	// execless marks protocols with no ordered execution path (Q/U's
	// conflict-free objects): execution-based invariants are
	// unobservable there and are skipped.
	execless bool

	commitBySeq map[types.SeqNum]seqRecord
	execBySeq   map[types.SeqNum]seqRecord
	resultByKey map[types.RequestKey]keyRecord
	execdByKey  map[types.RequestKey]bool
	acked       map[types.RequestKey][]byte
	ackedAt     map[types.RequestKey]time.Duration

	// Fault-state mirror for the zombie-delivery check.
	crashed    map[types.NodeID]bool
	partition  map[types.NodeID]int
	partActive bool

	violations []Violation
}

// NewOracle builds an oracle for a schedule's configuration. now reads
// the virtual clock (wire it to the cluster's scheduler).
func NewOracle(cfg Config, now func() time.Duration) *Oracle {
	o := &Oracle{
		f:           cfg.F,
		byz:         make(map[types.NodeID]bool),
		now:         now,
		commitBySeq: make(map[types.SeqNum]seqRecord),
		execBySeq:   make(map[types.SeqNum]seqRecord),
		resultByKey: make(map[types.RequestKey]keyRecord),
		execdByKey:  make(map[types.RequestKey]bool),
		acked:       make(map[types.RequestKey][]byte),
		ackedAt:     make(map[types.RequestKey]time.Duration),
		crashed:     make(map[types.NodeID]bool),
		partition:   make(map[types.NodeID]int),
	}
	for _, b := range cfg.Byz {
		o.byz[b.Node] = true
	}
	if reg, ok := core.Lookup(cfg.Protocol); ok {
		o.execless = reg.Profile.HasAssumption(core.AssumeConflictFree)
	}
	return o
}

// Violations returns everything the oracle flagged, in detection order.
func (o *Oracle) Violations() []Violation { return o.violations }

func (o *Oracle) flag(invariant, format string, args ...any) {
	if len(o.violations) >= maxViolations {
		return
	}
	o.violations = append(o.violations, Violation{
		Invariant: invariant,
		At:        o.now(),
		Detail:    fmt.Sprintf(format, args...),
	})
}

func (o *Oracle) honest(id types.NodeID) bool { return !o.byz[id] }

// --- harness.Observer ---

// OnCommit checks commit-time agreement: every honest commit of seq s
// must carry the batch every other honest replica committed at s.
func (o *Oracle) OnCommit(id types.NodeID, v types.View, seq types.SeqNum, b *types.Batch, proof *types.CommitProof, at time.Duration) {
	if !o.honest(id) {
		return
	}
	d := b.Digest()
	if prev, ok := o.commitBySeq[seq]; ok {
		if prev.digest != d {
			o.flag(InvAgreement, "replicas %v and %v committed different batches at seq %d: %v vs %v",
				prev.by, id, seq, prev.digest, d)
		}
		return
	}
	o.commitBySeq[seq] = seqRecord{digest: d, by: id}
}

// OnExecute checks execution-time agreement and records, per request,
// the honest result (first writer wins; later honest executions must
// match) plus which requests have durably executed.
func (o *Oracle) OnExecute(id types.NodeID, seq types.SeqNum, b *types.Batch, results [][]byte, at time.Duration) {
	if !o.honest(id) {
		return
	}
	d := b.Digest()
	if prev, ok := o.execBySeq[seq]; ok {
		if prev.digest != d {
			o.flag(InvAgreement, "replicas %v and %v executed different batches at seq %d: %v vs %v",
				prev.by, id, seq, prev.digest, d)
		}
	} else {
		o.execBySeq[seq] = seqRecord{digest: d, by: id}
	}
	for i, req := range b.Requests {
		if i >= len(results) {
			break
		}
		res := results[i]
		if bytes.Equal(res, core.DuplicateResult) {
			continue // a re-proposed request; its first execution counted
		}
		key := req.Key()
		o.execdByKey[key] = true
		if prev, ok := o.resultByKey[key]; ok {
			if !bytes.Equal(prev.result, res) {
				o.flag(InvResult, "replicas %v and %v computed different results for %v: %q vs %q",
					prev.by, id, key, prev.result, res)
			}
		} else {
			o.resultByKey[key] = keyRecord{result: append([]byte(nil), res...), by: id}
			// An ack of DuplicateResult is the degraded-but-legal case: a
			// lost reply made the client retransmit, and replicas answer a
			// re-execution attempt with the duplicate marker.
			if ackRes, ok := o.acked[key]; ok && !bytes.Equal(ackRes, res) && !bytes.Equal(ackRes, core.DuplicateResult) {
				o.flag(InvResult, "client-accepted result for %v differs from honest execution: acked %q, executed %q",
					key, ackRes, res)
			}
		}
	}
}

// OnViewChange implements harness.Observer (view changes are legal;
// nothing to check).
func (o *Oracle) OnViewChange(id types.NodeID, v types.View, at time.Duration) {}

// OnViolation surfaces runtime-detected safety violations immediately.
func (o *Oracle) OnViolation(id types.NodeID, err error) {
	o.flag(InvRuntime, "replica %v: %v", id, err)
}

// OnDone checks every client ack against the honest execution results
// known so far; acks that precede execution (speculative paths) are
// re-checked when the execution lands and again at finalize.
func (o *Oracle) OnDone(client types.NodeID, req *types.Request, result []byte, at time.Duration) {
	key := req.Key()
	o.acked[key] = append([]byte(nil), result...)
	o.ackedAt[key] = at
	if o.execless {
		return
	}
	if bytes.Equal(result, core.DuplicateResult) {
		return // retransmission answered by the duplicate marker; legal
	}
	if rec, ok := o.resultByKey[key]; ok && !bytes.Equal(rec.result, result) {
		o.flag(InvResult, "client accepted result for %v that differs from honest execution: acked %q, executed %q (by %v)",
			key, result, rec.result, rec.by)
	}
}

// --- fault-state mirror (fed by the runner) + delivery check ---

// Crash mirrors a network-level crash injection.
func (o *Oracle) Crash(id types.NodeID) { o.crashed[id] = true }

// Restart mirrors a restart injection.
func (o *Oracle) Restart(id types.NodeID) { delete(o.crashed, id) }

// Partition mirrors a partition injection (group vs the rest).
func (o *Oracle) Partition(group []types.NodeID) {
	o.partition = make(map[types.NodeID]int)
	for _, id := range group {
		o.partition[id] = 1
	}
	o.partActive = true
}

// Heal mirrors a heal injection.
func (o *Oracle) Heal() {
	o.partition = make(map[types.NodeID]int)
	o.partActive = false
}

// OnDeliver checks one network delivery against the mirrored fault
// state: a crashed replica receives nothing, and no message crosses an
// active partition. This invariant pins the simulator's fault model —
// the tap sits after internal/sim's own crash/partition filter, so a
// regression in that delivery path (e.g. duplicates that ignore
// partitions) trips it even when no protocol-level invariant breaks.
func (o *Oracle) OnDeliver(_ time.Duration, from, to types.NodeID, _ types.Message) {
	if o.crashed[to] {
		o.flag(InvZombie, "delivery from %v to crashed replica %v", from, to)
		return
	}
	if o.partActive && o.partition[from] != o.partition[to] {
		o.flag(InvZombie, "delivery from %v to %v crosses the active partition", from, to)
	}
}

// --- finalize ---

// Finalize runs the end-of-run obligations: durability of every acked
// request, and liveness within the bound for eventually-good schedules.
func (o *Oracle) Finalize(completed, expected int, eventuallyGood bool, deadline time.Duration) {
	if !o.execless {
		// Report at most a few missing keys; one is enough to fail.
		missing := 0
		for key := range o.acked {
			if !o.execdByKey[key] {
				if missing < 3 {
					o.flag(InvDurability, "request %v was acked to its client at t=%v but never executed by any honest replica",
						key, o.ackedAt[key])
				}
				missing++
			}
		}
	}
	if eventuallyGood && completed < expected {
		o.flag(InvLiveness, "eventually-good schedule completed %d of %d requests by t=%v",
			completed, expected, deadline)
	}
}
