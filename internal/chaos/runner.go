package chaos

import (
	"fmt"
	"time"

	"bftkit/internal/byz"
	"bftkit/internal/core"
	"bftkit/internal/forensics"
	"bftkit/internal/harness"
	"bftkit/internal/kvstore"
	"bftkit/internal/obsv"
	"bftkit/internal/types"
)

// Grace is how much virtual time past Quiet() an eventually-good
// schedule gets to finish its workload before the liveness invariant
// fires. It is deliberately loose — tens of view-change rounds at LAN
// timeouts — because the oracle must never flag a slow-but-correct run.
const Grace = 30 * time.Second

// runStep is the slice the runner advances virtual time by between
// completion checks. Protocols with periodic timers (heartbeats) never
// drain the event queue, so the run loop slices instead of RunUntilIdle.
const runStep = 250 * time.Millisecond

// eventBudget caps the events one schedule may fire. It sits far above
// what any case of fuzz seeds 1–6 × 256 uses; a schedule that spends it
// is an event storm and fails as InvRunaway instead of hanging the
// campaign.
const eventBudget = 1_000_000

// drainTime is the extra virtual time after the workload completes (or
// the deadline passes) in which late commits and executions may still
// land before the oracle's final durability check.
const drainTime = 2 * time.Second

// Report is the outcome of running one schedule.
type Report struct {
	Schedule  Schedule      `json:"schedule"`
	Completed int           `json:"completed"`
	Expected  int           `json:"expected"`
	EndTime   time.Duration `json:"end_time"`
	// Msgs and Bytes total the ordering-phase traffic (obsv accounting);
	// two runs of the same schedule must agree on them exactly, which is
	// what the determinism test pins.
	Msgs       int64       `json:"msgs"`
	Bytes      int64       `json:"bytes"`
	Violations []Violation `json:"violations,omitempty"`
	// Forensics is the accountability auditor's verdict over the run:
	// misbehavior proofs, suspicion scores, accusations. On schedules
	// with zero Byzantine assignments it must be Clean — the runner
	// flags InvFalseAccusation otherwise.
	Forensics *forensics.Report `json:"forensics,omitempty"`
}

// Failed reports whether any invariant was violated.
func (r *Report) Failed() bool { return len(r.Violations) > 0 }

// First returns the first violation, the run's verdict.
func (r *Report) First() *Violation {
	if len(r.Violations) == 0 {
		return nil
	}
	return &r.Violations[0]
}

// InvariantSet returns the set of violated invariant names; the
// shrinker uses it to demand the same failure class from a candidate.
func (r *Report) InvariantSet() map[string]bool {
	set := make(map[string]bool, len(r.Violations))
	for _, v := range r.Violations {
		set[v.Invariant] = true
	}
	return set
}

// Run executes one schedule on the deterministic simulator and checks
// the invariant oracle throughout. The schedule must Validate.
func Run(s Schedule) *Report {
	r, _ := RunRecorded(s)
	return r
}

// RunRecorded is Run with a flight recorder: the returned tracer holds a
// bounded ring of the run's most recent trace events (sends, delivers,
// commits, client submit/done), from which span.Build reconstructs the
// causal timeline of a failing schedule. The tracer stays out of the
// Report so two runs of the same schedule still compare equal.
func RunRecorded(s Schedule) (*Report, *obsv.Tracer) {
	if err := s.Validate(); err != nil {
		panic("chaos: Run on invalid schedule: " + err.Error())
	}
	cfg := s.Config

	byzm := make(map[types.NodeID]byz.Behavior, len(cfg.Byz))
	for _, a := range cfg.Byz {
		b, err := byz.Parse(a.Spec)
		if err != nil {
			panic("chaos: validated spec failed to parse: " + err.Error())
		}
		byzm[a.Node] = b
	}

	// The oracle reads the cluster's clock, and the cluster wants its
	// observers at construction: close the clock over the variable.
	var c *harness.Cluster
	oracle := NewOracle(cfg, func() time.Duration { return c.Sched.Now() })
	tracer := obsv.New(obsv.Options{
		Label: cfg.Protocol,
		// Flight-recorder capture: keep the most recent events in a ring
		// so the failure tail is always present at bounded memory.
		Events:    true,
		Ring:      true,
		MaxEvents: 1 << 15,
	})
	c = harness.NewCluster(harness.Options{
		Protocol:  cfg.Protocol,
		N:         cfg.N,
		F:         cfg.F,
		Clients:   cfg.Clients,
		Net:       cfg.Net,
		Seed:      cfg.Seed,
		Byzantine: byzm,
		Trace:     tracer,
		Forensics: &forensics.Options{},
		// Commit every slot: speculative protocols keep lazy commit
		// tails open for a whole checkpoint window, which would make
		// acked-durability unobservable on short chaos workloads.
		Tune: func(cc *core.Config) { cc.CheckpointInterval = 1 },
		// The oracle also sees every network delivery with its endpoints
		// (OnDeliver, on the cluster's delivery tap).
		Observers: []harness.Observer{oracle},
	})

	// The schedule's crash timeline is administratively known downtime:
	// the auditor must not read an injected crash as withholding. Pair
	// each crash with its restart, or with the run horizon when the
	// node stays down.
	crashAt := make(map[types.NodeID]time.Duration)
	for _, ev := range s.Events {
		switch ev.Kind {
		case EvCrash:
			if _, down := crashAt[ev.Node]; !down {
				crashAt[ev.Node] = ev.At
			}
		case EvRestart:
			if from, down := crashAt[ev.Node]; down {
				c.Forensics.ExcuseDowntime(ev.Node, from, ev.At)
				delete(crashAt, ev.Node)
			}
		}
	}
	for node, from := range crashAt {
		c.Forensics.ExcuseDowntime(node, from, s.Quiet()+Grace+drainTime)
	}

	// Closed-loop workload with pause/resume churn, driven manually so
	// client pauses hold back the next submission rather than the
	// in-flight one.
	expected := cfg.Clients * cfg.Requests
	issued := make([]int, cfg.Clients)
	paused := make([]bool, cfg.Clients)
	inflight := make([]bool, cfg.Clients)
	completed := 0
	op := func(client, k int) []byte {
		return kvstore.Put(fmt.Sprintf("chaos-c%d-k%d", client, k), []byte(fmt.Sprintf("v%d", k)))
	}
	submitNext := func(i int) {
		if inflight[i] || paused[i] || issued[i] >= cfg.Requests {
			return
		}
		issued[i]++
		inflight[i] = true
		c.Submit(i, op(i, issued[i]))
	}
	c.DoneHook = func(id types.NodeID, req *types.Request, result []byte, at time.Duration) {
		i := int(id - types.ClientIDBase)
		inflight[i] = false
		completed++
		submitNext(i)
	}

	// Schedule the fault timeline. Events mutate both the network and
	// the oracle's mirror in the same scheduler callback, so the probe
	// never observes a half-applied fault.
	for _, ev := range s.Events {
		ev := ev
		c.Sched.At(ev.At, func() {
			switch ev.Kind {
			case EvCrash:
				c.CrashNet(ev.Node)
				oracle.Crash(ev.Node)
			case EvRestart:
				c.Restart(ev.Node)
				oracle.Restart(ev.Node)
			case EvPartition:
				c.Net.Partition(ev.Group)
				oracle.Partition(ev.Group)
			case EvHeal:
				c.Net.Heal()
				oracle.Heal()
			case EvDelaySpike:
				for j := 0; j < cfg.N; j++ {
					other := types.NodeID(j)
					if other == ev.Node {
						continue
					}
					c.Net.SetLinkDelay(ev.Node, other, ev.Dur)
					c.Net.SetLinkDelay(other, ev.Node, ev.Dur)
				}
			case EvDelayClear:
				for j := 0; j < cfg.N; j++ {
					other := types.NodeID(j)
					if other == ev.Node {
						continue
					}
					c.Net.ClearLinkDelay(ev.Node, other)
					c.Net.ClearLinkDelay(other, ev.Node)
				}
			case EvClientPause:
				paused[ev.Node] = true
			case EvClientResume:
				paused[ev.Node] = false
				submitNext(int(ev.Node))
			}
		})
	}

	c.Start()
	for i := 0; i < cfg.Clients; i++ {
		submitNext(i)
	}

	// Advance in slices, never firing more than the schedule's event
	// budget: a storm that never leaves one slice still ends the case.
	left := eventBudget
	advance := func(d time.Duration) bool {
		left -= c.Sched.RunLimit(c.Sched.Now()+d, left)
		return left > 0
	}
	deadline := s.Quiet() + Grace
	finished := true
	for finished && completed < expected && c.Sched.Now() < deadline {
		finished = advance(runStep)
	}
	finished = finished && advance(drainTime)

	// Finalize's liveness and durability verdicts need a finished run; a
	// runaway one gets the runaway verdict instead.
	if finished {
		oracle.Finalize(completed, expected, s.EventuallyGood(), deadline)
	}
	violations := oracle.Violations()
	if !finished && len(violations) < maxViolations {
		violations = append(violations, Violation{
			Invariant: InvRunaway,
			At:        c.Sched.Now(),
			Detail:    fmt.Sprintf("schedule fired its whole budget of %d events (%d of %d requests completed)", eventBudget, completed, expected),
		})
	}
	// The end-of-run audit is redundant with the continuous checks but
	// cheap; a discrepancy would mean the oracle itself missed something.
	if err := c.Audit(); err != nil && len(violations) < maxViolations {
		violations = append(violations, Violation{
			Invariant: InvAgreement,
			At:        c.Sched.Now(),
			Detail:    "end-of-run audit: " + err.Error(),
		})
	}

	// The accountability soundness check: with no Byzantine assignment
	// in the schedule, every proof and every accusation is a framing of
	// an honest replica.
	frep := c.Forensics.Report(c.Sched.Now())
	if len(cfg.Byz) == 0 && !frep.Clean() && len(violations) < maxViolations {
		detail := fmt.Sprintf("zero-byz schedule produced %d proofs, accused %v", len(frep.Proofs), frep.Accused)
		if len(frep.Proofs) > 0 {
			detail += ": " + frep.Proofs[0].String()
		}
		violations = append(violations, Violation{
			Invariant: InvFalseAccusation,
			At:        c.Sched.Now(),
			Detail:    detail,
		})
	}

	msgs, bytes := tracer.OrderingTotals()
	return &Report{
		Schedule:   s,
		Completed:  completed,
		Expected:   expected,
		EndTime:    c.Sched.Now(),
		Msgs:       msgs,
		Bytes:      bytes,
		Violations: violations,
		Forensics:  frep,
	}, tracer
}
