package core

import (
	"errors"
	"fmt"
	"strings"

	"bftkit/internal/crypto"
)

// This file models §2.2 of the paper: the design space of partially
// synchronous BFT SMR protocols. A Profile is one point in that space; it
// captures the protocol-structure dimensions (P1–P6), environmental
// settings (E1–E4), and QoS features (Q1–Q2). The design choices of §2.3
// (choices.go) are functions between Profiles.

// Strategy is dimension P1: how the protocol commits transactions.
type Strategy int

// Commitment strategies.
const (
	Pessimistic Strategy = iota // no optimistic assumptions; replicas always agree first
	Optimistic                  // assumes some of a1–a6; may need a fallback
	Robust                      // hardened against a strong adversary (Prime, Aardvark)
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	return [...]string{"pessimistic", "optimistic", "robust"}[s]
}

// Assumption enumerates the optimistic assumptions a1–a6 of P1.
type Assumption int

// Optimistic assumptions (paper's a1–a6).
const (
	AssumeHonestLeader   Assumption = iota + 1 // a1: leader is non-faulty (Zyzzyva)
	AssumeHonestBackups                        // a2: backups are non-faulty (CheapBFT)
	AssumeHonestInterior                       // a3: non-leaf tree replicas non-faulty (Kauri)
	AssumeConflictFree                         // a4: concurrent requests touch disjoint data (Q/U)
	AssumeHonestClients                        // a5: clients are honest (Quorum)
	AssumeSynchrony                            // a6: network synchronous in a window (Tendermint)
)

// String implements fmt.Stringer.
func (a Assumption) String() string {
	switch a {
	case AssumeHonestLeader:
		return "a1:honest-leader"
	case AssumeHonestBackups:
		return "a2:honest-backups"
	case AssumeHonestInterior:
		return "a3:honest-interior"
	case AssumeConflictFree:
		return "a4:conflict-free"
	case AssumeHonestClients:
		return "a5:honest-clients"
	case AssumeSynchrony:
		return "a6:synchrony"
	}
	return fmt.Sprintf("a?(%d)", int(a))
}

// LeaderPolicy is dimension P3: how the leader is replaced.
type LeaderPolicy int

// Leader policies.
const (
	StableLeader   LeaderPolicy = iota // replaced only on suspicion (PBFT)
	RotatingLeader                     // replaced periodically (HotStuff, Tendermint)
)

// String implements fmt.Stringer.
func (p LeaderPolicy) String() string {
	return [...]string{"stable", "rotating"}[p]
}

// Topology is dimension E2: the communication pattern of ordering phases.
type Topology int

// Communication topologies.
const (
	Star   Topology = iota // leader/collector ↔ all: O(n) per phase
	Clique                 // all-to-all: O(n²) per phase
	Tree                   // leader at root, h levels: O(n) msgs, O(b) per-node load
	Chain                  // pipeline: O(n) msgs, O(1) per-node load per slot
)

// String implements fmt.Stringer.
func (t Topology) String() string {
	return [...]string{"star", "clique", "tree", "chain"}[t]
}

// Recovery is dimension P5.
type Recovery int

// Recovery mechanisms.
const (
	RecoveryNone Recovery = iota
	RecoveryReactive
	RecoveryProactive
	RecoveryHybrid
)

// String implements fmt.Stringer.
func (r Recovery) String() string {
	return [...]string{"none", "reactive", "proactive", "hybrid"}[r]
}

// ClientRole is dimension P6, a bitmask (a protocol can use several).
type ClientRole uint8

// Client roles.
const (
	RoleRequester ClientRole = 1 << iota
	RoleProposer
	RoleRepairer
)

// String implements fmt.Stringer.
func (c ClientRole) String() string {
	var parts []string
	if c&RoleRequester != 0 {
		parts = append(parts, "requester")
	}
	if c&RoleProposer != 0 {
		parts = append(parts, "proposer")
	}
	if c&RoleRepairer != 0 {
		parts = append(parts, "repairer")
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, "+")
}

// Timer enumerates the paper's timers τ1–τ8 (dimension E4).
type Timer int

// Protocol timers.
const (
	TimerReply       Timer = iota + 1 // τ1: waiting for replies (Zyzzyva)
	TimerViewChange                   // τ2: triggering view change (PBFT)
	TimerBackupFault                  // τ3: detecting backup failures (SBFT)
	TimerQuorum                       // τ4: quorum construction (Tendermint prevote/precommit)
	TimerViewSync                     // τ5: view synchronization (Tendermint)
	TimerRound                        // τ6: finishing a preordering round (Themis)
	TimerHeartbeat                    // τ7: performance check (Aardvark)
	TimerWatchdog                     // τ8: atomic recovery watchdog (PBFT-PR)
)

// String implements fmt.Stringer.
func (t Timer) String() string {
	names := [...]string{"", "τ1:reply", "τ2:view-change", "τ3:backup-fault",
		"τ4:quorum", "τ5:view-sync", "τ6:round", "τ7:heartbeat", "τ8:watchdog"}
	if int(t) < len(names) {
		return names[t]
	}
	return fmt.Sprintf("τ?(%d)", int(t))
}

// Fairness is dimension Q1.
type Fairness int

// Order-fairness levels.
const (
	FairnessNone    Fairness = iota
	FairnessPartial          // monitoring/preordering without a quantified bound (Prime, Aardvark)
	FairnessGamma            // γ-batch-order-fairness (Themis)
)

// String implements fmt.Stringer.
func (f Fairness) String() string {
	return [...]string{"none", "partial", "γ-fair"}[f]
}

// LoadBalance is dimension Q2.
type LoadBalance int

// Load-balancing approaches.
const (
	LBNone LoadBalance = iota
	LBRotation
	LBMultiLeader
	LBTree
	LBChain
)

// String implements fmt.Stringer.
func (l LoadBalance) String() string {
	return [...]string{"none", "rotation", "multi-leader", "tree", "chain"}[l]
}

// LinearTerm is an affine function of f: Coef*f + Const. The design space
// expresses replica counts and quorum sizes as such terms (3f+1, 2f+1,
// 4f+1, 5f−1, …).
type LinearTerm struct {
	Coef  int
	Const int
}

// Eval computes the term at a concrete f.
func (t LinearTerm) Eval(f int) int { return t.Coef*f + t.Const }

// IsZero reports an unset term.
func (t LinearTerm) IsZero() bool { return t.Coef == 0 && t.Const == 0 }

// String renders "3f+1", "2f", "5f-1", "4".
func (t LinearTerm) String() string {
	switch {
	case t.Coef == 0:
		return fmt.Sprintf("%d", t.Const)
	case t.Const == 0:
		return fmt.Sprintf("%df", t.Coef)
	case t.Const < 0:
		return fmt.Sprintf("%df%d", t.Coef, t.Const)
	default:
		return fmt.Sprintf("%df+%d", t.Coef, t.Const)
	}
}

// Term is shorthand for LinearTerm{c, k}.
func Term(coef, constant int) LinearTerm { return LinearTerm{coef, constant} }

// Profile is one point in the design space: a complete description of a
// BFT protocol along the paper's dimensions.
type Profile struct {
	Name        string
	Description string

	// P1: commitment strategy.
	Strategy    Strategy
	Speculative bool // executes before commitment (Zyzzyva, PoE)
	Assumptions []Assumption

	// P2: good-case commitment phases. PhaseTopos records the topology
	// of each ordering phase in order; its length equals Phases.
	Phases     int
	PhaseTopos []Topology

	// P3: view change.
	Leader        LeaderPolicy
	HasViewChange bool // separate view-change stage (stable-leader protocols)

	// P4/P5.
	Checkpointing bool
	Recovery      Recovery

	// P6.
	ClientRoles ClientRole

	// E1: replica counts as functions of f.
	Replicas       LinearTerm // minimum n
	Quorum         LinearTerm // ordering quorum
	FastQuorum     LinearTerm // optimistic fast-path quorum (zero if none)
	ActiveReplicas LinearTerm // active set under a2-style reduction (zero if all)
	RepliesNeeded  LinearTerm // matching replies a requester waits for

	// E2: dominant topology (PhaseTopos holds the per-phase detail).
	Topology Topology

	// E3: authentication per stage.
	AuthOrdering   crypto.Scheme
	AuthViewChange crypto.Scheme

	// E4.
	Responsive bool
	Timers     []Timer

	// Q1/Q2.
	Fairness      Fairness
	Gamma         float64 // only for FairnessGamma
	LoadBalancing LoadBalance

	// CrashOnly marks a crash-fault-tolerant baseline (Raft/Paxos
	// family, §1). CFT protocols sit outside the BFT design space, so
	// Validate skips the Byzantine lower bounds for them.
	CrashOnly bool
}

// HasAssumption reports whether the profile relies on assumption a.
func (p *Profile) HasAssumption(a Assumption) bool {
	for _, x := range p.Assumptions {
		if x == a {
			return true
		}
	}
	return false
}

// HasTimer reports whether the profile uses timer t.
func (p *Profile) HasTimer(t Timer) bool {
	for _, x := range p.Timers {
		if x == t {
			return true
		}
	}
	return false
}

// MinReplicas returns the minimum deployment size for tolerating f
// Byzantine replicas.
func (p *Profile) MinReplicas(f int) int { return p.Replicas.Eval(f) }

// QuorumSize returns the ordering quorum at a concrete f.
func (p *Profile) QuorumSize(f int) int { return p.Quorum.Eval(f) }

// GoodCaseMessages estimates the number of protocol messages needed to
// commit one batch with n replicas in the good case, from the per-phase
// topologies (dimension E2's complexity claims: star/tree/chain linear,
// clique quadratic). Client request/reply traffic is excluded.
func (p *Profile) GoodCaseMessages(n int) int {
	total := 0
	for _, t := range p.PhaseTopos {
		switch t {
		case Star:
			total += n - 1
		case Clique:
			total += n * (n - 1)
		case Tree:
			total += n - 1
		case Chain:
			total += n - 1
		}
	}
	return total
}

// MessageComplexity names the asymptotic per-slot message complexity.
func (p *Profile) MessageComplexity() string {
	for _, t := range p.PhaseTopos {
		if t == Clique {
			return "O(n^2)"
		}
	}
	return "O(n)"
}

// Validation errors.
var (
	ErrNoPhases           = errors.New("profile: protocol needs at least one ordering phase")
	ErrPhaseTopoMismatch  = errors.New("profile: PhaseTopos length must equal Phases")
	ErrSpecNotOptimistic  = errors.New("profile: speculative protocols are by definition optimistic")
	ErrOptimisticNoAssume = errors.New("profile: optimistic strategy requires at least one assumption a1–a6")
	ErrGammaRange         = errors.New("profile: order-fairness parameter γ must satisfy 0.5 < γ <= 1")
	ErrGammaReplicas      = errors.New("profile: γ-fairness needs n > 4f/(2γ-1) replicas")
	ErrThresholdTopology  = errors.New("profile: threshold signatures need a collector (star or tree topology)")
	ErrMACNonRepudiation  = errors.New("profile: MAC-authenticated collectors cannot prove quorums (no non-repudiation)")
	ErrRotatingViewChange = errors.New("profile: rotating-leader protocols fold leader replacement into ordering; no separate view-change stage")
	ErrQuorumIntersection = errors.New("profile: quorums must intersect in at least one honest replica")
	ErrTooFewReplicas     = errors.New("profile: below the 3f+1 lower bound without trusted hardware")
	ErrTwoPhaseBound      = errors.New("profile: two-phase commitment needs at least 5f-1 replicas (PODC'21 lower bound)")
	ErrReplyThreshold     = errors.New("profile: requester needs at least f+1 matching replies")
)

// Validate checks the structural consistency rules the tutorial states:
// quorum intersection, the 3f+1 and 5f−1 lower bounds, the γ-fairness
// replica requirement, topology/authentication compatibility, and the
// speculative/optimistic relationship.
func (p *Profile) Validate() error {
	if p.Phases < 1 {
		return ErrNoPhases
	}
	if len(p.PhaseTopos) != p.Phases {
		return fmt.Errorf("%w: %d topos for %d phases", ErrPhaseTopoMismatch, len(p.PhaseTopos), p.Phases)
	}
	if p.Speculative && p.Strategy == Pessimistic {
		return ErrSpecNotOptimistic
	}
	if p.Strategy == Optimistic && len(p.Assumptions) == 0 {
		return ErrOptimisticNoAssume
	}
	if p.Leader == RotatingLeader && p.HasViewChange {
		return ErrRotatingViewChange
	}
	if p.CrashOnly {
		return nil // CFT baselines skip the Byzantine bounds below
	}
	// E1 lower bounds, checked at f = 1..4.
	for f := 1; f <= 4; f++ {
		n := p.Replicas.Eval(f)
		if n < 3*f+1 {
			return fmt.Errorf("%w: n=%s gives %d at f=%d", ErrTooFewReplicas, p.Replicas, n, f)
		}
		if p.Phases == 2 && !p.Speculative && n < 5*f-1 {
			return fmt.Errorf("%w: n=%s gives %d at f=%d", ErrTwoPhaseBound, p.Replicas, n, f)
		}
		q := p.Quorum.Eval(f)
		// Two quorums must intersect in an honest replica: 2q-n >= f+1.
		if 2*q-n < f+1 {
			return fmt.Errorf("%w: n=%d q=%d f=%d", ErrQuorumIntersection, n, q, f)
		}
		if !p.RepliesNeeded.IsZero() && p.RepliesNeeded.Eval(f) < f+1 {
			return fmt.Errorf("%w: %s at f=%d", ErrReplyThreshold, p.RepliesNeeded, f)
		}
	}
	if p.Fairness == FairnessGamma {
		if !(p.Gamma > 0.5 && p.Gamma <= 1.0) {
			return fmt.Errorf("%w: γ=%v", ErrGammaRange, p.Gamma)
		}
		for f := 1; f <= 4; f++ {
			n := p.Replicas.Eval(f)
			if float64(n) <= 4*float64(f)/(2*p.Gamma-1) {
				return fmt.Errorf("%w: n=%d f=%d γ=%v", ErrGammaReplicas, n, f, p.Gamma)
			}
		}
	}
	if p.AuthOrdering == crypto.SchemeThreshold && p.Topology == Clique {
		return ErrThresholdTopology
	}
	if p.AuthOrdering == crypto.SchemeMAC && (p.Topology == Star || p.Topology == Tree) && p.Leader == RotatingLeader {
		// A rotating collector must prove it holds a quorum; MACs
		// cannot provide that proof (DC 11's non-repudiation argument).
		return ErrMACNonRepudiation
	}
	return nil
}

// Summary renders a one-line digest used by the bftspace CLI and X1.
func (p *Profile) Summary() string {
	spec := ""
	if p.Speculative {
		spec = "/speculative"
	}
	return fmt.Sprintf("%-12s n=%-5s q=%-5s phases=%d %-7s %-8s leader=%-8s auth=%-9s fair=%-7s resp=%v",
		p.Name, p.Replicas, p.Quorum, p.Phases, p.Topology, p.Strategy.String()+spec,
		p.Leader, p.AuthOrdering, p.Fairness, p.Responsive)
}
