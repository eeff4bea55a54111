package core

import "bftkit/internal/crypto"

// Canonical design-space profiles for every protocol implemented in this
// repository. Each is returned by value so callers can mutate copies
// (the design-choice functions do). choices_test.go checks that applying
// the paper's design choices to PBFTProfile reproduces the structure of
// these targets.

// PBFTProfile is the paper's driving example (§2.1): pessimistic, stable
// leader, clique topology, three ordering phases, full view-change,
// checkpointing, and proactive recovery.
func PBFTProfile() Profile {
	return Profile{
		Name:           "pbft",
		Description:    "Practical Byzantine Fault Tolerance (Castro & Liskov '99)",
		Strategy:       Pessimistic,
		Phases:         3,
		PhaseTopos:     []Topology{Star, Clique, Clique},
		Leader:         StableLeader,
		HasViewChange:  true,
		Checkpointing:  true,
		Recovery:       RecoveryProactive,
		ClientRoles:    RoleRequester,
		Replicas:       Term(3, 1),
		Quorum:         Term(2, 1),
		RepliesNeeded:  Term(1, 1),
		Topology:       Clique,
		AuthOrdering:   crypto.SchemeSig,
		AuthViewChange: crypto.SchemeSig,
		Responsive:     true,
		Timers:         []Timer{TimerViewChange, TimerWatchdog},
	}
}

// PBFTMACProfile is the authenticator-based PBFT variant [61].
func PBFTMACProfile() Profile {
	p := PBFTProfile()
	p.Name = "pbft-mac"
	p.Description = "PBFT with MAC authenticator vectors"
	p.AuthOrdering = crypto.SchemeMAC
	p.AuthViewChange = crypto.SchemeSig // view-change-acks replace signed new-views
	return p
}

// HotStuffProfile: linear, rotating leader, chained three-phase commit,
// threshold certificates, responsive (Pacemaker view synchronization).
func HotStuffProfile() Profile {
	return Profile{
		Name:           "hotstuff",
		Description:    "HotStuff (PODC'19): linearity and responsiveness",
		Strategy:       Pessimistic,
		Phases:         7, // proposal + three vote/broadcast rounds
		PhaseTopos:     []Topology{Star, Star, Star, Star, Star, Star, Star},
		Leader:         RotatingLeader,
		Checkpointing:  true,
		Recovery:       RecoveryNone,
		ClientRoles:    RoleRequester,
		Replicas:       Term(3, 1),
		Quorum:         Term(2, 1),
		RepliesNeeded:  Term(1, 1),
		Topology:       Star,
		AuthOrdering:   crypto.SchemeThreshold,
		AuthViewChange: crypto.SchemeThreshold,
		Responsive:     true,
		Timers:         []Timer{TimerViewSync},
		LoadBalancing:  LBRotation,
	}
}

// HotStuff2Profile: the two-phase responsive variant (HotStuff-2).
func HotStuff2Profile() Profile {
	p := HotStuffProfile()
	p.Name = "hotstuff2"
	p.Description = "HotStuff-2 (2023): optimal two-phase responsive BFT"
	p.Phases = 5
	p.PhaseTopos = []Topology{Star, Star, Star, Star, Star}
	return p
}

// TendermintProfile: rotating leader, clique voting, non-responsive Δ
// wait on rotation (DC4), prevote/precommit timers.
func TendermintProfile() Profile {
	return Profile{
		Name:           "tendermint",
		Description:    "Tendermint (2014/2018): rotating leader, waits Δ",
		Strategy:       Optimistic,
		Assumptions:    []Assumption{AssumeSynchrony},
		Phases:         3, // propose, prevote, precommit
		PhaseTopos:     []Topology{Star, Clique, Clique},
		Leader:         RotatingLeader,
		Checkpointing:  true,
		Recovery:       RecoveryNone,
		ClientRoles:    RoleRequester,
		Replicas:       Term(3, 1),
		Quorum:         Term(2, 1),
		RepliesNeeded:  Term(1, 1),
		Topology:       Clique,
		AuthOrdering:   crypto.SchemeSig,
		AuthViewChange: crypto.SchemeSig,
		Responsive:     false,
		Timers:         []Timer{TimerQuorum, TimerViewSync},
		LoadBalancing:  LBRotation,
	}
}

// SBFTProfile: linearized PBFT with an optimistic fast path on all 3f+1
// signatures (DC1 + DC6) and a τ3 fallback.
func SBFTProfile() Profile {
	return Profile{
		Name:          "sbft",
		Description:   "SBFT (DSN'19): collector linearization + fast path",
		Strategy:      Optimistic,
		Assumptions:   []Assumption{AssumeHonestBackups},
		Phases:        3, // pre-prepare, sign-share→collector, full-commit-proof
		PhaseTopos:    []Topology{Star, Star, Star},
		Leader:        StableLeader,
		HasViewChange: true,
		Checkpointing: true,
		Recovery:      RecoveryNone,
		ClientRoles:   RoleRequester,
		Replicas:      Term(3, 1),
		Quorum:        Term(2, 1),
		FastQuorum:    Term(3, 1),
		// The SBFT paper uses a threshold-signed execution proof so one
		// reply suffices; our replies are plainly signed, so the client
		// falls back to the classic f+1 matching-reply rule.
		RepliesNeeded:  Term(1, 1),
		Topology:       Star,
		AuthOrdering:   crypto.SchemeThreshold,
		AuthViewChange: crypto.SchemeThreshold,
		Responsive:     false,
		Timers:         []Timer{TimerViewChange, TimerBackupFault},
	}
}

// ZyzzyvaProfile: speculative execution (DC8), client collects 3f+1
// matching speculative replies, repairer fallback.
func ZyzzyvaProfile() Profile {
	return Profile{
		Name:           "zyzzyva",
		Description:    "Zyzzyva (SOSP'07): speculative BFT",
		Strategy:       Optimistic,
		Speculative:    true,
		Assumptions:    []Assumption{AssumeHonestLeader, AssumeHonestBackups},
		Phases:         1,
		PhaseTopos:     []Topology{Star},
		Leader:         StableLeader,
		HasViewChange:  true,
		Checkpointing:  true,
		Recovery:       RecoveryNone,
		ClientRoles:    RoleRequester | RoleRepairer,
		Replicas:       Term(3, 1),
		Quorum:         Term(2, 1),
		RepliesNeeded:  Term(3, 1),
		Topology:       Star,
		AuthOrdering:   crypto.SchemeSig,
		AuthViewChange: crypto.SchemeSig,
		Responsive:     false,
		Timers:         []Timer{TimerReply, TimerViewChange},
	}
}

// Zyzzyva5Profile: DC10 applied to Zyzzyva — 5f+1 replicas keep the fast
// path alive with up to f faulty replicas.
func Zyzzyva5Profile() Profile {
	p := ZyzzyvaProfile()
	p.Name = "zyzzyva5"
	p.Description = "Zyzzyva5: resilient speculative fast path (DC10)"
	p.Replicas = Term(5, 1)
	p.Quorum = Term(3, 1)
	p.RepliesNeeded = Term(4, 1)
	return p
}

// PoEProfile: speculative phase reduction (DC7) — execute on a 2f+1
// certificate, roll back if the view change disagrees.
func PoEProfile() Profile {
	return Profile{
		Name:           "poe",
		Description:    "Proof-of-Execution (EDBT'21): fault-tolerant speculation",
		Strategy:       Optimistic,
		Speculative:    true,
		Assumptions:    []Assumption{AssumeHonestBackups},
		Phases:         3, // propose, vote→collector, certify
		PhaseTopos:     []Topology{Star, Star, Star},
		Leader:         StableLeader,
		HasViewChange:  true,
		Checkpointing:  true,
		Recovery:       RecoveryNone,
		ClientRoles:    RoleRequester,
		Replicas:       Term(3, 1),
		Quorum:         Term(2, 1),
		FastQuorum:     Term(2, 1), // the speculative certificate quorum
		RepliesNeeded:  Term(2, 1),
		Topology:       Star,
		AuthOrdering:   crypto.SchemeThreshold,
		AuthViewChange: crypto.SchemeThreshold,
		Responsive:     true,
		Timers:         []Timer{TimerViewChange},
	}
}

// CheapBFTProfile: optimistic replica reduction (DC5) — 2f+1 active
// replicas order and execute; f passive replicas absorb failures.
func CheapBFTProfile() Profile {
	return Profile{
		Name:           "cheapbft",
		Description:    "CheapBFT (EuroSys'12): composite agreement with active/passive replication",
		Strategy:       Optimistic,
		Assumptions:    []Assumption{AssumeHonestBackups},
		Phases:         3,
		PhaseTopos:     []Topology{Star, Clique, Clique},
		Leader:         StableLeader,
		HasViewChange:  true,
		Checkpointing:  true,
		Recovery:       RecoveryReactive,
		ClientRoles:    RoleRequester,
		Replicas:       Term(3, 1),
		Quorum:         Term(2, 1),
		ActiveReplicas: Term(2, 1),
		RepliesNeeded:  Term(1, 1),
		Topology:       Clique,
		AuthOrdering:   crypto.SchemeSig,
		AuthViewChange: crypto.SchemeSig,
		Responsive:     false,
		Timers:         []Timer{TimerViewChange, TimerBackupFault},
	}
}

// FaBProfile: fast Byzantine consensus (DC2) — 5f+1 replicas, two phases.
func FaBProfile() Profile {
	return Profile{
		Name:           "fab",
		Description:    "FaB Paxos (TDSC'06): two-phase consensus with 5f+1 replicas",
		Strategy:       Pessimistic,
		Phases:         2,
		PhaseTopos:     []Topology{Star, Clique},
		Leader:         StableLeader,
		HasViewChange:  true,
		Checkpointing:  true,
		Recovery:       RecoveryNone,
		ClientRoles:    RoleRequester,
		Replicas:       Term(5, 1),
		Quorum:         Term(4, 1),
		RepliesNeeded:  Term(1, 1),
		Topology:       Clique,
		AuthOrdering:   crypto.SchemeSig,
		AuthViewChange: crypto.SchemeSig,
		Responsive:     true,
		Timers:         []Timer{TimerViewChange},
	}
}

// QUProfile: optimistic conflict-free (DC9) — clients propose directly
// to a quorum; no ordering phases as long as operations don't conflict.
func QUProfile() Profile {
	return Profile{
		Name:           "qu",
		Description:    "Q/U (SOSP'05): fault-scalable quorum objects",
		Strategy:       Optimistic,
		Assumptions:    []Assumption{AssumeConflictFree, AssumeHonestClients},
		Phases:         1,
		PhaseTopos:     []Topology{Star},
		Leader:         StableLeader, // leaderless; no view change
		Checkpointing:  false,
		Recovery:       RecoveryNone,
		ClientRoles:    RoleRequester | RoleProposer | RoleRepairer,
		Replicas:       Term(5, 1),
		Quorum:         Term(4, 1),
		RepliesNeeded:  Term(4, 1),
		Topology:       Star,
		AuthOrdering:   crypto.SchemeSig,
		AuthViewChange: crypto.SchemeSig,
		Responsive:     true,
		Timers:         []Timer{TimerReply},
		LoadBalancing:  LBMultiLeader,
	}
}

// PrimeProfile: robust BFT (DC12) — preordering with order vectors plus
// leader performance monitoring.
func PrimeProfile() Profile {
	return Profile{
		Name:           "prime",
		Description:    "Prime (TDSC'11): Byzantine replication under attack",
		Strategy:       Robust,
		Phases:         5, // po-request, po-ack, pre-prepare, prepare, commit
		PhaseTopos:     []Topology{Clique, Clique, Star, Clique, Clique},
		Leader:         StableLeader,
		HasViewChange:  true,
		Checkpointing:  true,
		Recovery:       RecoveryNone,
		ClientRoles:    RoleRequester,
		Replicas:       Term(3, 1),
		Quorum:         Term(2, 1),
		RepliesNeeded:  Term(1, 1),
		Topology:       Clique,
		AuthOrdering:   crypto.SchemeSig,
		AuthViewChange: crypto.SchemeSig,
		Responsive:     false,
		Timers:         []Timer{TimerViewChange, TimerHeartbeat},
		Fairness:       FairnessPartial,
	}
}

// ThemisProfile: γ-order-fairness (DC13) — fair preordering batches with
// n > 4f/(2γ−1) replicas.
func ThemisProfile() Profile {
	return Profile{
		Name:          "themis",
		Description:   "Themis (SBC'22): fast, strong order-fairness",
		Strategy:      Pessimistic,
		Phases:        4, // preorder-batch + pre-prepare, prepare, commit
		PhaseTopos:    []Topology{Star, Star, Clique, Clique},
		Leader:        StableLeader,
		HasViewChange: true,
		Checkpointing: true,
		Recovery:      RecoveryNone,
		ClientRoles:   RoleRequester,
		Replicas:      Term(4, 1),
		// With n = 4f+1, ordering quorums must grow to 3f+1 to keep the
		// honest-intersection property.
		Quorum:         Term(3, 1),
		RepliesNeeded:  Term(1, 1),
		Topology:       Clique,
		AuthOrdering:   crypto.SchemeSig,
		AuthViewChange: crypto.SchemeSig,
		Responsive:     false,
		Timers:         []Timer{TimerViewChange, TimerRound},
		Fairness:       FairnessGamma,
		Gamma:          1.0,
	}
}

// KauriProfile: tree-based load balancing (DC14) over a HotStuff-style
// pipeline; non-leaf faults trigger reconfiguration.
func KauriProfile() Profile {
	return Profile{
		Name:           "kauri",
		Description:    "Kauri (SOSP'21): pipelined tree dissemination and aggregation",
		Strategy:       Optimistic,
		Assumptions:    []Assumption{AssumeHonestInterior},
		Phases:         7,
		PhaseTopos:     []Topology{Tree, Tree, Tree, Tree, Tree, Tree, Tree},
		Leader:         RotatingLeader,
		Checkpointing:  true,
		Recovery:       RecoveryNone,
		ClientRoles:    RoleRequester,
		Replicas:       Term(3, 1),
		Quorum:         Term(2, 1),
		RepliesNeeded:  Term(1, 1),
		Topology:       Tree,
		AuthOrdering:   crypto.SchemeThreshold,
		AuthViewChange: crypto.SchemeThreshold,
		Responsive:     false,
		Timers:         []Timer{TimerViewSync},
		LoadBalancing:  LBTree,
	}
}

// ChainProfile: chain topology (E2) in the style of Aliph/Chain — a
// pipeline with the head ordering and the tail replying.
func ChainProfile() Profile {
	return Profile{
		Name:           "chain",
		Description:    "Chain (Aliph, TOCS'15): pipelined replicas, optimistic",
		Strategy:       Optimistic,
		Assumptions:    []Assumption{AssumeHonestBackups, AssumeHonestClients},
		Phases:         1, // one chain traversal; latency is n hops (see docs)
		PhaseTopos:     []Topology{Chain},
		Leader:         StableLeader,
		Checkpointing:  false,
		Recovery:       RecoveryNone,
		ClientRoles:    RoleRequester | RoleRepairer,
		Replicas:       Term(3, 1),
		Quorum:         Term(2, 1),
		RepliesNeeded:  Term(1, 1),
		Topology:       Chain,
		AuthOrdering:   crypto.SchemeMAC,
		AuthViewChange: crypto.SchemeSig,
		Responsive:     true,
		Timers:         []Timer{TimerReply},
		LoadBalancing:  LBChain,
	}
}

// RaftLiteProfile: the crash-fault-tolerant baseline from §1 (Raft/Paxos
// family). Outside the BFT design space (CrashOnly).
func RaftLiteProfile() Profile {
	return Profile{
		Name:           "raftlite",
		Description:    "Raft-style CFT baseline: 2f+1 replicas, leader append",
		Strategy:       Pessimistic,
		Phases:         2,
		PhaseTopos:     []Topology{Star, Star},
		Leader:         StableLeader,
		HasViewChange:  true,
		Checkpointing:  true,
		Recovery:       RecoveryNone,
		ClientRoles:    RoleRequester,
		Replicas:       Term(2, 1),
		Quorum:         Term(1, 1),
		RepliesNeeded:  Term(0, 1),
		Topology:       Star,
		AuthOrdering:   crypto.SchemeMAC,
		AuthViewChange: crypto.SchemeMAC,
		Responsive:     true,
		Timers:         []Timer{TimerViewChange},
		CrashOnly:      true,
	}
}
