package obsv

import "strings"

// Phase names for traffic that is not part of a protocol's ordering
// phases. Everything else counts toward the paper's message-complexity
// claims (see IsProtocolPhase).
const (
	PhaseClient     = "client"
	PhaseCheckpoint = "checkpoint"
	PhaseViewChange = "view-change"
	PhaseRecovery   = "recovery"
)

// phaseByKind maps every message kind in the repository to its protocol
// phase. The table is best-effort labeling: an unknown kind falls back to
// its lowercased name, which still groups consistently.
var phaseByKind = map[string]string{
	// core (client interaction, checkpointing, state transfer)
	"REQUEST":     PhaseClient,
	"REPLY":       PhaseClient,
	"FORWARD":     PhaseClient,
	"CHECKPOINT":  PhaseCheckpoint,
	"FETCH-STATE": PhaseRecovery,
	"STATE":       PhaseRecovery,

	// the eight stable-leader protocols' ordering messages
	// (core.ProposeMsg, core.VoteMsg and core.CertMsg per stage): PoE's
	// share certificate is its certify phase, every other certificate
	// belongs to the phase of its stage
	"PROPOSE":          "propose",
	"PREPARE":          "prepare",
	"COMMIT":           "commit",
	"SIGN":             "sign",
	"FAST-COMMIT":      "fast-commit",
	"SHARE":            "share",
	"ACCEPT":           "accept",
	"PREPARE-CERT":     "prepare",
	"COMMIT-CERT":      "commit",
	"SIGN-CERT":        "sign",
	"FAST-COMMIT-CERT": "fast-commit",
	"SHARE-CERT":       "certify",
	"ACCEPT-CERT":      "accept",

	// pbft
	"FETCH-COMMITTED": PhaseRecovery,
	"COMMITTED":       PhaseRecovery,

	// tendermint
	"PROPOSAL":       "propose",
	"PREVOTE":        "prevote",
	"PRECOMMIT":      "precommit",
	"FETCH-PROPOSAL": PhaseRecovery,
	"FETCH-DECISION": PhaseRecovery,
	"DECISION":       PhaseRecovery,

	// hotstuff
	"HS-PROPOSAL": "propose",
	"HS-VOTE":     "vote",
	"HS-TIMEOUT":  PhaseViewChange,
	"HS-QC":       "qc",
	"HS-FETCH":    PhaseRecovery,
	"HS-BLOCK":    PhaseRecovery,

	// zyzzyva (ZYZ-COMMIT/LOCAL-COMMIT are the client-driven repair
	// path, outside the speculative good case)
	"ZYZ-COMMIT":   "repair",
	"LOCAL-COMMIT": "repair",

	// cheapbft
	"CHEAP-UPDATE": "update",

	// qu
	"QU-QUERY":      "query",
	"QU-QUERY-RESP": "query",
	"QU-WRITE":      "write",
	"QU-WRITE-RESP": "write",
	"QU-RESOLVE":    "repair",

	// prime
	"PO-REQUEST": "preorder",
	"PO-ACK":     "preorder",

	// themis
	"THEMIS-REPORT": "report",

	// kauri
	"KAURI-AGGR-prepare": "prepare",
	"KAURI-AGGR-commit":  "commit",

	// chain replication
	"CHAIN":          "chain",
	"CHAIN-COMMIT":   "commit",
	"CHAIN-PANIC":    PhaseViewChange,
	"CHAIN-RECONFIG": PhaseViewChange,
	"CHAIN-FETCH":    PhaseRecovery,
	"CHAIN-ENTRIES":  PhaseRecovery,

	// raftlite (leader election is the CFT analogue of a view change)
	"APPEND-ENTRIES": "append",
	"APPEND-RESP":    "append",
	"REQUEST-VOTE":   PhaseViewChange,
	"VOTE":           PhaseViewChange,
}

// PhaseOf classifies a message kind into a protocol phase. View-change
// and new-view kinds of every protocol collapse into PhaseViewChange,
// checkpoint kinds into PhaseCheckpoint, state transfer into
// PhaseRecovery, client interaction into PhaseClient; the remaining
// kinds map to their ordering phase.
func PhaseOf(kind string) string {
	if p, ok := phaseByKind[kind]; ok {
		return p
	}
	if strings.Contains(kind, "VIEW-CHANGE") || strings.Contains(kind, "NEW-VIEW") {
		return PhaseViewChange
	}
	if strings.Contains(kind, "CHECKPOINT") {
		return PhaseCheckpoint
	}
	return strings.ToLower(kind)
}

// IsProtocolPhase reports whether a phase belongs to a protocol's
// ordering pipeline — i.e. counts toward the per-slot message complexity
// the paper's claims are stated in — as opposed to client traffic,
// checkpointing, view changes, or recovery.
func IsProtocolPhase(phase string) bool {
	switch phase {
	case PhaseClient, PhaseCheckpoint, PhaseViewChange, PhaseRecovery:
		return false
	}
	return true
}
