// Package pbft implements Practical Byzantine Fault Tolerance (Castro &
// Liskov, OSDI'99/TOCS'02), the paper's driving example (§2.1, Figure 2):
// a pessimistic, stable-leader protocol with three ordering phases
// (pre-prepare, prepare, commit), a quadratic communication topology,
// full view changes, decentralized checkpointing, and proactive recovery.
// Both the signature-based [59] and MAC-authenticator [61] variants are
// supported (dimension E3); ordering messages use the configured scheme,
// view-change messages are always signed, matching the paper's note that
// protocols may mix schemes across stages.
//
// The package also implements the Byzantine leader behaviors the
// experiments inject (equivocation, silence, delay attacks) behind
// Options flags, so attack scenarios are reproducible.
package pbft

import (
	"bftkit/internal/core"
	"bftkit/internal/types"
)

// PBFT's ordering messages are the shared ones (core.ProposeMsg,
// core.VoteMsg at StagePrepare and StageCommit); the pre-prepare and
// prepare keep their names here for callers outside the package.
type (
	PrePrepareMsg = core.ProposeMsg
	PrepareMsg    = core.VoteMsg
)

// FetchCommittedMsg asks peers for committed slots above From — the
// catch-up path for replicas that fell behind during view churn, before
// the next checkpoint-based state transfer would rescue them.
type FetchCommittedMsg struct {
	From types.SeqNum
}

// Kind implements types.Message.
func (*FetchCommittedMsg) Kind() string { return "FETCH-COMMITTED" }

// CommittedMsg answers a FetchCommittedMsg (and is also pushed to a new
// leader that re-proposes an already-executed slot). A slot is adopted
// either on a valid commit certificate or once f+1 distinct peers report
// the same digest. An entry's Cert carries the 2f+1 commit signatures when
// available (signature mode): a single peer then suffices for adoption.
type CommittedMsg struct {
	Entries []core.CommittedSlot
	Replica types.NodeID
}

// Kind implements types.Message.
func (*CommittedMsg) Kind() string { return "COMMITTED" }
