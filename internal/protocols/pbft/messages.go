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
	"bftkit/internal/crypto"
	"bftkit/internal/types"
)

// PrePrepareMsg assigns a sequence number to a batch (first phase).
type PrePrepareMsg struct {
	View   types.View
	Seq    types.SeqNum
	Digest types.Digest
	Batch  *types.Batch
	Sig    []byte
	Auth   [][]byte
}

// Kind implements types.Message.
func (*PrePrepareMsg) Kind() string { return "PRE-PREPARE" }

// Slot implements obsv.Slotted.
func (m *PrePrepareMsg) Slot() (types.View, types.SeqNum) { return m.View, m.Seq }

// SigDigest is the signed content.
func (m *PrePrepareMsg) SigDigest() types.Digest {
	var h types.Hasher
	h.Str("pbft-preprepare").U64(uint64(m.View)).U64(uint64(m.Seq)).Digest(m.Digest)
	return h.Sum()
}

// SigClaims implements crypto.SigClaimer. A pre-prepare names no signer
// — it is implicitly from the view's leader — so the claim uses the
// transport sender, which is the signer exactly when the message is
// honest (the only case worth pre-verifying: the protocol re-checks
// inline against the leader it derives).
func (m *PrePrepareMsg) SigClaims(from types.NodeID) []crypto.SigClaim {
	return []crypto.SigClaim{{Signer: from, Digest: m.SigDigest(), Sig: m.Sig}}
}

// PrepareMsg vouches that a backup saw the leader's assignment (second
// phase; guarantees uniqueness of the order within the view).
type PrepareMsg struct {
	View    types.View
	Seq     types.SeqNum
	Digest  types.Digest
	Replica types.NodeID
	Sig     []byte
	Auth    [][]byte
}

// Kind implements types.Message.
func (*PrepareMsg) Kind() string { return "PREPARE" }

// Slot implements obsv.Slotted.
func (m *PrepareMsg) Slot() (types.View, types.SeqNum) { return m.View, m.Seq }

// SigDigest is the signed content.
func (m *PrepareMsg) SigDigest() types.Digest {
	var h types.Hasher
	h.Str("pbft-prepare").U64(uint64(m.View)).U64(uint64(m.Seq)).Digest(m.Digest).U64(uint64(m.Replica))
	return h.Sum()
}

// SigClaims implements crypto.SigClaimer. The protocol verifies against
// the transport sender (a prepare claiming another replica's identity is
// rejected inline), so that is the signer worth warming.
func (m *PrepareMsg) SigClaims(from types.NodeID) []crypto.SigClaim {
	return []crypto.SigClaim{{Signer: from, Digest: m.SigDigest(), Sig: m.Sig}}
}

// CommitMsg vouches that a replica collected a prepared certificate
// (third phase; guarantees the order survives view changes).
type CommitMsg struct {
	View    types.View
	Seq     types.SeqNum
	Digest  types.Digest
	Replica types.NodeID
	Sig     []byte
	Auth    [][]byte
}

// Kind implements types.Message.
func (*CommitMsg) Kind() string { return "COMMIT" }

// Slot implements obsv.Slotted.
func (m *CommitMsg) Slot() (types.View, types.SeqNum) { return m.View, m.Seq }

// SigDigest is the signed content.
func (m *CommitMsg) SigDigest() types.Digest {
	var h types.Hasher
	h.Str("pbft-commit").U64(uint64(m.View)).U64(uint64(m.Seq)).Digest(m.Digest).U64(uint64(m.Replica))
	return h.Sum()
}

// SigClaims implements crypto.SigClaimer; see PrepareMsg.SigClaims.
func (m *CommitMsg) SigClaims(from types.NodeID) []crypto.SigClaim {
	return []crypto.SigClaim{{Signer: from, Digest: m.SigDigest(), Sig: m.Sig}}
}

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
