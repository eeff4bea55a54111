package core

import (
	"bftkit/internal/crypto"
	"bftkit/internal/ledger"
	"bftkit/internal/types"
)

// RequestMsg carries a client request to a replica.
type RequestMsg struct {
	Req *types.Request
}

// Kind implements types.Message.
func (*RequestMsg) Kind() string { return "REQUEST" }

// RequestRef implements obsv.Keyed: a request message is about itself.
func (m *RequestMsg) RequestRef() types.RequestKey { return m.Req.Key() }

// AppendSigClaims implements crypto.SigClaimer: the client's signature over
// the request digest, which every replica verifies on receipt.
func (m *RequestMsg) AppendSigClaims(dst []crypto.SigClaim, _ types.NodeID) []crypto.SigClaim {
	return appendRequestClaim(dst, m.Req)
}

// appendRequestClaim appends r's client signature as a claim. A request
// MAC'd under SchemeMAC exposes none: its authenticator is one MAC per
// replica, N·MACSize bytes — never SigSize, as every profile needs at
// least 3 replicas — and only VerifyRequest checks it, so the inbound
// lane never runs Ed25519 over a MAC vector.
func appendRequestClaim(dst []crypto.SigClaim, r *types.Request) []crypto.SigClaim {
	if len(r.Sig) != crypto.SigSize {
		return dst
	}
	return append(dst, crypto.SigClaim{Signer: r.Client, Digest: r.Digest(), Sig: r.Sig})
}

// ReplyMsg carries a replica's reply back to a client. It exposes no
// signature claims: a client protocol that counts replies checks each
// one's authenticator inline (VerifyReply).
type ReplyMsg struct {
	R *types.Reply
}

// Kind implements types.Message.
func (*ReplyMsg) Kind() string { return "REPLY" }

// RequestRef implements obsv.Keyed. A reply carries both the request key
// and the consensus slot, making it the join point span reconstruction
// uses to link a client's request to the slot that ordered it.
func (m *ReplyMsg) RequestRef() types.RequestKey {
	return types.RequestKey{Client: m.R.Client, ClientSeq: m.R.ClientSeq}
}

// Slot implements obsv.Slotted.
func (m *ReplyMsg) Slot() (types.View, types.SeqNum) { return m.R.View, m.R.Seq }

// ReplyPayload exposes the reply for the forensics auditor's
// divergent-result cross-check (structural, like obsv.Keyed).
func (m *ReplyMsg) ReplyPayload() *types.Reply { return m.R }

// ForwardMsg relays a request from a backup to the current leader, the
// standard liveness mechanism when clients send to the wrong replica.
type ForwardMsg struct {
	Req *types.Request
}

// Kind implements types.Message.
func (*ForwardMsg) Kind() string { return "FORWARD" }

// RequestRef implements obsv.Keyed.
func (m *ForwardMsg) RequestRef() types.RequestKey { return m.Req.Key() }

// AppendSigClaims implements crypto.SigClaimer: a forward relays the client's
// signed request, so the claim is the client's, not the forwarder's.
func (m *ForwardMsg) AppendSigClaims(dst []crypto.SigClaim, _ types.NodeID) []crypto.SigClaim {
	return appendRequestClaim(dst, m.Req)
}

// CheckpointMsg announces a replica's checkpoint at a sequence number
// (dimension P4): every protocol that embeds CheckpointManager sends it,
// and PoE and Zyzzyva send their speculative history digest in StateHash.
type CheckpointMsg struct {
	Seq       types.SeqNum
	StateHash types.Digest
	Replica   types.NodeID
	Sig       []byte
}

// Kind implements types.Message.
func (*CheckpointMsg) Kind() string { return "CHECKPOINT" }

// Digest hashes the checkpoint claim for signing.
func (m *CheckpointMsg) Digest() types.Digest {
	var h types.Hasher
	h.Str("checkpoint").U64(uint64(m.Seq)).Digest(m.StateHash).U64(uint64(m.Replica))
	return h.Sum()
}

// AppendSigClaims implements crypto.SigClaimer: the announcing replica's
// signature over the checkpoint claim.
func (m *CheckpointMsg) AppendSigClaims(dst []crypto.SigClaim, _ types.NodeID) []crypto.SigClaim {
	return append(dst, crypto.SigClaim{Signer: m.Replica, Digest: m.Digest(), Sig: m.Sig})
}

// FetchStateMsg asks a peer for the snapshot behind a stable checkpoint
// (state transfer for in-dark replicas).
type FetchStateMsg struct {
	Seq types.SeqNum
}

// Kind implements types.Message.
func (*FetchStateMsg) Kind() string { return "FETCH-STATE" }

// StateMsg returns a checkpoint snapshot for state transfer.
type StateMsg struct {
	Seq       types.SeqNum
	StateHash types.Digest
	Snapshot  []byte
	// Entries are retained committed slots above the checkpoint so the
	// fetcher can also replay the recent suffix.
	Entries []*ledger.Entry
}

// Kind implements types.Message.
func (*StateMsg) Kind() string { return "STATE" }
