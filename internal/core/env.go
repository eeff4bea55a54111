// Package core is the heart of the reproduction: it models the paper's
// BFT design space (dimensions P1–P6, E1–E4, Q1–Q2), implements the
// fourteen design-choice transformations of §2.3 as executable functions
// over design-space points, and provides the replica runtime that adapts
// every surveyed protocol to a common substrate (Figure 1's lifecycle:
// ordering, execution, view-change, checkpointing, recovery).
package core

import (
	"math/rand"
	"time"

	"bftkit/internal/crypto"
	"bftkit/internal/ledger"
	"bftkit/internal/types"
)

// TimerID names a protocol timer instance. Protocols encode which of the
// paper's timers τ1–τ8 a name corresponds to in their own constants.
type TimerID struct {
	Name string
	View types.View
	Seq  types.SeqNum
}

// Protocol is the event interface every BFT protocol implements. All
// methods are invoked on a single goroutine per replica; implementations
// need no locking.
type Protocol interface {
	// Init is called once before any event, with the replica's
	// environment.
	Init(env Env)
	// OnRequest delivers a client request addressed to this replica.
	OnRequest(req *types.Request)
	// OnMessage delivers a protocol message from another participant.
	OnMessage(from types.NodeID, m types.Message)
	// OnTimer fires a timer previously set via Env.SetTimer.
	OnTimer(id TimerID)
	// OnExecuted notifies the protocol that the runtime executed a
	// committed slot, with per-request results; most protocols reply to
	// clients here.
	OnExecuted(seq types.SeqNum, batch *types.Batch, results [][]byte)
}

// Application is the deterministic replicated state machine (the
// "database" in Figure 1). kvstore.Store implements it.
type Application interface {
	Apply(op []byte) []byte
	SpecApply(op []byte) (result []byte, depth int)
	Rollback(targetDepth int)
	Promote(oldest int)
	SpecDepth() int
	// Freeze captures the state as of now and returns its serialiser;
	// what that returns, whenever it is called, is what Restore reads.
	// A checkpoint freezes and only a served state transfer serialises.
	Freeze() func() []byte
	Restore(snap []byte) error
	Hash() types.Digest
}

// Env is the runtime environment a protocol runs against. It hides the
// driver (virtual-time simulator or TCP), the ledger, the application,
// and the crypto substrate behind one surface.
type Env interface {
	// Identity and configuration.
	ID() types.NodeID
	N() int
	F() int
	Config() Config
	Replicas() []types.NodeID

	// Communication. Broadcast sends to every replica except the
	// caller; protocols that count themselves into quorums do so
	// explicitly, matching the paper's presentation of PBFT.
	Send(to types.NodeID, m types.Message)
	Broadcast(m types.Message)

	// Timers (τ1–τ8 of dimension E4).
	SetTimer(id TimerID, d time.Duration)
	StopTimer(id TimerID)

	// Time and randomness — always virtual/seeded, never the wall clock.
	Now() time.Duration
	Rand() *rand.Rand

	// Authentication (dimension E3).
	Signer() *crypto.Signer
	Verifier() *crypto.Verifier
	Scheme() crypto.Scheme

	// Ordering/execution stage services. Commit records a durably
	// decided slot; the runtime executes committed slots in sequence
	// order and calls Protocol.OnExecuted for each.
	Commit(view types.View, seq types.SeqNum, b *types.Batch, proof *types.CommitProof)
	// SpecExecute speculatively executes a batch at seq (DC7/DC8);
	// results may later be kept (when Commit arrives with a matching
	// digest) or undone via RollbackSpecAbove.
	SpecExecute(seq types.SeqNum, b *types.Batch) [][]byte
	// RollbackSpecAbove undoes every speculative execution with
	// sequence number strictly greater than seq.
	RollbackSpecAbove(seq types.SeqNum)
	// HistoryDigest is the rolling digest of the executed history
	// (Zyzzyva's per-replica history authenticator).
	HistoryDigest() types.Digest
	Ledger() *ledger.Ledger
	App() Application

	// Reply signs and sends a reply to a client.
	Reply(r *types.Reply)

	// Instrumentation.
	ViewChanged(newView types.View)
	Logf(format string, args ...any)
}

// ClientProtocol is the client-side counterpart (dimension P6: requester,
// proposer, repairer clients). The workload layer pushes requests via
// Submit; the client reports completions through ClientEnv.Done.
type ClientProtocol interface {
	Init(env ClientEnv)
	Submit(req *types.Request)
	OnMessage(from types.NodeID, m types.Message)
	OnTimer(id TimerID)
}

// ClientEnv is the environment available to client protocols.
type ClientEnv interface {
	ID() types.NodeID
	N() int
	F() int
	Config() Config
	Replicas() []types.NodeID
	Send(to types.NodeID, m types.Message)
	BroadcastReplicas(m types.Message)
	SetTimer(id TimerID, d time.Duration)
	StopTimer(id TimerID)
	Now() time.Duration
	Rand() *rand.Rand
	Signer() *crypto.Signer
	Verifier() *crypto.Verifier
	// Done reports a request as complete with its result. The harness
	// measures end-to-end latency from Submit to Done.
	Done(req *types.Request, result []byte)
	Logf(format string, args ...any)
}
