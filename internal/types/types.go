// Package types defines the wire-level vocabulary shared by every BFT
// protocol in this repository: node identities, views, sequence numbers,
// digests, client requests, batches, and the Message interface that all
// protocol messages implement.
//
// The package is deliberately free of protocol logic so that protocol
// packages, the simulator, and the TCP transport can all depend on it
// without cycles.
package types

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"slices"
	"sync"
)

// NodeID identifies a participant. Replicas are numbered 0..n-1; clients
// are assigned IDs at or above ClientIDBase so the two ranges never
// collide in a single deployment.
type NodeID int

// ClientIDBase is the first NodeID used for clients.
const ClientIDBase NodeID = 10_000

// IsClient reports whether id falls in the client range.
func (id NodeID) IsClient() bool { return id >= ClientIDBase }

// String renders replica IDs as "r3" and client IDs as "c2".
func (id NodeID) String() string {
	if id.IsClient() {
		return fmt.Sprintf("c%d", int(id-ClientIDBase))
	}
	return fmt.Sprintf("r%d", int(id))
}

// View numbers the configurations (leader terms) a protocol moves through.
type View uint64

// SeqNum is the position of a batch in the global service history.
type SeqNum uint64

// Digest is a SHA-256 content hash.
type Digest [32]byte

// ZeroDigest is the digest of "nothing"; used for nil batches.
var ZeroDigest Digest

// String returns the first 8 hex characters, enough for traces.
func (d Digest) String() string { return hex.EncodeToString(d[:4]) }

// IsZero reports whether d is the zero digest.
func (d Digest) IsZero() bool { return d == ZeroDigest }

// DigestBytes hashes a byte slice.
func DigestBytes(b []byte) Digest { return sha256.Sum256(b) }

// Hasher incrementally builds a digest from typed fields. All protocol
// digests in the repository go through it so the byte layout is uniform
// and deterministic. The zero value is ready to use.
type Hasher struct{ h hasher }

// U64 appends an unsigned 64-bit field.
func (h *Hasher) U64(v uint64) *Hasher { h.h.u64(v); return h }

// Bytes appends a length-prefixed byte field.
func (h *Hasher) Bytes(b []byte) *Hasher { h.h.bytes(b); return h }

// Str appends a length-prefixed string field.
func (h *Hasher) Str(s string) *Hasher { h.h.str(s); return h }

// Digest appends another digest as a field.
func (h *Hasher) Digest(d Digest) *Hasher { h.h.digest(d); return h }

// Sum finalizes the hash. The Hasher is spent: write to it or sum it
// again and the digest is wrong.
func (h *Hasher) Sum() Digest { return h.h.sum() }

// stageLen is how much preimage a hasher holds before it starts
// streaming: every request, reply and protocol-message digest with a
// 16-byte operation fits, so the common digest is one sha256.Sum256 over
// a buffer that never leaves the caller's stack.
const stageLen = 160

// hasher computes SHA-256 over the concatenation of its fields — u64s as
// 8 big-endian bytes, byte and string fields behind a u64 length — without
// ever holding that concatenation: fields are staged in buf, a preimage
// that outgrows buf moves to a spill that feeds a hash.Hash, and a byte
// field longer than the staging buffer is written through uncopied. The
// bytes hashed are the same whichever way they go. Spills are pooled: one
// is taken when a preimage outgrows buf and given back by sum, so a
// digest of a 4 KiB request or reply allocates nothing.
type hasher struct {
	n     int
	buf   [stageLen]byte
	spill *spill
}

// spill is the streaming half of a hasher. It has its own staging buffer
// and output array because whatever is handed to the hash.Hash interface
// escapes: handing it hasher.buf would put every hasher on the heap.
type spill struct {
	h   hash.Hash
	n   int
	buf [stageLen]byte
	out Digest
}

// spills holds the spills no hasher is using.
var spills = sync.Pool{New: func() any { return &spill{h: sha256.New()} }}

func (s *spill) flush() {
	s.h.Write(s.buf[:s.n])
	s.n = 0
}

// spilled switches the hasher to streaming, carrying over what is staged.
func (h *hasher) spilled() *spill {
	if h.spill == nil {
		s := spills.Get().(*spill)
		s.h.Reset()
		s.n = copy(s.buf[:], h.buf[:h.n])
		h.spill = s
	}
	return h.spill
}

// stage returns the next k <= stageLen bytes of the preimage for the
// caller to fill in.
func (h *hasher) stage(k int) []byte {
	if h.spill == nil && h.n+k <= len(h.buf) {
		h.n += k
		return h.buf[h.n-k : h.n]
	}
	s := h.spilled()
	if s.n+k > len(s.buf) {
		s.flush()
	}
	s.n += k
	return s.buf[s.n-k : s.n]
}

func (h *hasher) u64(v uint64) { binary.BigEndian.PutUint64(h.stage(8), v) }

func (h *hasher) bytes(b []byte) {
	h.u64(uint64(len(b)))
	if len(b) <= stageLen {
		copy(h.stage(len(b)), b)
		return
	}
	s := h.spilled()
	s.flush()
	s.h.Write(b)
}

func (h *hasher) str(s string) {
	h.u64(uint64(len(s)))
	for len(s) > 0 {
		s = s[copy(h.stage(min(len(s), stageLen)), s):]
	}
}

// digest is bytes(d[:]) for a value the caller holds on its stack: b in
// bytes can reach the hash.Hash interface, so a local sliced into it
// would be moved to the heap.
func (h *hasher) digest(d Digest) {
	h.u64(uint64(len(d)))
	copy(h.stage(len(d)), d[:])
}

func (h *hasher) sum() Digest {
	s := h.spill
	if s == nil {
		return sha256.Sum256(h.buf[:h.n])
	}
	s.flush()
	s.h.Sum(s.out[:0])
	d := s.out
	h.spill = nil
	spills.Put(s)
	return d
}

// Request is an authenticated client transaction: an opaque operation to be
// applied to the replicated state machine, plus the metadata replicas use
// for deduplication and ordering.
type Request struct {
	Client    NodeID
	ClientSeq uint64 // per-client sequence number; replicas dedupe on it
	Op        []byte // state-machine operation (see internal/kvstore)
	// ArrivalHint carries the client-observed submission instant in
	// nanoseconds of virtual time. Fair-ordering protocols (Themis,
	// Prime) never trust it; it exists so the harness can measure
	// order-fairness violations against ground truth.
	ArrivalHint int64
	// Sig is the client's authenticator over Digest(), under the
	// deployment's scheme (core.AuthenticateRequest): its signature, or
	// one MAC per replica, indexed by replica ID.
	Sig []byte
}

// Digest hashes the request identity (everything except the signature).
func (r *Request) Digest() Digest {
	var h hasher
	h.u64(uint64(r.Client))
	h.u64(r.ClientSeq)
	h.bytes(r.Op)
	h.u64(uint64(r.ArrivalHint))
	return h.sum()
}

// Key returns a map key uniquely identifying the request.
func (r *Request) Key() RequestKey { return RequestKey{r.Client, r.ClientSeq} }

// RequestKey identifies a request by (client, client sequence number).
type RequestKey struct {
	Client    NodeID
	ClientSeq uint64
}

// Batch groups requests ordered together as one consensus instance.
// Protocols agree on batches, not individual requests.
type Batch struct {
	Requests []*Request
}

// NewBatch wraps requests in a batch.
func NewBatch(reqs ...*Request) *Batch { return &Batch{Requests: reqs} }

// Digest hashes the ordered request digests.
func (b *Batch) Digest() Digest {
	if b == nil || len(b.Requests) == 0 {
		return ZeroDigest
	}
	var h hasher
	for _, r := range b.Requests {
		h.digest(r.Digest())
	}
	return h.sum()
}

// Len returns the number of requests; nil-safe.
func (b *Batch) Len() int {
	if b == nil {
		return 0
	}
	return len(b.Requests)
}

// Reply is a replica's answer to a client for one request.
type Reply struct {
	Replica   NodeID
	Client    NodeID
	ClientSeq uint64
	View      View
	Seq       SeqNum
	Result    []byte
	// Speculative marks results produced before commitment (Zyzzyva,
	// PoE); the client-side logic treats them differently.
	Speculative bool
	// History authenticates the replica's execution history up to Seq
	// (used by Zyzzyva clients to detect divergence).
	History Digest
	// Sig is the reply's authenticator, under the deployment's scheme:
	// the replica's signature, or one MAC from the replica to Client.
	Sig []byte
}

// Digest hashes the reply content. The replica ID and authenticator are
// excluded: matching replies from different replicas share a digest, so a
// quorum of reply signatures forms a certificate over one digest
// (Zyzzyva's commit certificates rely on this).
func (rp *Reply) Digest() Digest {
	var h hasher
	h.u64(uint64(rp.Client))
	h.u64(rp.ClientSeq)
	h.u64(uint64(rp.View))
	h.u64(uint64(rp.Seq))
	h.bytes(rp.Result)
	if rp.Speculative {
		h.u64(1)
	} else {
		h.u64(0)
	}
	h.digest(rp.History)
	return h.sum()
}

// Message is implemented by every protocol message. Kind is a short
// stable name used in traces, metrics, and the wire codec registry.
type Message interface {
	Kind() string
}

// CommitProof records why a batch is durably committed: the quorum of
// replicas that vouched for it at a given view/sequence. The harness
// audits these after every run.
type CommitProof struct {
	View    View
	Seq     SeqNum
	Digest  Digest
	Voters  []NodeID // sorted, deduplicated
	Special string   // non-quorum justification, e.g. "speculative-3f+1"
}

// NormalizeVoters sorts and deduplicates the voter list in place.
func (p *CommitProof) NormalizeVoters() {
	slices.Sort(p.Voters)
	out := p.Voters[:0]
	var prev NodeID = -1
	for _, v := range p.Voters {
		if v != prev {
			out = append(out, v)
		}
		prev = v
	}
	p.Voters = out
}

// QuorumSize returns the classic BFT quorum 2f+1.
func QuorumSize(f int) int { return 2*f + 1 }

// FaultThreshold returns the maximum f tolerated by n replicas under the
// standard 3f+1 bound.
func FaultThreshold(n int) int { return (n - 1) / 3 }
