// Package crypto provides the authentication substrate the surveyed BFT
// protocols choose between (design dimension E3 and design choice 11 of
// the paper): Ed25519 signatures, HMAC-SHA256 authenticator vectors
// (MACs), and quorum certificates that can be accounted either as
// multi-signatures or as constant-size threshold signatures.
//
// Real threshold signatures (BLS/RSA [57,168] in the paper) need pairing
// or RSA-share arithmetic outside the standard library. We substitute an
// Ed25519 multi-signature with a signer bitmap and verify every component
// signature; when a deployment enables SchemeThreshold the *size model*
// (EncodedSize) charges a single constant-size signature, which is the
// property the linear protocols rely on. DESIGN.md documents this
// substitution.
//
// All keys are derived deterministically from a seed so simulations are
// reproducible; this is a research harness, not a production KMS.
package crypto

import (
	"crypto/ed25519"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"bftkit/internal/types"
)

// Scheme selects how messages are authenticated (dimension E3).
type Scheme int

const (
	// SchemeMAC authenticates with pairwise HMAC vectors, as in the
	// MAC-based PBFT variant [61]. Cheap, but no non-repudiation.
	SchemeMAC Scheme = iota
	// SchemeSig authenticates with Ed25519 signatures [59].
	SchemeSig
	// SchemeThreshold uses signatures and additionally accounts quorum
	// certificates as constant-size threshold signatures (DC 11).
	SchemeThreshold
)

// String returns the scheme name used in tables and traces.
func (s Scheme) String() string {
	switch s {
	case SchemeMAC:
		return "MAC"
	case SchemeSig:
		return "signature"
	case SchemeThreshold:
		return "threshold"
	default:
		return fmt.Sprintf("scheme(%d)", int(s))
	}
}

// SigSize is the wire size charged per Ed25519 signature.
const SigSize = ed25519.SignatureSize

// MACSize is the wire size charged per HMAC-SHA256 tag.
const MACSize = sha256.Size

// Stats counts cryptographic operations. Protocol comparisons in
// experiment X10 read these; counters are atomic because the TCP driver
// verifies concurrently.
type Stats struct {
	SignOps      atomic.Int64
	VerifyOps    atomic.Int64
	MACOps       atomic.Int64
	MACVerifyOps atomic.Int64
}

// Snapshot returns a plain-value copy of the counters.
func (s *Stats) Snapshot() (sign, verify, mac, macVerify int64) {
	return s.SignOps.Load(), s.VerifyOps.Load(), s.MACOps.Load(), s.MACVerifyOps.Load()
}

// Op labels one cryptographic operation for per-node observation.
type Op int

// Operation kinds reported to the authority's observer.
const (
	OpSign Op = iota
	OpVerify
	OpMAC
	OpMACVerify
)

// Observer receives every crypto operation with the identity of the node
// that performed it. node is -1 when the operation went through a handle
// without identity (the legacy shared Verifier).
type Observer func(node types.NodeID, op Op)

// Engine is a pluggable signature-verification backend (implemented by
// internal/crypto/vpool). The split keeps the *cost model* here and the
// *mechanism* there: Verifier and Certificate charge Stats and the
// observer for every protocol-required check exactly as the inline code
// does, then delegate the raw Ed25519 work to the engine, which may
// memoize or parallelize it. An engine therefore changes host CPU time
// only — never the accounted operation counts the deterministic perf
// snapshots pin.
type Engine interface {
	// VerifySig performs (or recalls from a positive-only memo) one raw
	// Ed25519 verification of sig by signer over d.
	VerifySig(pub ed25519.PublicKey, signer types.NodeID, d types.Digest, sig []byte) bool
	// CertCached reports whether the certificate fact "this exact signer
	// set validly signed d" was established by a previous full verify.
	CertCached(d types.Digest, signers []types.NodeID) bool
	// CertStore records that fact after a successful full verify.
	CertStore(d types.Digest, signers []types.NodeID)
}

// SigClaim is one verifiable assertion a message carries: "Signer signed
// Digest, here is the signature". The transport's async inbound-verify
// stage batch-checks claims off the event loop to warm the engine memo;
// the protocol's own inline verify remains the sole rejection authority.
type SigClaim struct {
	Signer types.NodeID
	Digest types.Digest
	Sig    []byte
}

// SigClaimer is implemented by messages that can expose their signature
// claims for pre-verification. AppendSigClaims appends them to dst and
// returns the extended slice, so a caller that reuses dst pays no
// allocation per message. from is the transport-level sender, which
// claims whose signer the message does not name (e.g. a Tendermint
// proposal is implicitly signed by the round's proposer — the sender, when
// honest).
type SigClaimer interface {
	AppendSigClaims(dst []SigClaim, from types.NodeID) []SigClaim
}

// Authority owns the key material of one deployment: an Ed25519 keypair
// per participant and a pairwise MAC key per (ordered) participant pair.
// Keys are derived lazily and deterministically from the authority seed.
type Authority struct {
	seed int64

	mu      sync.Mutex
	privs   map[types.NodeID]ed25519.PrivateKey
	pubs    map[types.NodeID]ed25519.PublicKey
	macKeys map[[2]types.NodeID]*macPads

	observer atomic.Value // Observer
	engine   atomic.Value // Engine

	Stats Stats
}

// SetEngine installs a verification engine (nil to remove). The engine
// only replaces the raw Ed25519 work; all Stats/observer accounting stays
// in this package and is unchanged by the swap.
func (a *Authority) SetEngine(e Engine) { a.engine.Store(engineBox{e}) }

// engineBox wraps the interface so storing a nil Engine (to uninstall)
// does not panic atomic.Value's consistent-type check.
type engineBox struct{ e Engine }

func (a *Authority) getEngine() Engine {
	if b, ok := a.engine.Load().(engineBox); ok {
		return b.e
	}
	return nil
}

// SetObserver installs a per-operation callback (nil to remove). The
// callback runs inline on the operating goroutine and must be cheap and
// concurrency-safe under the TCP driver.
func (a *Authority) SetObserver(o Observer) { a.observer.Store(o) }

func (a *Authority) observe(node types.NodeID, op Op) {
	if o, _ := a.observer.Load().(Observer); o != nil {
		o(node, op)
	}
}

// NewAuthority creates a deterministic key authority.
func NewAuthority(seed int64) *Authority {
	return &Authority{
		seed:    seed,
		privs:   make(map[types.NodeID]ed25519.PrivateKey),
		pubs:    make(map[types.NodeID]ed25519.PublicKey),
		macKeys: make(map[[2]types.NodeID]*macPads),
	}
}

func (a *Authority) keyFor(id types.NodeID) (ed25519.PrivateKey, ed25519.PublicKey) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if priv, ok := a.privs[id]; ok {
		return priv, a.pubs[id]
	}
	var buf [16]byte
	binary.BigEndian.PutUint64(buf[:8], uint64(a.seed))
	binary.BigEndian.PutUint64(buf[8:], uint64(id))
	seed := sha256.Sum256(buf[:])
	priv := ed25519.NewKeyFromSeed(seed[:])
	pub := priv.Public().(ed25519.PublicKey)
	a.privs[id] = priv
	a.pubs[id] = pub
	return priv, pub
}

// macPads is one pair's HMAC-SHA256 key, kept as the two pads HMAC
// hashes it with: the key, zero-filled to sha256's 64-byte block, XORed
// with 0x36 (inner) and with 0x5c (outer).
type macPads struct{ inner, outer [64]byte }

// macKey returns the pads of the symmetric key the pair {x, y} shares,
// deriving them on the pair's first use.
func (a *Authority) macKey(x, y types.NodeID) *macPads {
	if x > y {
		x, y = y, x
	}
	pair := [2]types.NodeID{x, y}
	a.mu.Lock()
	defer a.mu.Unlock()
	if p, ok := a.macKeys[pair]; ok {
		return p
	}
	key := a.macSecret(x, y)
	p := new(macPads)
	for i := range p.inner {
		p.inner[i], p.outer[i] = 0x36, 0x5c
	}
	for i, b := range key {
		p.inner[i] ^= b
		p.outer[i] ^= b
	}
	a.macKeys[pair] = p
	return p
}

// macSecret derives the 32-byte key of the pair x < y from the seed.
func (a *Authority) macSecret(x, y types.NodeID) [32]byte {
	var buf [24]byte
	binary.BigEndian.PutUint64(buf[:8], uint64(a.seed)^0xabcdef)
	binary.BigEndian.PutUint64(buf[8:16], uint64(x))
	binary.BigEndian.PutUint64(buf[16:], uint64(y))
	return sha256.Sum256(buf[:])
}

// tag is HMAC-SHA256 of d under p, RFC 2104 spelled out for a 32-byte
// message: H(outer ‖ H(inner ‖ d)), each hash over one stack buffer, so
// computing it allocates nothing.
func (p *macPads) tag(d types.Digest) [MACSize]byte {
	var buf [64 + MACSize]byte
	copy(buf[:64], p.inner[:])
	copy(buf[64:], d[:])
	sum := sha256.Sum256(buf[:])
	copy(buf[:64], p.outer[:])
	copy(buf[64:], sum[:])
	return sha256.Sum256(buf[:])
}

// PublicKey returns one participant's public key (deriving the pair on
// first use). Engines use it to verify claims without private access.
func (a *Authority) PublicKey(id types.NodeID) ed25519.PublicKey {
	_, pub := a.keyFor(id)
	return pub
}

// KeyRing is the public half of an Authority: participant identities
// mapped to raw Ed25519 public keys. It is what an offline auditor —
// a party with no private key material and no Authority — needs to
// re-verify a forensic proof, and it serializes to JSON so evidence
// bundles can carry the keys they were checked against.
type KeyRing map[types.NodeID][]byte

// KeyRing exports the public keys of participants 0..n-1.
func (a *Authority) KeyRing(n int) KeyRing {
	kr := make(KeyRing, n)
	for i := 0; i < n; i++ {
		id := types.NodeID(i)
		kr[id] = append([]byte(nil), a.PublicKey(id)...)
	}
	return kr
}

// VerifySig checks sig over d against id's public key. Unlike
// Verifier.VerifySig it performs no cost-model accounting and needs no
// Authority, making it safe for auditors that must not perturb the
// deterministic operation counts of the run they observe.
func (k KeyRing) VerifySig(id types.NodeID, d types.Digest, sig []byte) bool {
	pub, ok := k[id]
	if !ok || len(pub) != ed25519.PublicKeySize || len(sig) != ed25519.SignatureSize {
		return false
	}
	return ed25519.Verify(ed25519.PublicKey(pub), d[:], sig)
}

// Signer returns the signing handle for one participant.
func (a *Authority) Signer(id types.NodeID) *Signer { return &Signer{auth: a, id: id} }

// Verifier returns a verification handle without caller identity;
// observed operations are attributed to node -1. Prefer VerifierFor.
func (a *Authority) Verifier() *Verifier { return &Verifier{auth: a, id: -1} }

// VerifierFor returns the verification handle for one participant, so
// verify operations are attributed to the node performing them.
func (a *Authority) VerifierFor(id types.NodeID) *Verifier { return &Verifier{auth: a, id: id} }

// Signer signs digests and computes MACs on behalf of one participant.
type Signer struct {
	auth *Authority
	id   types.NodeID
}

// ID returns the owning participant.
func (s *Signer) ID() types.NodeID { return s.id }

// Sign produces an Ed25519 signature over the digest.
func (s *Signer) Sign(d types.Digest) []byte {
	priv, _ := s.auth.keyFor(s.id)
	s.auth.Stats.SignOps.Add(1)
	s.auth.observe(s.id, OpSign)
	return ed25519.Sign(priv, d[:])
}

// MAC produces an HMAC tag on the digest for one receiver.
func (s *Signer) MAC(to types.NodeID, d types.Digest) []byte {
	tag := s.mac(to, d)
	return tag[:]
}

// mac computes and accounts one tag.
func (s *Signer) mac(to types.NodeID, d types.Digest) [MACSize]byte {
	s.auth.Stats.MACOps.Add(1)
	s.auth.observe(s.id, OpMAC)
	return s.auth.macKey(s.id, to).tag(d)
}

// AuthVector produces the authenticator vector used by MAC-based PBFT:
// one MAC per receiver, indexed by position in peers, all cut from one
// backing array.
func (s *Signer) AuthVector(d types.Digest, peers []types.NodeID) [][]byte {
	out := make([][]byte, len(peers))
	others := len(peers)
	if slices.Contains(peers, s.id) {
		others-- // no self-MAC needed
	}
	tags := make([]byte, others*MACSize)
	for i, p := range peers {
		if p == s.id {
			continue
		}
		tag := s.mac(p, d)
		out[i] = tags[:MACSize:MACSize]
		copy(out[i], tag[:])
		tags = tags[MACSize:]
	}
	return out
}

// Verifier checks signatures and MACs against the authority's keys. The
// id is the node doing the verifying (for op attribution), not the
// claimed signer.
type Verifier struct {
	auth *Authority
	id   types.NodeID
}

// VerifySig reports whether sig is a valid signature by id over d. The
// check is always charged to Stats and the observer; the raw Ed25519
// work goes through the installed engine when one is present.
func (v *Verifier) VerifySig(id types.NodeID, d types.Digest, sig []byte) bool {
	_, pub := v.auth.keyFor(id)
	v.auth.Stats.VerifyOps.Add(1)
	v.auth.observe(v.id, OpVerify)
	if e := v.auth.getEngine(); e != nil {
		return e.VerifySig(pub, id, d, sig)
	}
	return ed25519.Verify(pub, d[:], sig)
}

// AccountVerifies charges n signature verifications to Stats and the
// observer without performing them — the bill for a certificate the
// engine recalled from cache. The protocol required those checks; the
// engine merely already knows their answer, and the cost model must not
// see the difference.
func (v *Verifier) AccountVerifies(n int) {
	v.auth.Stats.VerifyOps.Add(int64(n))
	for i := 0; i < n; i++ {
		v.auth.observe(v.id, OpVerify)
	}
}

// VerifyMAC reports whether mac is a valid tag from `from` to `to` on d,
// comparing in constant time.
func (v *Verifier) VerifyMAC(from, to types.NodeID, d types.Digest, mac []byte) bool {
	v.auth.Stats.MACVerifyOps.Add(1)
	v.auth.observe(v.id, OpMACVerify)
	tag := v.auth.macKey(from, to).tag(d)
	return subtle.ConstantTimeCompare(tag[:], mac) == 1
}

// Certificate is a quorum certificate: a set of signatures from distinct
// replicas over the same digest. Linear protocols (HotStuff, SBFT, Kauri)
// attach certificates instead of re-running all-to-all phases (DC 1).
type Certificate struct {
	Digest  types.Digest
	Signers []types.NodeID
	Sigs    [][]byte
	// Threshold marks the certificate as produced under SchemeThreshold;
	// EncodedSize then charges one constant-size signature.
	Threshold bool
}

// Errors returned by Certificate.Verify.
var (
	ErrCertTooSmall  = errors.New("crypto: certificate below quorum size")
	ErrCertDuplicate = errors.New("crypto: duplicate signer in certificate")
	ErrCertBadSig    = errors.New("crypto: invalid signature in certificate")
	ErrCertShape     = errors.New("crypto: signer/signature length mismatch")
)

// Add appends one component signature.
func (c *Certificate) Add(id types.NodeID, sig []byte) {
	c.Signers = append(c.Signers, id)
	c.Sigs = append(c.Sigs, sig)
}

// Size returns the number of component signatures.
func (c *Certificate) Size() int { return len(c.Signers) }

// HashInto feeds every field of the certificate (or its absence, for nil)
// to h: what a message that relays a certificate signs, so the relayed
// copy cannot be swapped or stripped under the sender's signature. The
// fields are chained into one digest a signer at a time, so no preimage
// outgrows a hasher's stack buffer: a certificate costs its signer a few
// hashes and no allocation.
func (c *Certificate) HashInto(h *types.Hasher) {
	if c == nil {
		h.U64(0)
		return
	}
	var threshold uint64
	if c.Threshold {
		threshold = 1
	}
	var head types.Hasher
	d := head.Digest(c.Digest).U64(uint64(len(c.Signers))).U64(uint64(len(c.Sigs))).U64(threshold).Sum()
	for i := range max(len(c.Signers), len(c.Sigs)) {
		var link types.Hasher
		link.Digest(d)
		if i < len(c.Signers) {
			link.U64(uint64(c.Signers[i]))
		}
		if i < len(c.Sigs) {
			link.Bytes(c.Sigs[i])
		}
		d = link.Sum()
	}
	h.U64(1).Digest(d)
}

// Verify checks the certificate contains at least quorum valid signatures
// from distinct replicas over c.Digest.
//
// Shape, quorum, and duplicate checks always run — they are cheap and
// depend on this query's bytes, not on signature validity. The signature
// loop may be answered by the engine's certificate cache: the cached fact
// is "this exact signer set validly signed this digest", established only
// by a previous fully-successful run of the same loop, so a hit yields
// the same nil result — charged at the same len(Signers) verifications
// the full run would have billed. Failures are never cached.
func (c *Certificate) Verify(v *Verifier, quorum int) error {
	if len(c.Signers) != len(c.Sigs) {
		return ErrCertShape
	}
	if len(c.Signers) < quorum {
		return fmt.Errorf("%w: have %d, need %d", ErrCertTooSmall, len(c.Signers), quorum)
	}
	seen := make(map[types.NodeID]bool, len(c.Signers))
	for _, id := range c.Signers {
		if seen[id] {
			return fmt.Errorf("%w: %v", ErrCertDuplicate, id)
		}
		seen[id] = true
	}
	e := v.auth.getEngine()
	if e != nil && e.CertCached(c.Digest, c.Signers) {
		v.AccountVerifies(len(c.Signers))
		return nil
	}
	for i, id := range c.Signers {
		if !v.VerifySig(id, c.Digest, c.Sigs[i]) {
			return fmt.Errorf("%w: from %v", ErrCertBadSig, id)
		}
	}
	if e != nil {
		e.CertStore(c.Digest, c.Signers)
	}
	return nil
}

// EncodedSize returns the wire size the certificate is charged in message
// size accounting: constant under the threshold model, linear otherwise.
func (c *Certificate) EncodedSize() int {
	if c.Threshold {
		return SigSize + 8 // one aggregate signature + bitmap word
	}
	return len(c.Sigs)*(SigSize+8) + 8
}
