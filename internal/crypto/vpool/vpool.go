// Package vpool is the parallel signature-verification engine: a worker
// pool that batch-verifies independent Ed25519 signatures across cores,
// a positive-only memo that deduplicates repeated verifications of the
// same (signer, digest, signature) triple, and a bounded LRU that
// remembers fully-verified quorum certificates by (digest, signer set).
// Ed25519 verification is the dominant CPU cost of every signature-based
// protocol in the design space (Bedrock attacks exactly this bottleneck
// with verification parallelism), and BFT traffic re-verifies the same
// bytes constantly — a broadcast is checked once per receiver, a commit
// certificate once per phase it is carried through.
//
// The engine plugs into crypto.Authority via crypto.Engine. Division of
// labor: the crypto package keeps all cost-model accounting (Stats and
// the per-phase observer are charged for every protocol-required check,
// cache hit or not), so installing an engine changes host CPU time only,
// never an operation count.
//
// It is the TCP path's engine only: the simulator signs with a modeled
// authority (crypto.NewModeledAuthority), which does no Ed25519 work and
// takes no engine.
//
// On TCP the inbound lane already runs off the event loop, so Prepare
// verifies a message's claims on the lane's own goroutine; the worker
// pool is reached only by batches of more than batchChunk claims (a
// chain-replication hop chain, a proposal's requests, the benchmark's
// batch micro-suite). That prefetch path allocates nothing in steady
// state: claims are appended into a pooled buffer, the inline VerifyBatch
// path captures nothing, and the memo is an index-linked LRU that reuses
// its evicted entry once full.
//
// The lane prefetches only signatures the event loop will check anyway:
// requests, proposals with their requests' client signatures,
// certificates, checkpoints and forwards. A message whose signature may
// never matter exposes no claims and is verified on demand on the event
// loop: a stage-runner vote, which is dropped unverified once it can no
// longer change the outcome, and a reply, which only the client
// protocols that count replies check. Client nodes have no lane.
package vpool

import (
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"bftkit/internal/crypto"
	"bftkit/internal/obsv"
	"bftkit/internal/types"
)

// DefaultCache is the default bound on each cache (entries). With map
// overhead an entry costs under 100 bytes, so the two caches together
// stay under ~2 MiB per authority at this bound.
const DefaultCache = 8192

// batchChunk is the number of signatures one worker task verifies; small
// enough to spread a quorum across cores, large enough that the channel
// hop is amortized (an Ed25519 verify is ~50µs, a channel send ~100ns).
const batchChunk = 4

// Options configures an Engine.
type Options struct {
	// Workers is the verification-pool size. 0 means fully synchronous:
	// no goroutines are created and VerifyBatch runs inline on the
	// caller.
	Workers int
	// Cache bounds the signature memo and certificate LRU (entries each).
	// <= 0 disables both caches.
	Cache int
	// Tracer receives verify-pool counters and batch-size samples (nil ok).
	Tracer *obsv.Tracer
}

// Stats is a point-in-time snapshot of the engine's own counters. These
// count *mechanism* (work performed vs recalled), intentionally separate
// from crypto.Stats, which counts *protocol-required checks* and is what
// the deterministic cost model reads.
type Stats struct {
	// Performed is raw Ed25519 verifications actually executed.
	Performed int64
	// MemoHits / MemoMisses partition memo-enabled lookups.
	MemoHits   int64
	MemoMisses int64
	// CertHits / CertMisses partition certificate-cache lookups.
	CertHits   int64
	CertMisses int64
	// Rejected counts failed verifications (garbage signatures).
	Rejected int64
	// Batches / BatchedSigs count VerifyBatch calls and the claims they
	// carried.
	Batches     int64
	BatchedSigs int64
}

// Engine implements crypto.Engine. Safe for concurrent use.
type Engine struct {
	auth   *crypto.Authority
	tracer *obsv.Tracer
	cache  int

	performed   atomic.Int64
	memoHits    atomic.Int64
	memoMisses  atomic.Int64
	certHits    atomic.Int64
	certMisses  atomic.Int64
	rejected    atomic.Int64
	batches     atomic.Int64
	batchedSigs atomic.Int64

	// cacheMu guards both LRUs. One mutex, not two: a cert query touches
	// the memo via its component verifies anyway, and the critical
	// sections are map+index pokes dwarfed by the Ed25519 math outside.
	cacheMu sync.Mutex
	memo    *lruSet
	certs   *lruSet

	// poolMu serializes pool reconfiguration (Resize/Stop) against task
	// submission, mirroring the transport's stopMu pattern: submitters
	// hold the read side, so a channel is never closed mid-send.
	poolMu  sync.RWMutex
	tasks   chan func() // nil when Workers == 0 or stopped
	workers int
	wg      sync.WaitGroup
	stopped bool
}

// New builds an engine over auth's key material. Install it with
// auth.SetEngine(e); call Stop when done if Workers > 0.
func New(auth *crypto.Authority, opts Options) *Engine {
	e := &Engine{auth: auth, tracer: opts.Tracer, cache: opts.Cache}
	if e.cache > 0 {
		e.memo = newLRUSet(e.cache)
		e.certs = newLRUSet(e.cache)
	}
	e.startLocked(opts.Workers)
	return e
}

// startLocked boots k workers on a fresh task channel. Caller holds
// poolMu (or is the constructor).
func (e *Engine) startLocked(k int) {
	if k <= 0 {
		e.tasks = nil
		e.workers = 0
		return
	}
	tasks := make(chan func(), 4*k)
	e.tasks = tasks
	e.workers = k
	for i := 0; i < k; i++ {
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			for fn := range tasks {
				fn()
			}
		}()
	}
}

// Resize replaces the pool with k workers (0 = synchronous). Pending
// tasks on the old channel are drained by the exiting workers, so no
// submitted work is lost. Safe concurrently with VerifyBatch.
func (e *Engine) Resize(k int) {
	e.poolMu.Lock()
	defer e.poolMu.Unlock()
	if e.stopped {
		return
	}
	if e.tasks != nil {
		close(e.tasks)
		e.wg.Wait()
	}
	e.startLocked(k)
}

// Stop shuts the pool down, draining pending tasks. Verification keeps
// working afterwards — it just runs inline. Safe to call more than once.
func (e *Engine) Stop() {
	e.poolMu.Lock()
	defer e.poolMu.Unlock()
	if e.stopped {
		return
	}
	e.stopped = true
	if e.tasks != nil {
		close(e.tasks)
		e.wg.Wait()
		e.tasks = nil
		e.workers = 0
	}
}

// Workers returns the current pool size.
func (e *Engine) Workers() int {
	e.poolMu.RLock()
	defer e.poolMu.RUnlock()
	return e.workers
}

// Stats snapshots the engine counters.
func (e *Engine) Stats() Stats {
	return Stats{
		Performed:   e.performed.Load(),
		MemoHits:    e.memoHits.Load(),
		MemoMisses:  e.memoMisses.Load(),
		CertHits:    e.certHits.Load(),
		CertMisses:  e.certMisses.Load(),
		Rejected:    e.rejected.Load(),
		Batches:     e.batches.Load(),
		BatchedSigs: e.batchedSigs.Load(),
	}
}

// sigKey fingerprints one (signer, digest, signature) triple. The
// signature bytes are part of the key, so a forged signature over a
// previously-verified digest can never alias a genuine entry: it hashes
// to a different key, misses, and is verified (and rejected) for real.
// The fixed buffer keeps the hot path allocation-free; VerifySig refuses
// to memoize wrong-length signatures, so truncation can never alias.
func sigKey(signer types.NodeID, d types.Digest, sig []byte) [32]byte {
	var buf [8 + 32 + ed25519.SignatureSize]byte
	binary.BigEndian.PutUint64(buf[:8], uint64(signer))
	copy(buf[8:40], d[:])
	copy(buf[40:], sig)
	return sha256.Sum256(buf[:])
}

// certKey fingerprints a (digest, signer set) pair. Signers are sorted
// into a copy first: the cached fact is about the *set*, and two
// orderings of the same quorum must collide.
func certKey(d types.Digest, signers []types.NodeID) [32]byte {
	sorted := slices.Clone(signers)
	slices.Sort(sorted)
	h := sha256.New()
	h.Write(d[:])
	var idb [8]byte
	for _, id := range sorted {
		binary.BigEndian.PutUint64(idb[:], uint64(id))
		h.Write(idb[:])
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// VerifySig implements crypto.Engine: one raw verification through the
// positive-only memo. Only successes are remembered — a cached answer is
// therefore always the same boolean the real verify would produce.
func (e *Engine) VerifySig(pub ed25519.PublicKey, signer types.NodeID, d types.Digest, sig []byte) bool {
	// A wrong-length signature always fails ed25519.Verify and must never
	// reach the memo: sigKey's fixed buffer would alias it with a
	// same-prefix genuine signature.
	if e.memo == nil || len(sig) != ed25519.SignatureSize {
		return e.rawVerify(pub, d, sig)
	}
	k := sigKey(signer, d, sig)
	e.cacheMu.Lock()
	hit := e.memo.has(k)
	e.cacheMu.Unlock()
	if hit {
		e.memoHits.Add(1)
		e.tracer.VerifyPoolEvent(obsv.VerifyMemoHit)
		return true
	}
	e.memoMisses.Add(1)
	e.tracer.VerifyPoolEvent(obsv.VerifyMemoMiss)
	ok := e.rawVerify(pub, d, sig)
	if ok {
		e.cacheMu.Lock()
		e.memo.add(k)
		e.cacheMu.Unlock()
	}
	return ok
}

func (e *Engine) rawVerify(pub ed25519.PublicKey, d types.Digest, sig []byte) bool {
	e.performed.Add(1)
	e.tracer.VerifyPoolEvent(obsv.VerifyPerformed)
	ok := ed25519.Verify(pub, d[:], sig)
	if !ok {
		e.rejected.Add(1)
		e.tracer.VerifyPoolEvent(obsv.VerifyRejected)
	}
	return ok
}

// CertCached implements crypto.Engine.
func (e *Engine) CertCached(d types.Digest, signers []types.NodeID) bool {
	if e.certs == nil {
		return false
	}
	k := certKey(d, signers)
	e.cacheMu.Lock()
	hit := e.certs.has(k)
	e.cacheMu.Unlock()
	if hit {
		e.certHits.Add(1)
		e.tracer.VerifyPoolEvent(obsv.VerifyCertHit)
	} else {
		e.certMisses.Add(1)
		e.tracer.VerifyPoolEvent(obsv.VerifyCertMiss)
	}
	return hit
}

// CertStore implements crypto.Engine.
func (e *Engine) CertStore(d types.Digest, signers []types.NodeID) {
	if e.certs == nil {
		return
	}
	k := certKey(d, signers)
	e.cacheMu.Lock()
	e.certs.add(k)
	e.cacheMu.Unlock()
}

// VerifyBatch checks a batch of independent signature claims, spreading
// chunks across the worker pool when one is running (inline otherwise —
// including when the pool's queue is full or the engine is stopped, so a
// batch always completes and never blocks behind reconfiguration).
// Successes warm the memo; the return values count the split. The
// protocol's own inline verification remains the rejection authority —
// this is strictly a prefetch.
func (e *Engine) VerifyBatch(claims []crypto.SigClaim) (ok, bad int) {
	if len(claims) == 0 {
		return 0, 0
	}
	e.batches.Add(1)
	e.batchedSigs.Add(int64(len(claims)))
	e.tracer.ObserveVerifyBatch(len(claims))

	e.poolMu.RLock()
	pooled := e.tasks != nil
	e.poolMu.RUnlock()
	if !pooled || len(claims) <= batchChunk {
		good := e.verifyRun(claims)
		return good, len(claims) - good
	}
	good := e.verifyPooled(claims)
	return good, len(claims) - good
}

// verifyRun verifies claims one after another on the calling goroutine
// and returns how many hold. It captures nothing, so the inline path of
// VerifyBatch allocates nothing.
func (e *Engine) verifyRun(claims []crypto.SigClaim) int {
	good := 0
	for _, c := range claims {
		if e.VerifySig(e.auth.PublicKey(c.Signer), c.Signer, c.Digest, c.Sig) {
			good++
		}
	}
	return good
}

// verifyPooled spreads claims over the worker pool in chunks of
// batchChunk and returns how many hold.
func (e *Engine) verifyPooled(claims []crypto.SigClaim) int {
	var good atomic.Int64
	var wg sync.WaitGroup
	for start := 0; start < len(claims); start += batchChunk {
		chunk := claims[start:min(start+batchChunk, len(claims))]
		wg.Add(1)
		job := func() {
			defer wg.Done()
			good.Add(int64(e.verifyRun(chunk)))
		}
		// Submission races Resize/Stop closing the channel; the read lock
		// makes the send safe, and a full queue degrades to inline.
		e.poolMu.RLock()
		if e.tasks == nil {
			e.poolMu.RUnlock()
			job()
			continue
		}
		select {
		case e.tasks <- job:
		default:
			job()
		}
		e.poolMu.RUnlock()
	}
	wg.Wait()
	return int(good.Load())
}

// lruSet is a bounded set of 32-byte keys with exact least-recently-used
// eviction; has refreshes recency. The entries live in one array, linked
// by index from most to least recent. The array grows by append up to the
// bound; once the set is full, add reuses the evicted entry, so neither
// add nor has allocates.
type lruSet struct {
	cap        int
	items      map[[32]byte]int32 // key → index into ents
	ents       []lruEntry
	head, tail int32 // most and least recently used; -1 when empty
}

type lruEntry struct {
	key        [32]byte
	prev, next int32 // toward head and tail; -1 past either end
}

func newLRUSet(cap int) *lruSet {
	cap = min(cap, math.MaxInt32)
	return &lruSet{cap: cap, items: make(map[[32]byte]int32, cap), head: -1, tail: -1}
}

func (s *lruSet) has(k [32]byte) bool {
	i, ok := s.items[k]
	if ok {
		s.toFront(i)
	}
	return ok
}

func (s *lruSet) add(k [32]byte) {
	if i, ok := s.items[k]; ok {
		s.toFront(i)
		return
	}
	var i int32
	if len(s.ents) < s.cap {
		i = int32(len(s.ents))
		s.ents = append(s.ents, lruEntry{key: k})
	} else {
		i = s.tail
		s.unlink(i)
		delete(s.items, s.ents[i].key)
		s.ents[i].key = k
	}
	s.items[k] = i
	s.pushFront(i)
}

func (s *lruSet) toFront(i int32) {
	if i != s.head {
		s.unlink(i)
		s.pushFront(i)
	}
}

func (s *lruSet) unlink(i int32) {
	e := &s.ents[i]
	if e.prev >= 0 {
		s.ents[e.prev].next = e.next
	} else {
		s.head = e.next
	}
	if e.next >= 0 {
		s.ents[e.next].prev = e.prev
	} else {
		s.tail = e.prev
	}
}

func (s *lruSet) pushFront(i int32) {
	s.ents[i].prev, s.ents[i].next = -1, s.head
	if s.head >= 0 {
		s.ents[s.head].prev = i
	} else {
		s.tail = i
	}
	s.head = i
}

// Len returns the current entry count (tests).
func (s *lruSet) Len() int { return len(s.ents) }

// MemoLen / CertLen expose cache sizes for tests and ops surfaces.
func (e *Engine) MemoLen() int {
	if e.memo == nil {
		return 0
	}
	e.cacheMu.Lock()
	defer e.cacheMu.Unlock()
	return e.memo.Len()
}

func (e *Engine) CertLen() int {
	if e.certs == nil {
		return 0
	}
	e.cacheMu.Lock()
	defer e.cacheMu.Unlock()
	return e.certs.Len()
}

// Claims appends to dst the signature claims a message exposes, leaving
// out those with an empty signature (MAC-authenticated variants leave Sig
// nil), and returns the extended slice: dst itself when the message
// exposes none. Shared by every inbound-prepare hook.
func Claims(dst []crypto.SigClaim, from types.NodeID, m types.Message) []crypto.SigClaim {
	sc, ok := m.(crypto.SigClaimer)
	if !ok {
		return dst
	}
	start := len(dst)
	all := sc.AppendSigClaims(dst, from)
	out := all[:start]
	for _, c := range all[start:] {
		if len(c.Sig) > 0 {
			out = append(out, c)
		}
	}
	return out
}

// claimBufs recycles Prepare's claim buffers. Inbound lanes call one
// Prepare hook in parallel, so each call draws a buffer of its own.
var claimBufs = sync.Pool{New: func() any { return new([]crypto.SigClaim) }}

// Prepare returns a transport inbound-prepare hook: it batch-verifies
// every signature claim the message exposes, warming the memo so the
// event-loop verification is a lookup. Garbage signatures fail here
// (counted in Stats.Rejected) and again inline — rejection authority
// stays with the protocol.
func (e *Engine) Prepare() func(from types.NodeID, m types.Message) {
	return func(from types.NodeID, m types.Message) {
		buf := claimBufs.Get().(*[]crypto.SigClaim)
		claims := Claims((*buf)[:0], from, m)
		e.VerifyBatch(claims)
		clear(claims[:cap(claims)]) // pool no message's signatures
		*buf = claims[:0]
		claimBufs.Put(buf)
	}
}
