package vpool

import (
	"container/list"
	"crypto/ed25519"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"testing"
	"time"

	"bftkit/internal/crypto"
	"bftkit/internal/obsv"
	"bftkit/internal/types"
)

func digestN(i int) types.Digest {
	return types.DigestBytes([]byte(fmt.Sprintf("payload-%d", i)))
}

// TestMemoPositiveOnly pins the memo contract: a genuine signature is
// verified once and recalled afterwards, while a failed verification is
// never cached — re-querying garbage re-verifies (and re-rejects) it.
func TestMemoPositiveOnly(t *testing.T) {
	auth := crypto.NewAuthority(1)
	e := New(auth, Options{Cache: 64})
	d := types.DigestBytes([]byte("m"))
	sig := auth.Signer(3).Sign(d)
	pub := auth.PublicKey(3)

	if !e.VerifySig(pub, 3, d, sig) {
		t.Fatal("genuine signature rejected")
	}
	if !e.VerifySig(pub, 3, d, sig) {
		t.Fatal("genuine signature rejected on recall")
	}
	s := e.Stats()
	if s.Performed != 1 || s.MemoHits != 1 || s.MemoMisses != 1 {
		t.Fatalf("stats = %+v, want 1 performed / 1 hit / 1 miss", s)
	}

	// Garbage over the same digest: distinct key, so it can never alias
	// the genuine entry — it is verified for real and rejected, twice.
	bad := make([]byte, ed25519.SignatureSize)
	copy(bad, sig)
	bad[0] ^= 0xff
	for i := 0; i < 2; i++ {
		if e.VerifySig(pub, 3, d, bad) {
			t.Fatal("forged signature accepted")
		}
	}
	s = e.Stats()
	if s.Rejected != 2 || s.Performed != 3 {
		t.Fatalf("stats = %+v, want 2 rejected / 3 performed (failures never cached)", s)
	}
}

// TestMemoKeyedBySignature pins that the signature bytes are part of the
// memo key: after a genuine (signer, digest) pair is cached, a *different*
// signature over the same digest by the same signer must still fail.
func TestMemoKeyedBySignature(t *testing.T) {
	auth := crypto.NewAuthority(2)
	e := New(auth, Options{Cache: 64})
	d := types.DigestBytes([]byte("replay"))
	sig := auth.Signer(0).Sign(d)
	pub := auth.PublicKey(0)
	if !e.VerifySig(pub, 0, d, sig) {
		t.Fatal("genuine signature rejected")
	}
	forged := auth.Signer(1).Sign(d) // valid bytes, wrong identity
	if e.VerifySig(pub, 0, d, forged) {
		t.Fatal("another node's signature accepted via memo")
	}
}

// TestWrongLengthSigBypassesMemo pins the aliasing guard: sigKey uses a
// fixed-size buffer, so a signature longer than ed25519.SignatureSize that
// shares a 64-byte prefix with a cached genuine signature would hash to
// the same key. Such signatures must bypass the memo entirely (they always
// fail ed25519.Verify) rather than be answered from it.
func TestWrongLengthSigBypassesMemo(t *testing.T) {
	auth := crypto.NewAuthority(3)
	e := New(auth, Options{Cache: 64})
	d := types.DigestBytes([]byte("alias"))
	sig := auth.Signer(5).Sign(d)
	pub := auth.PublicKey(5)
	if !e.VerifySig(pub, 5, d, sig) {
		t.Fatal("genuine signature rejected")
	}
	long := append(append([]byte{}, sig...), 0xde, 0xad) // same 64-byte prefix
	if e.VerifySig(pub, 5, d, long) {
		t.Fatal("over-long signature accepted via memo aliasing")
	}
	short := sig[:ed25519.SignatureSize-1]
	if e.VerifySig(pub, 5, d, short) {
		t.Fatal("truncated signature accepted")
	}
	if e.VerifySig(pub, 5, d, nil) {
		t.Fatal("nil signature accepted")
	}
}

// TestCertCacheRoundTrip pins the certificate LRU: a stored (digest,
// signer set) fact is recalled regardless of signer ordering, and a
// different set or digest misses.
func TestCertCacheRoundTrip(t *testing.T) {
	auth := crypto.NewAuthority(4)
	e := New(auth, Options{Cache: 64})
	d := types.DigestBytes([]byte("cert"))
	set := []types.NodeID{2, 0, 1}
	if e.CertCached(d, set) {
		t.Fatal("unexpected hit on empty cache")
	}
	e.CertStore(d, set)
	if !e.CertCached(d, set) {
		t.Fatal("stored certificate not recalled")
	}
	if !e.CertCached(d, []types.NodeID{0, 1, 2}) {
		t.Fatal("signer order must not affect the cache key")
	}
	if e.CertCached(d, []types.NodeID{0, 1, 3}) {
		t.Fatal("different signer set hit the cache")
	}
	d2 := types.DigestBytes([]byte("other"))
	if e.CertCached(d2, set) {
		t.Fatal("different digest hit the cache")
	}
}

// TestLRUEviction pins the bound: the caches never exceed their capacity
// and evict least-recently-used entries first.
func TestLRUEviction(t *testing.T) {
	s := newLRUSet(3)
	keys := make([][32]byte, 5)
	for i := range keys {
		keys[i][0] = byte(i)
		s.add(keys[i])
	}
	if s.Len() != 3 {
		t.Fatalf("len = %d, want capacity 3", s.Len())
	}
	if s.has(keys[0]) || s.has(keys[1]) {
		t.Fatal("oldest entries must be evicted")
	}
	if !s.has(keys[2]) || !s.has(keys[3]) || !s.has(keys[4]) {
		t.Fatal("recent entries must survive")
	}
	// has() refreshes recency: touch keys[2], add one more, and keys[3]
	// (now oldest) goes instead.
	s.has(keys[2])
	s.add(keys[0])
	if !s.has(keys[2]) {
		t.Fatal("recently-touched entry evicted")
	}
	if s.has(keys[3]) {
		t.Fatal("least-recently-used entry survived")
	}
}

// TestEngineLRUBounded drives the engine past its cache capacity and
// checks MemoLen/CertLen stay bounded while answers stay correct.
func TestEngineLRUBounded(t *testing.T) {
	auth := crypto.NewAuthority(5)
	e := New(auth, Options{Cache: 8})
	pub := auth.PublicKey(0)
	signer := auth.Signer(0)
	for i := 0; i < 20; i++ {
		d := digestN(i)
		if !e.VerifySig(pub, 0, d, signer.Sign(d)) {
			t.Fatalf("genuine signature %d rejected", i)
		}
		e.CertStore(d, []types.NodeID{0, 1, 2})
	}
	if e.MemoLen() != 8 || e.CertLen() != 8 {
		t.Fatalf("memo=%d certs=%d, want both bounded at 8", e.MemoLen(), e.CertLen())
	}
	// An evicted entry is simply re-verified — still correct.
	d0 := digestN(0)
	if !e.VerifySig(pub, 0, d0, signer.Sign(d0)) {
		t.Fatal("evicted entry must re-verify correctly")
	}
}

// TestChargedAccountingInvariance pins the determinism contract: the
// crypto.Stats the cost model reads are bit-identical with and without an
// engine installed, for the same protocol-level call sequence — including
// certificate verifies answered from the cache.
func TestChargedAccountingInvariance(t *testing.T) {
	run := func(install bool) (sign, verify, mac, macVerify int64) {
		auth := crypto.NewAuthority(9)
		if install {
			auth.SetEngine(New(auth, Options{Cache: 64}))
		}
		v := auth.Verifier()
		d := types.DigestBytes([]byte("acct"))
		sig := auth.Signer(1).Sign(d)
		for i := 0; i < 3; i++ { // repeat: memo hits must charge like work
			v.VerifySig(1, d, sig)
		}
		cert := &crypto.Certificate{Digest: d}
		for i := 0; i < 3; i++ {
			cert.Add(types.NodeID(i), auth.Signer(types.NodeID(i)).Sign(d))
		}
		for i := 0; i < 2; i++ { // second run is a cert-cache hit
			if err := cert.Verify(v, 3); err != nil {
				t.Fatalf("valid certificate rejected (engine=%v): %v", install, err)
			}
		}
		return auth.Stats.Snapshot()
	}
	s1, v1, m1, mv1 := run(false)
	s2, v2, m2, mv2 := run(true)
	if s1 != s2 || v1 != v2 || m1 != m2 || mv1 != mv2 {
		t.Fatalf("charged stats diverge: plain %d/%d/%d/%d vs engine %d/%d/%d/%d",
			s1, v1, m1, mv1, s2, v2, m2, mv2)
	}
}

// TestVerifyBatch pins the batch API: correct good/bad split, memo warmed
// so inline re-verification is recalled, claims counted.
func TestVerifyBatch(t *testing.T) {
	auth := crypto.NewAuthority(6)
	e := New(auth, Options{Workers: 4, Cache: 256})
	defer e.Stop()
	var claims []crypto.SigClaim
	for i := 0; i < 10; i++ {
		d := digestN(i)
		sig := auth.Signer(types.NodeID(i)).Sign(d)
		if i%3 == 0 { // corrupt every third claim
			sig[0] ^= 0xff
		}
		claims = append(claims, crypto.SigClaim{Signer: types.NodeID(i), Digest: d, Sig: sig})
	}
	ok, bad := e.VerifyBatch(claims)
	if ok != 6 || bad != 4 {
		t.Fatalf("batch split = %d ok / %d bad, want 6/4", ok, bad)
	}
	s := e.Stats()
	if s.Batches != 1 || s.BatchedSigs != 10 || s.Rejected != 4 {
		t.Fatalf("stats = %+v, want 1 batch / 10 sigs / 4 rejected", s)
	}
	// The good claims are now warm: re-verifying performs no new work.
	performedBefore := s.Performed
	claim := claims[1]
	if !e.VerifySig(auth.PublicKey(claim.Signer), claim.Signer, claim.Digest, claim.Sig) {
		t.Fatal("warmed claim rejected")
	}
	if got := e.Stats().Performed; got != performedBefore {
		t.Fatalf("performed grew %d -> %d; warmed claim should be a memo hit", performedBefore, got)
	}
}

// TestVerifyBatchInlineWhenStopped pins graceful degradation: a stopped
// (or never-started) pool still verifies batches, inline.
func TestVerifyBatchInlineWhenStopped(t *testing.T) {
	auth := crypto.NewAuthority(7)
	for _, mode := range []string{"workers0", "stopped"} {
		e := New(auth, Options{Workers: 2, Cache: 0})
		if mode == "workers0" {
			e = New(auth, Options{Workers: 0, Cache: 0})
		} else {
			e.Stop()
		}
		var claims []crypto.SigClaim
		for i := 0; i < 9; i++ {
			d := digestN(i)
			claims = append(claims, crypto.SigClaim{
				Signer: types.NodeID(i), Digest: d, Sig: auth.Signer(types.NodeID(i)).Sign(d),
			})
		}
		if ok, bad := e.VerifyBatch(claims); ok != 9 || bad != 0 {
			t.Fatalf("%s: batch split = %d/%d, want 9/0", mode, ok, bad)
		}
		if e.Workers() != 0 {
			t.Fatalf("%s: workers = %d, want 0", mode, e.Workers())
		}
	}
}

// TestTracerCounters pins the obsv plumbing: engine events land in the
// tracer's VerifyPoolStats and the batch-size histogram.
func TestTracerCounters(t *testing.T) {
	auth := crypto.NewAuthority(8)
	tr := obsv.New(obsv.Options{})
	e := New(auth, Options{Cache: 64, Tracer: tr})
	d := types.DigestBytes([]byte("tr"))
	sig := auth.Signer(0).Sign(d)
	pub := auth.PublicKey(0)
	e.VerifySig(pub, 0, d, sig)
	e.VerifySig(pub, 0, d, sig)
	e.VerifySig(pub, 0, d, []byte("garbage"))
	e.CertCached(d, []types.NodeID{0})
	e.CertStore(d, []types.NodeID{0})
	e.CertCached(d, []types.NodeID{0})
	e.VerifyBatch([]crypto.SigClaim{{Signer: 0, Digest: d, Sig: sig}})
	vs := tr.VerifyPoolStats()
	// The garbage signature is wrong-length, so it bypasses the memo
	// (no miss counted) and goes straight to a raw verify + reject.
	want := obsv.VerifyPoolStats{Performed: 2, MemoHits: 2, MemoMisses: 1, CertHits: 1, CertMisses: 1, Rejected: 1}
	if vs != want {
		t.Fatalf("tracer stats = %+v, want %+v", vs, want)
	}
	if tr.VerifyBatchSize.Count() != 1 {
		t.Fatalf("batch-size histogram count = %d, want 1", tr.VerifyBatchSize.Count())
	}
}

// TestConcurrentBatchResizeStop is the race/stress test: many goroutines
// submit batches while the pool is resized up, down, to zero, and finally
// stopped. Run under -race this pins the poolMu discipline — no send on a
// closed channel, no lost verifications, no deadlock.
func TestConcurrentBatchResizeStop(t *testing.T) {
	auth := crypto.NewAuthority(11)
	e := New(auth, Options{Workers: 4, Cache: 1024})
	var claims []crypto.SigClaim
	for i := 0; i < 16; i++ {
		d := digestN(i)
		claims = append(claims, crypto.SigClaim{
			Signer: types.NodeID(i), Digest: d, Sig: auth.Signer(types.NodeID(i)).Sign(d),
		})
	}
	const submitters = 8
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if ok, bad := e.VerifyBatch(claims); ok != 16 || bad != 0 {
					t.Errorf("batch split = %d/%d, want 16/0", ok, bad)
					return
				}
			}
		}()
	}
	for _, k := range []int{1, 8, 0, 2, 4} {
		e.Resize(k)
	}
	e.Stop()
	e.Resize(3) // no-op after Stop
	if e.Workers() != 0 {
		t.Fatalf("workers = %d after Stop, want 0", e.Workers())
	}
	close(stop)
	wg.Wait()
	e.Stop() // idempotent
}

// TestStopDrainsGoroutines mirrors the transport's leak check: worker
// goroutines exist while the pool runs and are gone after Stop.
func TestStopDrainsGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	auth := crypto.NewAuthority(12)
	e := New(auth, Options{Workers: 6, Cache: 64})
	if runtime.NumGoroutine() < before+6 {
		t.Fatalf("expected 6 worker goroutines, have %d over baseline",
			runtime.NumGoroutine()-before)
	}
	var claims []crypto.SigClaim
	for i := 0; i < 12; i++ {
		d := digestN(i)
		claims = append(claims, crypto.SigClaim{
			Signer: types.NodeID(i), Digest: d, Sig: auth.Signer(types.NodeID(i)).Sign(d),
		})
	}
	e.VerifyBatch(claims)
	e.Stop()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not drain: %d > %d", runtime.NumGoroutine(), before)
		}
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
}

// TestClaims pins the claim-extraction helper: non-claimers and empty
// signatures (MAC-mode messages) append nothing, and what the caller's
// buffer already holds is kept.
func TestClaims(t *testing.T) {
	d := types.DigestBytes([]byte("c"))
	if got := Claims(nil, 0, plainMsg{}); got != nil {
		t.Fatalf("non-claimer appended %+v", got)
	}
	if got := Claims(nil, 0, claimMsg{claims: []crypto.SigClaim{{Signer: 1, Digest: d}}}); len(got) != 0 {
		t.Fatalf("empty-signature claims must be filtered out, got %+v", got)
	}
	prior := crypto.SigClaim{Signer: 7, Digest: d}
	got := Claims([]crypto.SigClaim{prior}, 0, claimMsg{claims: []crypto.SigClaim{
		{Signer: 1, Digest: d},
		{Signer: 2, Digest: d, Sig: []byte{1, 2, 3}},
	}})
	if len(got) != 2 || got[0].Signer != 7 || got[1].Signer != 2 {
		t.Fatalf("claims = %+v, want the prior claim, then the one signed claim", got)
	}
}

// TestLRUMatchesListReference runs a random add/has program against the
// index-linked set and the container/list set it replaced: membership and
// Len agree after every operation, so eviction is exactly LRU and memo
// hit/miss counts are what they were.
func TestLRUMatchesListReference(t *testing.T) {
	for _, capacity := range []int{1, 2, 5, 64} {
		rng := rand.New(rand.NewPCG(uint64(capacity), 30))
		s, ref := newLRUSet(capacity), newListLRU(capacity)
		keys := make([][32]byte, 3*capacity+2)
		for i := range keys {
			keys[i][0], keys[i][1] = byte(i), byte(i>>8)
		}
		for op := 0; op < 20_000; op++ {
			k := keys[rng.IntN(len(keys))]
			if rng.IntN(2) == 0 {
				s.add(k)
				ref.add(k)
			} else if got, want := s.has(k), ref.has(k); got != want {
				t.Fatalf("cap %d op %d: has = %v, reference %v", capacity, op, got, want)
			}
			if s.Len() != ref.order.Len() {
				t.Fatalf("cap %d op %d: Len = %d, reference %d", capacity, op, s.Len(), ref.order.Len())
			}
			for _, k := range keys {
				if _, in := s.items[k]; in != (ref.items[k] != nil) {
					t.Fatalf("cap %d op %d: membership of %x differs", capacity, op, k[:2])
				}
			}
		}
	}
}

// listLRU is the container/list set lruSet replaced, kept as the
// reference TestLRUMatchesListReference checks it against.
type listLRU struct {
	cap   int
	order *list.List // front = most recent; values are [32]byte keys
	items map[[32]byte]*list.Element
}

func newListLRU(cap int) *listLRU {
	return &listLRU{cap: cap, order: list.New(), items: make(map[[32]byte]*list.Element)}
}

func (s *listLRU) has(k [32]byte) bool {
	el, ok := s.items[k]
	if ok {
		s.order.MoveToFront(el)
	}
	return ok
}

func (s *listLRU) add(k [32]byte) {
	if el, ok := s.items[k]; ok {
		s.order.MoveToFront(el)
		return
	}
	s.items[k] = s.order.PushFront(k)
	for s.order.Len() > s.cap {
		oldest := s.order.Back()
		s.order.Remove(oldest)
		delete(s.items, oldest.Value.([32]byte))
	}
}

// TestPrepareConcurrentBuffers calls one Prepare hook from many goroutines
// with distinct signed messages. Each claim is verified exactly once and
// none is rejected, which a claim buffer shared between two calls would
// break (under -race it would also be a reported race).
func TestPrepareConcurrentBuffers(t *testing.T) {
	auth := crypto.NewAuthority(13)
	e := New(auth, Options{Cache: 4096})
	prepare := e.Prepare()
	const goroutines, perG = 8, 40
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		msgs := make([]claimMsg, perG)
		for i := range msgs {
			signer := types.NodeID(g)
			d := digestN(g*perG + i)
			msgs[i] = claimMsg{claims: []crypto.SigClaim{{Signer: signer, Digest: d, Sig: auth.Signer(signer).Sign(d)}}}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, m := range msgs {
				prepare(types.NodeID(g), m)
			}
		}()
	}
	wg.Wait()
	s := e.Stats()
	if s.Performed != goroutines*perG || s.Rejected != 0 || s.BatchedSigs != goroutines*perG {
		t.Fatalf("stats = %+v, want %d performed and batched, 0 rejected", s, goroutines*perG)
	}
}

type plainMsg struct{}

func (plainMsg) Kind() string { return "PLAIN" }

type claimMsg struct{ claims []crypto.SigClaim }

func (claimMsg) Kind() string { return "CLAIMED" }
func (m claimMsg) AppendSigClaims(dst []crypto.SigClaim, _ types.NodeID) []crypto.SigClaim {
	return append(dst, m.claims...)
}
