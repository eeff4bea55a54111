package vpool

import (
	"runtime"
	"testing"

	"bftkit/internal/crypto"
	"bftkit/internal/types"
)

// benchClaims builds one batch of genuine, distinct signature claims —
// the shape of a PBFT commit wave arriving at one replica.
func benchClaims(auth *crypto.Authority, n int) []crypto.SigClaim {
	claims := make([]crypto.SigClaim, n)
	for i := range claims {
		d := digestN(i)
		claims[i] = crypto.SigClaim{
			Signer: types.NodeID(i),
			Digest: d,
			Sig:    auth.Signer(types.NodeID(i)).Sign(d),
		}
	}
	return claims
}

const benchBatch = 64

// BenchmarkVerifySerial is the baseline: every signature verified inline
// on one goroutine, no caches (Workers=0, Cache=0).
func BenchmarkVerifySerial(b *testing.B) {
	auth := crypto.NewAuthority(1)
	e := New(auth, Options{Workers: 0, Cache: 0})
	claims := benchClaims(auth, benchBatch)
	b.SetBytes(benchBatch)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ok, _ := e.VerifyBatch(claims); ok != benchBatch {
			b.Fatal("verification failed")
		}
	}
}

// BenchmarkVerifyPooled spreads the same batch across the worker pool,
// still with caches off so every iteration performs the full Ed25519
// work — this isolates the parallelism win.
func BenchmarkVerifyPooled(b *testing.B) {
	auth := crypto.NewAuthority(1)
	e := New(auth, Options{Workers: runtime.GOMAXPROCS(0), Cache: 0})
	defer e.Stop()
	claims := benchClaims(auth, benchBatch)
	b.SetBytes(benchBatch)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ok, _ := e.VerifyBatch(claims); ok != benchBatch {
			b.Fatal("verification failed")
		}
	}
}

// BenchmarkVerifyCached re-verifies an already-warm batch: the steady
// state of broadcast traffic, where every receiver after the first is a
// memo hit. This isolates the memoization win.
func BenchmarkVerifyCached(b *testing.B) {
	auth := crypto.NewAuthority(1)
	e := New(auth, Options{Workers: 0, Cache: 2 * benchBatch})
	claims := benchClaims(auth, benchBatch)
	e.VerifyBatch(claims) // warm the memo
	b.SetBytes(benchBatch)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ok, _ := e.VerifyBatch(claims); ok != benchBatch {
			b.Fatal("verification failed")
		}
	}
}

// BenchmarkCertVerifyCached measures a quorum-certificate check answered
// by the certificate LRU versus component-wise verification.
func BenchmarkCertVerifyCached(b *testing.B) {
	auth := crypto.NewAuthority(1)
	auth.SetEngine(New(auth, Options{Workers: 0, Cache: 64}))
	v := auth.Verifier()
	d := types.DigestBytes([]byte("bench-cert"))
	cert := &crypto.Certificate{Digest: d}
	for i := 0; i < 5; i++ {
		cert.Add(types.NodeID(i), auth.Signer(types.NodeID(i)).Sign(d))
	}
	if err := cert.Verify(v, 5); err != nil { // warm the cert cache
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cert.Verify(v, 5); err != nil {
			b.Fatal(err)
		}
	}
}
