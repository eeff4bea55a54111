//go:build !race

package vpool

import (
	"testing"

	"bftkit/internal/crypto"
	"bftkit/internal/types"
)

// TestAllocsPrepare holds the inbound prefetch to zero allocations in
// steady state: a one-claim message through Prepare, whether its claim
// misses and is inserted into a full memo or hits, and the memo's add and
// has at capacity.
func TestAllocsPrepare(t *testing.T) {
	const cache, runs = 8, 50
	auth := crypto.NewAuthority(14)
	signed := func(i int) types.Message {
		d := digestN(i)
		return claimMsg{claims: []crypto.SigClaim{{Signer: 1, Digest: d, Sig: auth.Signer(1).Sign(d)}}}
	}
	e := New(auth, Options{Cache: cache})
	prepare := e.Prepare()
	for i := 0; i < cache; i++ { // fill the memo
		prepare(1, signed(i))
	}
	misses := make([]types.Message, runs+1) // AllocsPerRun adds one warm-up call
	for i := range misses {
		misses[i] = signed(cache + i)
	}
	next := 0
	if n := testing.AllocsPerRun(runs, func() { prepare(1, misses[next]); next++ }); n != 0 {
		t.Errorf("Prepare, memo miss into a full memo: %v allocs, want 0", n)
	}
	hit := misses[runs]
	if n := testing.AllocsPerRun(runs, func() { prepare(1, hit) }); n != 0 {
		t.Errorf("Prepare, memo hit: %v allocs, want 0", n)
	}
	if s := e.Stats(); s.Performed != cache+runs+1 || s.MemoHits != runs+1 || e.MemoLen() != cache {
		t.Fatalf("stats = %+v, memo %d: want %d performed, %d hits, a full memo", s, e.MemoLen(), cache+runs+1, runs+1)
	}

	const capacity = 8192
	s := newLRUSet(capacity)
	key := func(i int) (k [32]byte) {
		k[0], k[1], k[2] = byte(i), byte(i>>8), byte(i>>16)
		return k
	}
	for i := 0; i < capacity; i++ {
		s.add(key(i))
	}
	i := capacity
	if n := testing.AllocsPerRun(10_000, func() { s.add(key(i)); s.has(key(i - capacity/2)); i++ }); n != 0 {
		t.Errorf("lruSet add+has at capacity: %v allocs, want 0", n)
	}
}
