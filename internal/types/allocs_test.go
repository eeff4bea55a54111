//go:build !race

package types

import "testing"

var sinkDigest Digest

// TestAllocsDigests holds the allocation ceilings for the digests on every
// request's path. Not under the race detector, which allocates on its own.
func TestAllocsDigests(t *testing.T) {
	r16 := &Request{Client: ClientIDBase, ClientSeq: 1, Op: pattern(16)}
	r4k := &Request{Client: ClientIDBase, ClientSeq: 1, Op: pattern(4096)}
	reply := &Reply{Client: ClientIDBase, ClientSeq: 1, Seq: 9, Result: []byte("ok")}
	reply4k := &Reply{Client: ClientIDBase, ClientSeq: 1, Seq: 9, Result: pattern(4096)}
	batch := NewBatch(r16)
	for _, c := range []struct {
		name string
		max  float64
		f    func()
	}{
		{"16-byte Request.Digest", 0, func() { sinkDigest = r16.Digest() }},
		{"Reply.Digest", 0, func() { sinkDigest = reply.Digest() }},
		{"one-request Batch.Digest", 0, func() { sinkDigest = batch.Digest() }},
		// The spill and its hash.Hash come from a pool and go back to it.
		{"4 KiB Request.Digest", 0, func() { sinkDigest = r4k.Digest() }},
		{"4 KiB Reply.Digest", 0, func() { sinkDigest = reply4k.Digest() }},
	} {
		if got := testing.AllocsPerRun(100, c.f); got > c.max {
			t.Errorf("%s: %v allocations per call, want at most %v", c.name, got, c.max)
		}
	}
}
