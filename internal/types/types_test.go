package types

import (
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestNodeIDRanges(t *testing.T) {
	if NodeID(0).IsClient() || NodeID(9999).IsClient() {
		t.Fatal("replica IDs must not classify as clients")
	}
	if !ClientIDBase.IsClient() {
		t.Fatal("ClientIDBase must classify as a client")
	}
	if got := NodeID(3).String(); got != "r3" {
		t.Fatalf("replica rendering: %q", got)
	}
	if got := (ClientIDBase + 2).String(); got != "c2" {
		t.Fatalf("client rendering: %q", got)
	}
}

func TestRequestDigestExcludesSignature(t *testing.T) {
	a := &Request{Client: ClientIDBase, ClientSeq: 1, Op: []byte("x"), Sig: []byte("sig1")}
	b := &Request{Client: ClientIDBase, ClientSeq: 1, Op: []byte("x"), Sig: []byte("sig2")}
	if a.Digest() != b.Digest() {
		t.Fatal("signature must not affect the request digest")
	}
}

func TestRequestDigestSensitivity(t *testing.T) {
	base := &Request{Client: ClientIDBase, ClientSeq: 1, Op: []byte("x")}
	variants := []*Request{
		{Client: ClientIDBase + 1, ClientSeq: 1, Op: []byte("x")},
		{Client: ClientIDBase, ClientSeq: 2, Op: []byte("x")},
		{Client: ClientIDBase, ClientSeq: 1, Op: []byte("y")},
		{Client: ClientIDBase, ClientSeq: 1, Op: []byte("x"), ArrivalHint: 7},
	}
	for i, v := range variants {
		if v.Digest() == base.Digest() {
			t.Fatalf("variant %d collides with base digest", i)
		}
	}
}

func TestBatchDigest(t *testing.T) {
	r1 := &Request{Client: ClientIDBase, ClientSeq: 1, Op: []byte("a")}
	r2 := &Request{Client: ClientIDBase, ClientSeq: 2, Op: []byte("b")}
	if NewBatch().Digest() != ZeroDigest {
		t.Fatal("empty batch must have the zero digest")
	}
	if NewBatch(r1, r2).Digest() == NewBatch(r2, r1).Digest() {
		t.Fatal("batch digest must be order-sensitive")
	}
	var nilBatch *Batch
	if nilBatch.Digest() != ZeroDigest || nilBatch.Len() != 0 {
		t.Fatal("nil batch must behave as empty")
	}
}

func TestReplyDigestExcludesReplica(t *testing.T) {
	a := &Reply{Replica: 0, Client: ClientIDBase, ClientSeq: 1, Seq: 5, Result: []byte("r")}
	b := &Reply{Replica: 3, Client: ClientIDBase, ClientSeq: 1, Seq: 5, Result: []byte("r")}
	if a.Digest() != b.Digest() {
		t.Fatal("matching replies from different replicas must share a digest")
	}
	c := &Reply{Replica: 0, Client: ClientIDBase, ClientSeq: 1, Seq: 5, Result: []byte("r"), Speculative: true}
	if a.Digest() == c.Digest() {
		t.Fatal("speculative flag must be part of the digest")
	}
}

func TestNormalizeVoters(t *testing.T) {
	p := &CommitProof{Voters: []NodeID{3, 1, 3, 0, 1}}
	p.NormalizeVoters()
	want := []NodeID{0, 1, 3}
	if len(p.Voters) != len(want) {
		t.Fatalf("got %v", p.Voters)
	}
	for i := range want {
		if p.Voters[i] != want[i] {
			t.Fatalf("got %v, want %v", p.Voters, want)
		}
	}
}

func TestQuorumArithmetic(t *testing.T) {
	// Property: at every n = 3f+1, two 2f+1 quorums intersect in at
	// least f+1 replicas — the honest-intersection bedrock of BFT.
	f := func(raw uint8) bool {
		ft := int(raw%20) + 1
		n := 3*ft + 1
		if FaultThreshold(n) != ft {
			return false
		}
		q := QuorumSize(ft)
		return 2*q-n >= ft+1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHasherDeterminism(t *testing.T) {
	f := func(a uint64, b []byte, s string) bool {
		var h1, h2 Hasher
		h1.U64(a).Bytes(b).Str(s)
		h2.U64(a).Bytes(b).Str(s)
		return h1.Sum() == h2.Sum()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHasherFieldBoundaries(t *testing.T) {
	// Length prefixes must prevent concatenation ambiguity: ("ab","c")
	// and ("a","bc") must hash differently.
	var h1, h2 Hasher
	h1.Str("ab").Str("c")
	h2.Str("a").Str("bc")
	if h1.Sum() == h2.Sum() {
		t.Fatal("field boundary collision")
	}
}

func pattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7 + 3)
	}
	return b
}

// TestDigestsAreStable pins digests to the values the materialised
// preimage produced before the hasher streamed: signatures, certificates
// and every virtual metric hang off these bytes.
func TestDigestsAreStable(t *testing.T) {
	r16 := &Request{Client: ClientIDBase + 1, ClientSeq: 42, Op: pattern(16), ArrivalHint: 123456789}
	r4k := &Request{Client: ClientIDBase + 2, ClientSeq: 7, Op: pattern(4096), ArrivalHint: -5}
	reply := &Reply{Replica: 2, Client: ClientIDBase + 1, ClientSeq: 42, View: 3, Seq: 99,
		Result: []byte("ok"), Speculative: true, History: r16.Digest()}
	reply300 := *reply
	reply300.Speculative, reply300.Result = false, pattern(300)
	var fields, spilling, empty Hasher
	fields.Str("golden").U64(7).Digest(r16.Digest()).Bytes(pattern(5)).Bytes(nil).Str("")
	// Fields on both sides of the staging buffer, in every order the
	// hasher treats differently: long string, staged bytes after a
	// spill, a write-through, a digest and a u64 after one.
	spilling.Str(string(pattern(500))).U64(1).Bytes(pattern(159)).Bytes(pattern(160)).
		Bytes(pattern(161)).Digest(r4k.Digest()).U64(2)
	for _, c := range []struct {
		name string
		got  Digest
		want string
	}{
		{"request 16 B", r16.Digest(), "c9db5d626238c0d64835657a0af08456d9d6f4d398128c9d8056d5f24681e28a"},
		{"request 4 KiB", r4k.Digest(), "8ecb6cd0f9e8ed9a7b1fcd571c0a10eaa2c45ce104956b3d205ba7f24911abc3"},
		{"batch of one", NewBatch(r16).Digest(), "fe2600f15d9cb0eded62c47453a92697b660301717c596091e614158b58fd4b7"},
		{"batch of two", NewBatch(r16, r4k).Digest(), "aade5623584db02f32da439dea8795e904733cf3beb05ba46693a054c99b3337"},
		{"reply", reply.Digest(), "b12109685c7c47ce09443106464f38fec8d007ae4cc937321a1db63d43a9e484"},
		{"reply 300 B", reply300.Digest(), "fd8ae296a3c451eb9b50a80650abdf2926404e3363d88230c26ae31267a86056"},
		{"hasher fields", fields.Sum(), "c05f9a8bedcbc9e0ef79a70200553f89508d30026f8ca413894e81f87a4573b1"},
		{"hasher spilling", spilling.Sum(), "2ee486a6b5ec0701bb86735ee82839214a525d83e2abf0c09be4ed700d7f818f"},
		{"hasher empty", empty.Sum(), "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
	} {
		if got := hex.EncodeToString(c.got[:]); got != c.want {
			t.Errorf("%s: digest %s, want %s", c.name, got, c.want)
		}
	}
}

// TestHasherStreamsTheSameBytes checks the streaming hasher against the
// definition it replaced — SHA-256 of the concatenated fields — on random
// field sequences whose sizes straddle the staging buffer.
func TestHasherStreamsTheSameBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sizes := []int{0, 1, 31, 32, stageLen - 9, stageLen - 8, stageLen, stageLen + 1, 3*stageLen + 7, 5000}
	for round := 0; round < 500; round++ {
		var h Hasher
		var preimage []byte
		u64 := func(v uint64) { preimage = binary.BigEndian.AppendUint64(preimage, v) }
		for i, fields := 0, rng.Intn(12); i < fields; i++ {
			b := make([]byte, sizes[rng.Intn(len(sizes))])
			rng.Read(b)
			switch rng.Intn(4) {
			case 0:
				v := rng.Uint64()
				h.U64(v)
				u64(v)
			case 1:
				h.Bytes(b)
				u64(uint64(len(b)))
				preimage = append(preimage, b...)
			case 2:
				h.Str(string(b))
				u64(uint64(len(b)))
				preimage = append(preimage, b...)
			case 3:
				d := DigestBytes(b)
				h.Digest(d)
				u64(uint64(len(d)))
				preimage = append(preimage, d[:]...)
			}
		}
		if got, want := h.Sum(), DigestBytes(preimage); got != want {
			t.Fatalf("round %d: streamed %v, materialised %v (%d bytes)", round, got, want, len(preimage))
		}
	}
}

// TestPooledSpillsAreNotShared: hashers that spill on several goroutines
// at once each stream through a spill of their own.
func TestPooledSpillsAreNotShared(t *testing.T) {
	reqs := make([]*Request, 8)
	want := make([]Digest, len(reqs))
	for i := range reqs {
		reqs[i] = &Request{Client: ClientIDBase, ClientSeq: uint64(i), Op: pattern(1000 + 100*i)}
		want[i] = reqs[i].Digest()
	}
	var wg sync.WaitGroup
	for i := range reqs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 200 {
				if got := reqs[i].Digest(); got != want[i] {
					t.Errorf("request %d: digest %v on a shared pool, %v alone", i, got, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}
