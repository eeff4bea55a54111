package crypto

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"slices"
	"testing"
	"testing/quick"

	"bftkit/internal/types"
)

func TestSignVerifyRoundTrip(t *testing.T) {
	auth := NewAuthority(1)
	s := auth.Signer(2)
	v := auth.Verifier()
	d := types.DigestBytes([]byte("hello"))
	sig := s.Sign(d)
	if !v.VerifySig(2, d, sig) {
		t.Fatal("own signature must verify")
	}
	if v.VerifySig(3, d, sig) {
		t.Fatal("signature must not verify under another identity")
	}
	d2 := types.DigestBytes([]byte("tampered"))
	if v.VerifySig(2, d2, sig) {
		t.Fatal("signature must not cover a different digest")
	}
}

func TestMACRoundTrip(t *testing.T) {
	auth := NewAuthority(7)
	s := auth.Signer(0)
	v := auth.Verifier()
	d := types.DigestBytes([]byte("m"))
	mac := s.MAC(1, d)
	if !v.VerifyMAC(0, 1, d, mac) {
		t.Fatal("MAC must verify between the key pair")
	}
	// MAC keys are symmetric per pair: the reverse direction verifies
	// too — which is precisely why MACs lack non-repudiation (DC11).
	if !v.VerifyMAC(1, 0, d, mac) {
		t.Fatal("pairwise MAC keys are symmetric")
	}
	if v.VerifyMAC(0, 2, d, mac) {
		t.Fatal("a third party must not verify the tag")
	}
}

func TestAuthVector(t *testing.T) {
	auth := NewAuthority(7)
	s := auth.Signer(1)
	v := auth.Verifier()
	peers := []types.NodeID{0, 1, 2, 3}
	d := types.DigestBytes([]byte("vec"))
	vec := s.AuthVector(d, peers)
	if vec[1] != nil {
		t.Fatal("no self-MAC expected")
	}
	for _, to := range []types.NodeID{0, 2, 3} {
		if !v.VerifyMAC(1, to, d, vec[to]) {
			t.Fatalf("vector entry for %v must verify", to)
		}
		if !bytes.Equal(vec[to], s.MAC(to, d)) || cap(vec[to]) != MACSize {
			t.Fatalf("vector entry for %v is not its own MAC-sized tag", to)
		}
	}
}

// TestMACIsHMACSHA256 holds the pad-based MAC to crypto/hmac's bytes for
// every ordered pair of nodes 0–4, and VerifyMAC to accepting exactly the
// tag: each call charges one MAC op (or MAC verify) and one observer event.
func TestMACIsHMACSHA256(t *testing.T) {
	auth := NewAuthority(7)
	var events [4]int
	auth.SetObserver(func(_ types.NodeID, op Op) { events[op]++ })
	// Pinned tags: the key derivation and the HMAC are part of the wire.
	if got := hex.EncodeToString(auth.Signer(0).MAC(1, types.DigestBytes([]byte("m")))); got != "bcd078210088b58af0f82b84beaf51cff6588cd3078320a27249ae81d4d92f34" {
		t.Fatalf("MAC(0→1, \"m\") = %s", got)
	}
	if got := hex.EncodeToString(auth.Signer(3).MAC(2, types.DigestBytes([]byte("m")))); got != "1d23d338f6cd04d24dda918c588facaea3344a5e5439c6dc81dff25729b5fd71" {
		t.Fatalf("MAC(3→2, \"m\") = %s", got)
	}
	digests := []types.Digest{{}, types.DigestBytes([]byte("a")), types.DigestBytes([]byte("vote")), {0: 0xff, 31: 0x01}}
	v := auth.VerifierFor(9)
	macs, verifies := 2, 0
	for x := types.NodeID(0); x < 5; x++ {
		for y := types.NodeID(0); y < 5; y++ {
			if x == y {
				continue
			}
			key := auth.macSecret(min(x, y), max(x, y))
			for di, d := range digests {
				want := hmac.New(sha256.New, key[:])
				want.Write(d[:])
				tag := auth.Signer(x).MAC(y, d)
				macs++
				if !bytes.Equal(tag, want.Sum(nil)) {
					t.Fatalf("MAC(%v→%v, digest %d) = %x, want crypto/hmac's %x", x, y, di, tag, want.Sum(nil))
				}
				flipped := slices.Clone(tag)
				flipped[di%MACSize] ^= 1 << (di % 8)
				other := digests[(di+1)%len(digests)]
				wrong := (y + 1) % 5
				if wrong == x {
					wrong = (wrong + 1) % 5
				}
				checks := []struct {
					name     string
					from, to types.NodeID
					d        types.Digest
					mac      []byte
					want     bool
				}{
					{"the tag", x, y, d, tag, true},
					{"a flipped bit", x, y, d, flipped, false},
					{"a truncated tag", x, y, d, tag[:MACSize-1], false},
					{"the wrong pair", x, wrong, d, tag, false},
					{"the wrong digest", x, y, other, tag, false},
				}
				for _, c := range checks {
					if v.VerifyMAC(c.from, c.to, c.d, c.mac) != c.want {
						t.Fatalf("VerifyMAC(%v→%v, digest %d) of %s: got %v", x, y, di, c.name, !c.want)
					}
					verifies++
				}
			}
		}
	}
	if _, _, m, mv := auth.Stats.Snapshot(); m != int64(macs) || mv != int64(verifies) {
		t.Fatalf("Stats: %d MACs, %d MAC verifies, want %d and %d", m, mv, macs, verifies)
	}
	if events[OpMAC] != macs || events[OpMACVerify] != verifies || events[OpSign]+events[OpVerify] != 0 {
		t.Fatalf("observer events %v, want %d MACs and %d MAC verifies", events, macs, verifies)
	}
}

func TestDeterministicKeys(t *testing.T) {
	a1 := NewAuthority(42)
	a2 := NewAuthority(42)
	d := types.DigestBytes([]byte("d"))
	if !a2.Verifier().VerifySig(5, d, a1.Signer(5).Sign(d)) {
		t.Fatal("same seed must derive the same keys")
	}
	a3 := NewAuthority(43)
	if a3.Verifier().VerifySig(5, d, a1.Signer(5).Sign(d)) {
		t.Fatal("different seeds must derive different keys")
	}
}

func TestCertificateVerify(t *testing.T) {
	auth := NewAuthority(3)
	v := auth.Verifier()
	d := types.DigestBytes([]byte("cert"))
	cert := &Certificate{Digest: d}
	for i := 0; i < 3; i++ {
		cert.Add(types.NodeID(i), auth.Signer(types.NodeID(i)).Sign(d))
	}
	if err := cert.Verify(v, 3); err != nil {
		t.Fatalf("valid certificate rejected: %v", err)
	}
	if err := cert.Verify(v, 4); err == nil {
		t.Fatal("undersized certificate accepted")
	}
	// Duplicate signer must be rejected.
	dup := &Certificate{Digest: d}
	sig := auth.Signer(0).Sign(d)
	dup.Add(0, sig)
	dup.Add(0, sig)
	dup.Add(1, auth.Signer(1).Sign(d))
	if err := dup.Verify(v, 3); err == nil {
		t.Fatal("duplicate signer accepted")
	}
	// Forged component must be rejected.
	forged := &Certificate{Digest: d}
	forged.Add(0, auth.Signer(0).Sign(d))
	forged.Add(1, auth.Signer(2).Sign(d)) // wrong identity
	forged.Add(2, auth.Signer(2).Sign(d))
	if err := forged.Verify(v, 3); err == nil {
		t.Fatal("forged certificate accepted")
	}
}

// TestCertificateVerifyEdgeCases is the table-driven sweep over the
// adversarial certificate shapes the fuzzer-style chaos runs can produce:
// each case pins the exact error identity so refactors of Verify cannot
// silently reorder or weaken a check.
func TestCertificateVerifyEdgeCases(t *testing.T) {
	auth := NewAuthority(17)
	v := auth.Verifier()
	d := types.DigestBytes([]byte("edge"))
	other := types.DigestBytes([]byte("other"))
	sign := func(id types.NodeID, dig types.Digest) []byte {
		return auth.Signer(id).Sign(dig)
	}
	cases := []struct {
		name   string
		build  func() *Certificate
		quorum int
		want   error // nil means the certificate must verify
	}{
		{
			name: "valid quorum",
			build: func() *Certificate {
				c := &Certificate{Digest: d}
				for i := 0; i < 3; i++ {
					c.Add(types.NodeID(i), sign(types.NodeID(i), d))
				}
				return c
			},
			quorum: 3,
		},
		{
			name: "sub-quorum",
			build: func() *Certificate {
				c := &Certificate{Digest: d}
				c.Add(0, sign(0, d))
				c.Add(1, sign(1, d))
				return c
			},
			quorum: 3,
			want:   ErrCertTooSmall,
		},
		{
			name: "duplicate signer counted once",
			build: func() *Certificate {
				// Three entries, but only two distinct identities: the dup
				// must not be double-counted toward the quorum.
				c := &Certificate{Digest: d}
				c.Add(0, sign(0, d))
				c.Add(0, sign(0, d))
				c.Add(1, sign(1, d))
				return c
			},
			quorum: 3,
			want:   ErrCertDuplicate,
		},
		{
			name: "forged signature over correct digest",
			build: func() *Certificate {
				c := &Certificate{Digest: d}
				c.Add(0, sign(0, d))
				c.Add(1, sign(2, d)) // node 2's signature claimed as node 1's
				c.Add(2, sign(2, d))
				return c
			},
			quorum: 3,
			want:   ErrCertBadSig,
		},
		{
			name: "wrong-digest replay",
			build: func() *Certificate {
				// Signatures are genuine but cover a different digest —
				// the replay a cached-certificate fast path must not admit.
				c := &Certificate{Digest: d}
				for i := 0; i < 3; i++ {
					c.Add(types.NodeID(i), sign(types.NodeID(i), other))
				}
				return c
			},
			quorum: 3,
			want:   ErrCertBadSig,
		},
		{
			name:   "empty certificate",
			build:  func() *Certificate { return &Certificate{Digest: d} },
			quorum: 1,
			want:   ErrCertTooSmall,
		},
		{
			name: "nil signature entry",
			build: func() *Certificate {
				c := &Certificate{Digest: d}
				c.Add(0, sign(0, d))
				c.Add(1, nil)
				c.Add(2, sign(2, d))
				return c
			},
			quorum: 3,
			want:   ErrCertBadSig,
		},
		{
			name: "signer/signature shape mismatch",
			build: func() *Certificate {
				c := &Certificate{Digest: d}
				c.Add(0, sign(0, d))
				c.Signers = append(c.Signers, 1) // signer with no signature
				return c
			},
			quorum: 1,
			want:   ErrCertShape,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.build().Verify(v, tc.quorum)
			if tc.want == nil {
				if err != nil {
					t.Fatalf("Verify() = %v, want nil", err)
				}
				return
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("Verify() = %v, want %v", err, tc.want)
			}
		})
	}
}

// TestThresholdSizeBoundary pins the threshold size model at its edges:
// the constant charge is independent of signer count, including the
// degenerate empty certificate, and switching the flag on a populated
// certificate flips only the accounting.
func TestThresholdSizeBoundary(t *testing.T) {
	d := types.DigestBytes([]byte("thr"))
	empty := &Certificate{Digest: d, Threshold: true}
	if got := empty.EncodedSize(); got != SigSize+8 {
		t.Fatalf("empty threshold certificate size = %d, want %d", got, SigSize+8)
	}
	one := &Certificate{Digest: d}
	one.Add(0, make([]byte, SigSize))
	linOne := one.EncodedSize()
	one.Threshold = true
	thrOne := one.EncodedSize()
	if thrOne != SigSize+8 {
		t.Fatalf("1-signer threshold size = %d, want %d", thrOne, SigSize+8)
	}
	if linOne != SigSize+8+8 {
		t.Fatalf("1-signer linear size = %d, want %d", linOne, SigSize+8+8)
	}
	// The crossover: from two signers up, the threshold model is strictly
	// smaller — the property linear protocols buy with it (DC 11).
	big := &Certificate{Digest: d}
	for i := 0; i < 2; i++ {
		big.Add(types.NodeID(i), make([]byte, SigSize))
	}
	lin := big.EncodedSize()
	big.Threshold = true
	if thr := big.EncodedSize(); thr >= lin {
		t.Fatalf("threshold size %d not below linear size %d at 2 signers", thr, lin)
	}
}

func TestCertificateSizeModel(t *testing.T) {
	d := types.DigestBytes([]byte("x"))
	lin := &Certificate{Digest: d}
	thr := &Certificate{Digest: d, Threshold: true}
	for i := 0; i < 10; i++ {
		lin.Add(types.NodeID(i), make([]byte, SigSize))
		thr.Add(types.NodeID(i), make([]byte, SigSize))
	}
	if lin.EncodedSize() <= 10*SigSize {
		t.Fatal("linear certificate must grow with signer count")
	}
	if thr.EncodedSize() != SigSize+8 {
		t.Fatalf("threshold certificate must be constant-size, got %d", thr.EncodedSize())
	}
}

func TestStatsCounting(t *testing.T) {
	auth := NewAuthority(1)
	d := types.DigestBytes([]byte("s"))
	sig := auth.Signer(0).Sign(d)
	auth.Verifier().VerifySig(0, d, sig)
	auth.Signer(0).MAC(1, d)
	s, v, m, _ := auth.Stats.Snapshot()
	if s != 1 || v != 1 || m != 1 {
		t.Fatalf("stats = %d/%d/%d, want 1/1/1", s, v, m)
	}
}

func TestSignVerifyProperty(t *testing.T) {
	auth := NewAuthority(9)
	v := auth.Verifier()
	f := func(id uint8, payload []byte) bool {
		node := types.NodeID(id % 16)
		d := types.DigestBytes(payload)
		return v.VerifySig(node, d, auth.Signer(node).Sign(d))
	}
	cfg := &quick.Config{MaxCount: 25} // ed25519 ops are not free
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
