package forensics

import (
	"testing"
	"time"

	"bftkit/internal/crypto"
	"bftkit/internal/protocols/pbft"
	"bftkit/internal/types"
)

const testSeed = 7

// testAuditor builds an auditor plus the signing authority its claims
// come from. n=4, f=1 unless overridden.
func testAuditor(t *testing.T, opt Options) (*Auditor, *crypto.Authority) {
	t.Helper()
	auth := crypto.NewAuthority(testSeed)
	if opt.N == 0 {
		opt.N = 4
	}
	if opt.F == 0 {
		opt.F = 1
	}
	opt.Keys = auth.KeyRing(opt.N)
	return New(opt), auth
}

// testAuth is the deterministic signing authority tests draw keys from.
func testAuth(t *testing.T) *crypto.Authority {
	t.Helper()
	return crypto.NewAuthority(testSeed)
}

// testRing is the public-key-only view an offline third party holds.
func testRing(t *testing.T) crypto.KeyRing {
	t.Helper()
	return crypto.NewAuthority(testSeed).KeyRing(8)
}

// preprepare builds a validly-signed PRE-PREPARE from the given signer.
func preprepare(auth *crypto.Authority, signer types.NodeID, view types.View, seq types.SeqNum, payload string) *pbft.PrePrepareMsg {
	var h types.Hasher
	h.Str(payload)
	m := &pbft.PrePrepareMsg{View: view, Seq: seq, Digest: h.Sum(), Leader: signer}
	m.Sig = auth.Signer(signer).Sign(m.SigDigest())
	return m
}

func proofKinds(a *Auditor) map[string]int {
	out := map[string]int{}
	for _, p := range a.Proofs() {
		out[p.Proof]++
	}
	return out
}

// TestEquivocationCases is the edge-case table: only two validly-signed
// conflicting digests in the SAME slot convict.
func TestEquivocationCases(t *testing.T) {
	cases := []struct {
		name      string
		second    func(auth *crypto.Authority) *pbft.PrePrepareMsg
		wantProof bool
	}{
		{"conflicting digest same slot", func(auth *crypto.Authority) *pbft.PrePrepareMsg {
			return preprepare(auth, 0, 1, 5, "payload-B")
		}, true},
		{"same digest twice is a duplicate", func(auth *crypto.Authority) *pbft.PrePrepareMsg {
			return preprepare(auth, 0, 1, 5, "payload-A")
		}, false},
		{"different view is a different slot", func(auth *crypto.Authority) *pbft.PrePrepareMsg {
			return preprepare(auth, 0, 2, 5, "payload-B")
		}, false},
		{"different seq is a different slot", func(auth *crypto.Authority) *pbft.PrePrepareMsg {
			return preprepare(auth, 0, 1, 6, "payload-B")
		}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, auth := testAuditor(t, Options{})
			first := preprepare(auth, 0, 1, 5, "payload-A")
			a.Observe(10*time.Millisecond, 0, 1, first)
			a.Observe(20*time.Millisecond, 0, 2, tc.second(auth))
			got := proofKinds(a)[ProofEquivocation]
			if tc.wantProof && got != 1 {
				t.Fatalf("want one equivocation proof, got %d (%v)", got, a.Proofs())
			}
			if !tc.wantProof && got != 0 {
				t.Fatalf("want no equivocation proof, got %d: %v", got, a.Proofs())
			}
			if tc.wantProof {
				p := a.Proofs()[0]
				if p.Culprit != 0 {
					t.Fatalf("culprit = %d, want 0", p.Culprit)
				}
				if err := p.Verify(auth.KeyRing(4), 1); err != nil {
					t.Fatalf("emitted proof does not verify: %v", err)
				}
			}
		})
	}
}

// TestEquivocationDifferentSignersNoProof: two leaders proposing in the
// same slot across a view change is consensus business, not forgery.
func TestEquivocationDifferentSigners(t *testing.T) {
	a, auth := testAuditor(t, Options{})
	a.Observe(10*time.Millisecond, 0, 1, preprepare(auth, 0, 1, 5, "payload-A"))
	a.Observe(20*time.Millisecond, 1, 2, preprepare(auth, 1, 1, 5, "payload-B"))
	if got := len(a.Proofs()); got != 0 {
		t.Fatalf("want no proofs across signers, got %v", a.Proofs())
	}
}

func TestForgedSigProof(t *testing.T) {
	a, auth := testAuditor(t, Options{})
	m := preprepare(auth, 0, 1, 5, "payload-A")
	m.Sig[0] ^= 0xff // garble
	// Replica 2 relays the garbled message: the SENDER is the culprit.
	a.Observe(10*time.Millisecond, 2, 1, m)
	ps := a.Proofs()
	if len(ps) != 1 || ps[0].Proof != ProofForgedSig {
		t.Fatalf("want one forged-sig proof, got %v", ps)
	}
	if ps[0].Culprit != 2 {
		t.Fatalf("culprit = %d, want sender 2", ps[0].Culprit)
	}
	if err := ps[0].Verify(auth.KeyRing(4), 1); err != nil {
		t.Fatalf("proof does not verify: %v", err)
	}
}

func TestEmptySigIsNotForgery(t *testing.T) {
	a, auth := testAuditor(t, Options{})
	m := preprepare(auth, 0, 1, 5, "payload-A")
	m.Sig = nil // MAC-mode deployments ship unsigned ordering messages
	a.Observe(10*time.Millisecond, 0, 1, m)
	if got := len(a.Proofs()); got != 0 {
		t.Fatalf("empty sig must not convict, got %v", a.Proofs())
	}
}

func TestReplayProof(t *testing.T) {
	a, auth := testAuditor(t, Options{ReplayThreshold: 4, ReplayWindow: 30 * time.Millisecond})
	m := preprepare(auth, 0, 1, 5, "payload-A")
	// Three deliveries inside one tick: legitimate duplication, no proof.
	for i := 0; i < 3; i++ {
		a.Observe(10*time.Millisecond, 0, 1, m)
	}
	if got := proofKinds(a)[ProofReplay]; got != 0 {
		t.Fatalf("burst inside the window must not convict, got %d", got)
	}
	// Spread repeats past the window to the same receiver: replay.
	a.Observe(50*time.Millisecond, 0, 1, m)
	ps := a.Proofs()
	if len(ps) != 1 || ps[0].Proof != ProofReplay || ps[0].Culprit != 0 {
		t.Fatalf("want one replay proof against 0, got %v", ps)
	}
	if ps[0].ReplayCount < 4 {
		t.Fatalf("replay count = %d, want >= threshold", ps[0].ReplayCount)
	}
	if err := ps[0].Verify(auth.KeyRing(4), 1); err != nil {
		t.Fatalf("proof does not verify: %v", err)
	}
	// Repeats keep arriving: the flagged state caps it at one proof.
	a.Observe(80*time.Millisecond, 0, 1, m)
	if got := proofKinds(a)[ProofReplay]; got != 1 {
		t.Fatalf("replay must flag once per claim, got %d", got)
	}
}

func TestReplayDistinctReceiversNoProof(t *testing.T) {
	a, auth := testAuditor(t, Options{ReplayThreshold: 4, ReplayWindow: 30 * time.Millisecond})
	m := preprepare(auth, 0, 1, 5, "payload-A")
	// A broadcast fan-out delivers the same claim to every peer once:
	// replay is counted per receiver, so no proof.
	for i := 1; i < 4; i++ {
		for j := 0; j < 3; j++ {
			a.Observe(time.Duration(10+40*j)*time.Millisecond, 0, types.NodeID(i), m)
		}
	}
	if got := proofKinds(a)[ProofReplay]; got != 0 {
		t.Fatalf("per-receiver counts below threshold must not convict, got %d", got)
	}
}
