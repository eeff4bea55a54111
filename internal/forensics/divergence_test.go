package forensics

import (
	"testing"
	"time"

	"bftkit/internal/core"
	"bftkit/internal/crypto"
	"bftkit/internal/types"
)

// signedReply builds one replica's validly-signed reply.
func signedReply(auth *crypto.Authority, replica types.NodeID, seq types.SeqNum, result string) *core.ReplyMsg {
	rp := &types.Reply{
		Replica: replica, Client: types.ClientIDBase, ClientSeq: 1,
		View: 0, Seq: seq, Result: []byte(result),
	}
	rp.Sig = auth.Signer(replica).Sign(rp.Digest())
	return &core.ReplyMsg{R: rp}
}

func TestDivergentResultProof(t *testing.T) {
	a, auth := testAuditor(t, Options{})
	client := types.ClientIDBase
	// Replicas 1..3 agree; replica 0 signed a different result.
	for i := 1; i < 4; i++ {
		a.Observe(time.Duration(i)*time.Millisecond, types.NodeID(i), client, signedReply(auth, types.NodeID(i), 9, "ok"))
	}
	a.Observe(5*time.Millisecond, 0, client, signedReply(auth, 0, 9, "tampered"))
	ps := a.Proofs()
	if len(ps) != 1 || ps[0].Proof != ProofDivergentResult || ps[0].Culprit != 0 {
		t.Fatalf("want one divergent-result proof against 0, got %v", ps)
	}
	if err := ps[0].Verify(auth.KeyRing(4), 1); err != nil {
		t.Fatalf("proof does not verify: %v", err)
	}
}

func TestDivergenceNeedsMatchingState(t *testing.T) {
	a, auth := testAuditor(t, Options{})
	client := types.ClientIDBase
	for i := 1; i < 4; i++ {
		a.Observe(time.Duration(i)*time.Millisecond, types.NodeID(i), client, signedReply(auth, types.NodeID(i), 9, "ok"))
	}
	// Replica 0 answered from a different sequence point: legitimate
	// disagreement (a lagging replica), never a proof.
	a.Observe(5*time.Millisecond, 0, client, signedReply(auth, 0, 8, "stale"))
	if got := len(a.Proofs()); got != 0 {
		t.Fatalf("cross-seq replies must not convict, got %v", a.Proofs())
	}
}

func TestDivergenceCulpritAgreesWithSomeone(t *testing.T) {
	a, auth := testAuditor(t, Options{N: 7, F: 2})
	client := types.ClientIDBase
	// A replica whose result matches any already-observed peer is never
	// the divergence culprit. An interleaved 3-vs-3 split (out-of-model:
	// more than f liars) keeps every replica allied before the opposing
	// side reaches f+1, so the auditor bails on everyone rather than
	// guess which side is lying.
	results := []string{"ok", "other", "ok", "other", "ok", "other"}
	for i, res := range results {
		id := types.NodeID(i + 1)
		a.Observe(time.Duration(i+1)*time.Millisecond, id, client, signedReply(auth, id, 9, res))
	}
	if got := len(a.Proofs()); got != 0 {
		t.Fatalf("lockstep split replies must not convict, got %v", a.Proofs())
	}
}

func TestDuplicateSentinelNeverDiverges(t *testing.T) {
	a, auth := testAuditor(t, Options{})
	client := types.ClientIDBase
	// Across a view change every honest replica legitimately signs both
	// the real result and a later dedup sentinel for the same request;
	// delivery jitter decides which the auditor sees first. Neither
	// direction may convict.
	for i := 1; i < 4; i++ {
		a.Observe(time.Duration(i)*time.Millisecond, types.NodeID(i), client, signedReply(auth, types.NodeID(i), 9, "ok"))
	}
	a.Observe(5*time.Millisecond, 0, client, signedReply(auth, 0, 9, string(core.DuplicateResult)))
	if got := len(a.Proofs()); got != 0 {
		t.Fatalf("sentinel reply must not convict, got %v", a.Proofs())
	}
	// And a hand-built proof resting on a sentinel must fail offline
	// verification, even with valid signatures all around.
	refs := make([]*types.Reply, 0, 2)
	for i := 1; i < 3; i++ {
		refs = append(refs, signedReply(auth, types.NodeID(i), 9, "ok").R)
	}
	p := &Proof{
		Proof:      ProofDivergentResult,
		Culprit:    0,
		Reply:      signedReply(auth, 0, 9, string(core.DuplicateResult)).R,
		References: refs,
	}
	if err := p.Verify(auth.KeyRing(4), 1); err == nil {
		t.Fatalf("sentinel-based proof verified")
	}
}

func TestForgedReplySig(t *testing.T) {
	a, auth := testAuditor(t, Options{})
	m := signedReply(auth, 1, 9, "ok")
	m.R.Sig[0] ^= 0xff
	a.Observe(1*time.Millisecond, 1, types.ClientIDBase, m)
	ps := a.Proofs()
	if len(ps) != 1 || ps[0].Proof != ProofForgedSig || ps[0].Culprit != 1 {
		t.Fatalf("want forged-sig proof against sender 1, got %v", ps)
	}
	if err := ps[0].Verify(auth.KeyRing(4), 1); err != nil {
		t.Fatalf("proof does not verify: %v", err)
	}
}

// macReply builds one replica's reply as a MAC deployment sends it: one
// tag to the client, which no third party can check.
func macReply(auth *crypto.Authority, replica types.NodeID, seq types.SeqNum, result string) *core.ReplyMsg {
	m := signedReply(auth, replica, seq, result)
	m.R.Sig = auth.Signer(replica).MAC(types.ClientIDBase, m.R.Digest())
	return m
}

// TestMACRepliesAreNotEvidence: an auditor of a MAC deployment reads no
// reply, honest or divergent, so it neither frames an honest replica with
// a forged-sig proof over a tag nor cites a MAC in a divergent result.
func TestMACRepliesAreNotEvidence(t *testing.T) {
	a, auth := testAuditor(t, Options{MACReplies: true})
	client := types.ClientIDBase
	for i := 1; i < 4; i++ {
		a.Observe(time.Duration(i)*time.Millisecond, types.NodeID(i), client, macReply(auth, types.NodeID(i), 9, "ok"))
	}
	a.Observe(5*time.Millisecond, 0, client, macReply(auth, 0, 9, "tampered"))
	if ps := a.Proofs(); len(ps) != 0 {
		t.Fatalf("MAC'd replies produced proofs: %v", ps)
	}
}

// TestShortReplySigIsForged: an auditor of a signature deployment (the
// zero Options) still reads a reply carrying a 32-byte non-signature as a
// forged signature, so a Byzantine replica cannot dodge the check by
// sending a MAC-sized Sig.
func TestShortReplySigIsForged(t *testing.T) {
	a, auth := testAuditor(t, Options{})
	a.Observe(1*time.Millisecond, 1, types.ClientIDBase, macReply(auth, 1, 9, "ok"))
	ps := a.Proofs()
	if len(ps) != 1 || ps[0].Proof != ProofForgedSig || ps[0].Culprit != 1 {
		t.Fatalf("want forged-sig proof against sender 1, got %v", ps)
	}
	if err := ps[0].Verify(auth.KeyRing(4), 1); err != nil {
		t.Fatalf("proof does not verify: %v", err)
	}
}
