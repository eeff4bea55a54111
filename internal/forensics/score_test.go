package forensics

import (
	"testing"
	"time"

	"bftkit/internal/crypto"
	"bftkit/internal/protocols/pbft"
	"bftkit/internal/types"
)

// unsigned builds an ordering message with no signature: it feeds the
// traffic and lag statistics without entering the claim tables.
func unsigned(view types.View, seq types.SeqNum) *pbft.PrePrepareMsg {
	var h types.Hasher
	h.Str("traffic").U64(uint64(seq))
	return &pbft.PrePrepareMsg{View: view, Seq: seq, Digest: h.Sum()}
}

func scoreOf(r *Report, id types.NodeID) Score {
	for _, s := range r.Scores {
		if s.Node == id {
			return s
		}
	}
	return Score{}
}

// feedTraffic delivers count ordering messages from each sender at
// evenly spaced times across [0, span], with unique sequence numbers so
// no lag groups form.
func feedTraffic(a *Auditor, span time.Duration, count int, senders ...types.NodeID) {
	var seq types.SeqNum = 1
	for i := 0; i < count; i++ {
		at := span * time.Duration(i) / time.Duration(count)
		for _, from := range senders {
			a.Observe(at, from, (from+1)%4, unsigned(1, seq))
			seq++
		}
	}
}

func TestWithholdingAccused(t *testing.T) {
	a, _ := testAuditor(t, Options{})
	span := 1600 * time.Millisecond
	// Replicas 0, 2, 3 chatter all run; replica 1 is silent throughout.
	feedTraffic(a, span, 200, 0, 2, 3)
	r := a.Report(span)
	s := scoreOf(r, 1)
	if s.Withhold < 0.9 || !s.Accused {
		t.Fatalf("silent replica not accused: %+v", s)
	}
	for _, id := range []types.NodeID{0, 2, 3} {
		if hs := scoreOf(r, id); hs.Accused || hs.Withhold > 0.2 {
			t.Fatalf("honest replica %d wrongly suspected: %+v", id, hs)
		}
	}
	if len(r.Accused) != 1 || r.Accused[0] != 1 {
		t.Fatalf("accused list = %v, want [1]", r.Accused)
	}
}

func TestAsymmetricRolesWithholdNotAccused(t *testing.T) {
	a, _ := testAuditor(t, Options{AsymmetricRoles: true})
	span := 1600 * time.Millisecond
	// Same silence pattern as TestWithholdingAccused, but the deployment
	// declares asymmetric replica roles (a reduced active set, a tree
	// interior): replica 1's silence may be a benched role, so the
	// saturated withhold score must not escalate to an accusation.
	feedTraffic(a, span, 200, 0, 2, 3)
	r := a.Report(span)
	s := scoreOf(r, 1)
	if s.Withhold < 0.9 {
		t.Fatalf("withhold score should still saturate: %+v", s)
	}
	if s.Accused || len(r.Accused) != 0 {
		t.Fatalf("asymmetric-role silence escalated to accusation: %+v", s)
	}
	if s.Note == "" {
		t.Fatalf("saturated-but-unaccused score should carry an explanatory note")
	}
}

func TestLocalVantageNotScored(t *testing.T) {
	// A node-local auditor (bftnode -forensics) never sees its host's
	// own sends: from replica 1's vantage, replica 1 is silent all run.
	// That silence is an artifact of the vantage, not evidence.
	self := types.NodeID(1)
	a, _ := testAuditor(t, Options{LocalNode: &self})
	span := 1600 * time.Millisecond
	feedTraffic(a, span, 200, 0, 2, 3)
	r := a.Report(span)
	s := scoreOf(r, 1)
	if s.Withhold != 0 || s.Suspicion != 0 || s.Accused {
		t.Fatalf("local vantage scored its own host: %+v", s)
	}
	if s.Note == "" {
		t.Fatalf("unobservable host should carry an explanatory note")
	}
	// The peers stay clean, and the baseline is not dragged down by the
	// host's phantom zero-traffic row.
	for _, id := range []types.NodeID{0, 2, 3} {
		if hs := scoreOf(r, id); hs.Accused || hs.Withhold > 0.2 {
			t.Fatalf("honest replica %d wrongly suspected from local vantage: %+v", id, hs)
		}
	}
	if len(r.Accused) != 0 {
		t.Fatalf("accused list = %v, want empty", r.Accused)
	}

	// A genuinely silent *peer* is still caught from a local vantage.
	b, _ := testAuditor(t, Options{LocalNode: &self})
	feedTraffic(b, span, 200, 0, 3) // peer 2 silent, host 1 unobservable
	if s := scoreOf(b.Report(span), 2); s.Withhold < 0.9 || !s.Accused {
		t.Fatalf("silent peer not accused from local vantage: %+v", s)
	}
}

func TestCrashWindowNotAccused(t *testing.T) {
	a, _ := testAuditor(t, Options{})
	span := 1600 * time.Millisecond
	crashFrom, crashTo := 400*time.Millisecond, 700*time.Millisecond
	var seq types.SeqNum = 1
	for i := 0; i < 200; i++ {
		at := span * time.Duration(i) / 200
		for _, from := range []types.NodeID{0, 1, 2, 3} {
			if from == 1 && at >= crashFrom && at < crashTo {
				continue // crashed: silent for ~1.5 octiles
			}
			a.Observe(at, from, (from+1)%4, unsigned(1, seq))
			seq++
		}
	}
	r := a.Report(span)
	if s := scoreOf(r, 1); s.Accused {
		t.Fatalf("windowed outage must not accuse: %+v", s)
	}

	// The same shape with the window excused scores even lower.
	b, _ := testAuditor(t, Options{})
	b.ExcuseDowntime(1, crashFrom, crashTo)
	seq = 1
	for i := 0; i < 200; i++ {
		at := span * time.Duration(i) / 200
		for _, from := range []types.NodeID{0, 1, 2, 3} {
			if from == 1 && at >= crashFrom && at < crashTo {
				continue
			}
			b.Observe(at, from, (from+1)%4, unsigned(1, seq))
			seq++
		}
	}
	if s := scoreOf(b.Report(span), 1); s.Withhold != 0 {
		t.Fatalf("excused downtime still scored: %+v", s)
	}
}

// TestDelaySuspectedNotAccused holds persistent lateness to a suspicion:
// a replica whose every copy lands 25ms behind its peers' scores Delay 1
// and tops the suspicion gauge, but only proofs and withholding accuse —
// an honest replica behind a slow link looks the same.
func TestDelaySuspectedNotAccused(t *testing.T) {
	a, _ := testAuditor(t, Options{})
	span := 1600 * time.Millisecond
	// Every slot is a broadcast all four replicas send to receiver 0;
	// replica 1's copy lands 25ms behind its peers, every time.
	for seq := types.SeqNum(1); seq <= 64; seq++ {
		at := span * time.Duration(seq-1) / 64
		m := unsigned(1, seq)
		for _, from := range []types.NodeID{0, 2, 3} {
			a.Observe(at, from, 0, m)
		}
		a.Observe(at+25*time.Millisecond, 1, 0, m)
	}
	r := a.Report(span)
	s := scoreOf(r, 1)
	if s.Delay < 0.9 || s.Suspicion < 0.9 || s.Note == "" {
		t.Fatalf("persistently late replica not suspected: %+v", s)
	}
	if s.Accused || !r.Clean() {
		t.Fatalf("lateness alone accused: %+v, accused %v", s, r.Accused)
	}
	for _, id := range []types.NodeID{0, 2, 3} {
		if hs := scoreOf(r, id); hs.Accused || hs.Delay > 0.2 {
			t.Fatalf("honest replica %d wrongly suspected: %+v", id, hs)
		}
	}
}

func TestDelaySpikeNotAccused(t *testing.T) {
	a, _ := testAuditor(t, Options{})
	span := 1600 * time.Millisecond
	// Replica 1 suffers one 200ms network spike covering ~an octile;
	// the rest of the run it is as fast as its peers.
	for seq := types.SeqNum(1); seq <= 64; seq++ {
		at := span * time.Duration(seq-1) / 64
		m := unsigned(1, seq)
		for _, from := range []types.NodeID{0, 2, 3} {
			a.Observe(at, from, 0, m)
		}
		lag := time.Duration(0)
		if at >= 400*time.Millisecond && at < 600*time.Millisecond {
			lag = 200 * time.Millisecond
		}
		a.Observe(at+lag, 1, 0, m)
	}
	if s := scoreOf(a.Report(span), 1); s.Accused {
		t.Fatalf("windowed delay spike must not accuse: %+v", s)
	}
}

func TestQuietRunScoresNothing(t *testing.T) {
	// Below the per-octile activity floor nothing is considered, so an
	// idle cluster can never accuse anyone.
	a, _ := testAuditor(t, Options{})
	feedTraffic(a, 1600*time.Millisecond, 4, 0, 2, 3)
	r := a.Report(1600 * time.Millisecond)
	if !r.Clean() {
		t.Fatalf("idle run produced a verdict: accused=%v proofs=%v", r.Accused, r.Proofs)
	}
}

func TestKeyRingVerify(t *testing.T) {
	auth := crypto.NewAuthority(testSeed)
	ring := auth.KeyRing(4)
	var h types.Hasher
	h.Str("keyring")
	d := h.Sum()
	sig := auth.Signer(2).Sign(d)
	if !ring.VerifySig(2, d, sig) {
		t.Fatal("valid signature rejected")
	}
	if ring.VerifySig(1, d, sig) {
		t.Fatal("signature accepted under the wrong key")
	}
	if ring.VerifySig(9, d, sig) {
		t.Fatal("unknown replica accepted")
	}
	bad := append([]byte(nil), sig...)
	bad[3] ^= 1
	if ring.VerifySig(2, d, bad) {
		t.Fatal("garbled signature accepted")
	}
	if ring.VerifySig(2, d, nil) {
		t.Fatal("empty signature accepted")
	}
}
