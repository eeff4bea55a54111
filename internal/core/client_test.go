package core

import (
	"reflect"
	"testing"
	"time"

	"bftkit/internal/crypto"
	"bftkit/internal/kvstore"
	"bftkit/internal/types"
)

func newTestClient(t *testing.T, opts RequesterOpts) (*Client, *Requester, *fakeDriver, *[]string) {
	t.Helper()
	return newSchemeTestClient(t, crypto.SchemeSig, opts)
}

func newSchemeTestClient(t *testing.T, scheme crypto.Scheme, opts RequesterOpts) (*Client, *Requester, *fakeDriver, *[]string) {
	t.Helper()
	d := newFakeDriver()
	auth := crypto.NewAuthority(1)
	proto := NewRequester(opts)
	var done []string
	cfg := DefaultConfig(4)
	cfg.Scheme = scheme
	cl := NewClient(types.ClientIDBase, cfg, d, proto, auth, ClientHooks{
		OnDone: func(_ types.NodeID, _ *types.Request, result []byte, _ time.Duration) {
			done = append(done, string(result))
		},
	})
	cl.Start()
	return cl, proto, d, &done
}

func reply(replica types.NodeID, clientSeq uint64, result string, auth *crypto.Authority) *ReplyMsg {
	r := &types.Reply{
		Replica: replica, Client: types.ClientIDBase, ClientSeq: clientSeq,
		Result: []byte(result),
	}
	r.Sig = auth.Signer(replica).Sign(r.Digest())
	return &ReplyMsg{R: r}
}

// macReply is replica's reply as a MAC deployment sends it: one tag from
// the replica to the client.
func macReply(replica types.NodeID, clientSeq uint64, result string, auth *crypto.Authority) *ReplyMsg {
	r := &types.Reply{
		Replica: replica, Client: types.ClientIDBase, ClientSeq: clientSeq,
		Result: []byte(result),
	}
	r.Sig = auth.Signer(replica).MAC(types.ClientIDBase, r.Digest())
	return &ReplyMsg{R: r}
}

func TestRequesterCompletesOnMatchingQuorum(t *testing.T) {
	cl, _, d, done := newTestClient(t, RequesterOpts{})
	cl.Submit(&types.Request{ClientSeq: 1, Op: []byte("op")})
	if len(d.sent) != 1 {
		t.Fatalf("initial send count %d (want leader only)", len(d.sent))
	}
	auth := crypto.NewAuthority(1)
	cl.Deliver(0, reply(0, 1, "ok", auth))
	if len(*done) != 0 {
		t.Fatal("completed on a single reply (f+1 needed)")
	}
	// A mismatching reply must not count toward the quorum.
	cl.Deliver(1, reply(1, 1, "bogus", auth))
	if len(*done) != 0 {
		t.Fatal("mismatching reply counted")
	}
	cl.Deliver(2, reply(2, 1, "ok", auth))
	if len(*done) != 1 || (*done)[0] != "ok" {
		t.Fatalf("done = %v", *done)
	}
	// Late replies for the finished request are ignored.
	cl.Deliver(3, reply(3, 1, "ok", auth))
	if len(*done) != 1 {
		t.Fatal("duplicate completion")
	}
}

func TestRequesterDuplicateReplicaNotDoubleCounted(t *testing.T) {
	cl, _, _, done := newTestClient(t, RequesterOpts{})
	cl.Submit(&types.Request{ClientSeq: 1, Op: []byte("op")})
	auth := crypto.NewAuthority(1)
	cl.Deliver(0, reply(0, 1, "ok", auth))
	cl.Deliver(0, reply(0, 1, "ok", auth)) // same replica again
	if len(*done) != 0 {
		t.Fatal("one replica's vote counted twice")
	}
}

func TestRequesterRetransmitsToAllOnTimeout(t *testing.T) {
	cl, _, d, _ := newTestClient(t, RequesterOpts{})
	cl.Submit(&types.Request{ClientSeq: 1, Op: []byte("op")})
	sent := len(d.sent)
	d.advance(DefaultConfig(4).RequestTimeout + time.Millisecond)
	// Retransmission goes to every replica (the PBFT fallback that
	// routes around a faulty leader).
	if len(d.sent)-sent != 4 {
		t.Fatalf("retransmitted to %d replicas, want 4", len(d.sent)-sent)
	}
}

func TestRequesterSendToAll(t *testing.T) {
	cl, _, d, _ := newTestClient(t, RequesterOpts{SendToAll: true})
	cl.Submit(&types.Request{ClientSeq: 1, Op: []byte("op")})
	if len(d.sent) != 4 {
		t.Fatalf("SendToAll sent %d", len(d.sent))
	}
}

func TestRequesterFollowsViewHint(t *testing.T) {
	cl, _, d, _ := newTestClient(t, RequesterOpts{})
	auth := crypto.NewAuthority(1)
	cl.Submit(&types.Request{ClientSeq: 1, Op: []byte("op")})
	// A reply from view 2 teaches the client the new leader.
	r := &types.Reply{Replica: 2, Client: types.ClientIDBase, ClientSeq: 1, View: 2, Result: []byte("ok")}
	r.Sig = auth.Signer(2).Sign(r.Digest())
	cl.Deliver(2, &ReplyMsg{R: r})
	cl.Deliver(3, func() *ReplyMsg {
		rr := &types.Reply{Replica: 3, Client: types.ClientIDBase, ClientSeq: 1, View: 2, Result: []byte("ok")}
		rr.Sig = auth.Signer(3).Sign(rr.Digest())
		return &ReplyMsg{R: rr}
	}())
	d.sent = nil
	cl.Submit(&types.Request{ClientSeq: 2, Op: []byte("op2")})
	if len(d.sent) != 1 || d.sent[0].To != 2 {
		t.Fatalf("next request went to %v, want the view-2 leader r2", d.sent)
	}
}

func TestRequesterVerifiesSignaturesWhenAsked(t *testing.T) {
	cl, _, _, done := newTestClient(t, RequesterOpts{VerifyReplySigs: true})
	cl.Submit(&types.Request{ClientSeq: 1, Op: []byte("op")})
	auth := crypto.NewAuthority(1)
	// A forged reply (signed by the wrong key) must not count.
	forged := &types.Reply{Replica: 0, Client: types.ClientIDBase, ClientSeq: 1, Result: []byte("ok")}
	forged.Sig = auth.Signer(3).Sign(forged.Digest())
	cl.Deliver(0, &ReplyMsg{R: forged})
	cl.Deliver(1, reply(1, 1, "ok", auth))
	if len(*done) != 0 {
		t.Fatal("forged reply counted toward the quorum")
	}
	cl.Deliver(2, reply(2, 1, "ok", auth))
	if len(*done) != 1 {
		t.Fatal("genuine quorum did not complete")
	}
}

func TestClientSignsRequests(t *testing.T) {
	cl, _, d, _ := newTestClient(t, RequesterOpts{})
	cl.Submit(&types.Request{ClientSeq: 1, Op: []byte("op")})
	rm := d.sent[0].M.(*RequestMsg)
	auth := crypto.NewAuthority(1)
	if !auth.Verifier().VerifySig(types.ClientIDBase, rm.Req.Digest(), rm.Req.Sig) {
		t.Fatal("request signature invalid")
	}
}

func TestRegistryLifecycle(t *testing.T) {
	name := "test-proto-registry"
	Register(Registration{
		Name:       name,
		Profile:    PBFTProfile(),
		NewReplica: func(cfg Config) Protocol { return &recorder{} },
	})
	reg, ok := Lookup(name)
	if !ok {
		t.Fatal("registered protocol not found")
	}
	if reg.ClientFor(DefaultConfig(4)) == nil {
		t.Fatal("default client constructor failed")
	}
	found := false
	for _, n := range Names() {
		if n == name {
			found = true
		}
	}
	if !found {
		t.Fatal("Names() misses the registration")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	Register(Registration{Name: name, Profile: PBFTProfile(),
		NewReplica: func(cfg Config) Protocol { return &recorder{} }})
}

func TestAuthenticateVerifyHelpers(t *testing.T) {
	rep, _, _ := newTestReplica(t)
	d := types.DigestBytes([]byte("payload"))
	sig, vec := Authenticate(rep, d)
	if sig == nil || vec != nil {
		t.Fatal("signature scheme must produce a signature, no vector")
	}
	if !VerifyAuth(rep, 0, d, sig, nil) {
		t.Fatal("self-authenticated digest rejected")
	}
	if VerifyAuth(rep, 1, d, sig, nil) {
		t.Fatal("signature accepted under the wrong identity")
	}
}

func TestRequesterVotesKeyedByAuthenticatedSender(t *testing.T) {
	// One Byzantine replica mails f+1 replies with the same fabricated
	// result, each claiming a different replica identity. In a signature
	// deployment with VerifyReplySigs off (the default) the signatures
	// are not checked, so the only defense is keying votes by the
	// driver's sender: all stuffed votes collapse onto the one Byzantine
	// node. (On TCP the sender is the frame's own claim; see
	// TestRequesterChecksReplyMACs for the MAC deployments' defense.)
	cl, _, _, done := newTestClient(t, RequesterOpts{})
	cl.Submit(&types.Request{ClientSeq: 1, Op: []byte("op")})
	auth := crypto.NewAuthority(1)
	for claimed := types.NodeID(0); claimed < 2; claimed++ {
		m := reply(claimed, 1, "forged", auth)
		m.R.Sig = []byte("garbage")
		cl.Deliver(3, m) // every copy actually arrives from replica 3
	}
	if len(*done) != 0 {
		t.Fatalf("client accepted a vote-stuffed result: %v", *done)
	}
	// Honest replicas still complete the request with the true result.
	cl.Deliver(0, reply(0, 1, "ok", auth))
	cl.Deliver(1, reply(1, 1, "ok", auth))
	if len(*done) != 1 || (*done)[0] != "ok" {
		t.Fatalf("done = %v, want the honest result", *done)
	}
}

func TestRequesterRejectsIdentityMismatchWhenVerifying(t *testing.T) {
	// With signature checks on, a reply whose claimed identity differs
	// from the authenticated sender is discarded even if the signature
	// itself verifies for the claimed identity (a replayed third-party
	// reply must not count as the relayer's vote).
	cl, _, _, done := newTestClient(t, RequesterOpts{VerifyReplySigs: true})
	cl.Submit(&types.Request{ClientSeq: 1, Op: []byte("op")})
	auth := crypto.NewAuthority(1)
	cl.Deliver(3, reply(0, 1, "ok", auth)) // replica 3 relays replica 0's signed reply
	cl.Deliver(3, reply(1, 1, "ok", auth))
	if len(*done) != 0 {
		t.Fatal("relayed replies counted as the relayer's votes")
	}
	cl.Deliver(0, reply(0, 1, "ok", auth))
	cl.Deliver(1, reply(1, 1, "ok", auth))
	if len(*done) != 1 {
		t.Fatalf("done = %v", *done)
	}
}

// TestRequesterChecksReplyMACs: in a MAC deployment the Requester checks
// every reply's tag, keyed on the replica the reply names, and requires
// that replica to be the sender. Neither a wrong tag, nor a valid reply
// relayed by another sender, nor one replica's own tag under two other
// IDs (a framer on TCP, where a frame names its own sender) counts; f+1
// valid tags complete the request.
func TestRequesterChecksReplyMACs(t *testing.T) {
	cl, _, _, done := newSchemeTestClient(t, crypto.SchemeMAC, RequesterOpts{})
	cl.Submit(&types.Request{ClientSeq: 1, Op: []byte("op")})
	auth := crypto.NewAuthority(1)

	// A wrong tag: replica 0's reply tagged with replica 3's key, and
	// a signature where a MAC belongs.
	wrong := macReply(0, 1, "forged", auth)
	wrong.R.Sig = auth.Signer(3).MAC(types.ClientIDBase, wrong.R.Digest())
	cl.Deliver(0, wrong)
	cl.Deliver(1, reply(1, 1, "forged", auth))
	if len(*done) != 0 {
		t.Fatalf("wrongly tagged replies counted: %v", *done)
	}

	// A validly tagged reply whose named replica is not the sender.
	cl.Deliver(3, macReply(0, 1, "ok", auth))
	cl.Deliver(3, macReply(1, 1, "ok", auth))
	if len(*done) != 0 {
		t.Fatalf("relayed replies counted as the relayer's votes: %v", *done)
	}

	// Replica 3's own tag under two other IDs, each frame claiming the
	// named replica as its sender.
	for _, id := range []types.NodeID{0, 1} {
		m := macReply(3, 1, "forged", auth)
		m.R.Replica = id
		cl.Deliver(id, m)
	}
	if len(*done) != 0 {
		t.Fatalf("one replica's tag counted under other identities: %v", *done)
	}

	// f+1 = 2 valid tags complete the request with their result.
	cl.Deliver(2, macReply(2, 1, "ok", auth))
	if len(*done) != 0 {
		t.Fatal("completed on a single valid reply (f+1 needed)")
	}
	cl.Deliver(0, macReply(0, 1, "ok", auth))
	if len(*done) != 1 || (*done)[0] != "ok" {
		t.Fatalf("done = %v, want the honest result", *done)
	}
}

// TestAuthenticateReplyFollowsScheme: a replica signs its reply in a
// signature deployment and MACs it to the client in a MAC deployment;
// VerifyReply accepts exactly that authenticator for the named replica.
func TestAuthenticateReplyFollowsScheme(t *testing.T) {
	for _, scheme := range []crypto.Scheme{crypto.SchemeSig, crypto.SchemeMAC} {
		d := newFakeDriver()
		cfg := DefaultConfig(4)
		cfg.Scheme = scheme
		auth := crypto.NewAuthority(1)
		rep := NewReplica(2, cfg, d, &recorder{}, kvstore.New(), auth, Hooks{})
		rep.Start()
		cl := NewClient(types.ClientIDBase, cfg, d, NewRequester(RequesterOpts{}), auth, ClientHooks{})
		rp := &types.Reply{Client: types.ClientIDBase, ClientSeq: 1, Result: []byte("ok")}
		AuthenticateReply(rep, rp)
		if rp.Replica != 2 {
			t.Fatalf("%v: stamped replica %d, want 2", scheme, rp.Replica)
		}
		wantLen := crypto.MACSize
		if scheme != crypto.SchemeMAC {
			wantLen = 64
		}
		if len(rp.Sig) != wantLen {
			t.Errorf("%v: authenticator is %d bytes, want %d", scheme, len(rp.Sig), wantLen)
		}
		if !VerifyReply(cl, rp) {
			t.Errorf("%v: the reply's own authenticator does not verify", scheme)
		}
		before := append([]byte(nil), rp.Sig...)
		AuthenticateReply(rep, rp)
		if string(rp.Sig) != string(before) {
			t.Errorf("%v: re-stamping a sent reply changed its bytes", scheme)
		}
		rp.Replica = 1
		if VerifyReply(cl, rp) {
			t.Errorf("%v: replica 2's authenticator verified for replica 1", scheme)
		}
	}
}

// TestAuthenticateRequestFollowsScheme: a client signs its request in a
// signature deployment and MACs it to every replica in a MAC deployment,
// one entry per replica ID; each replica's VerifyRequest accepts exactly
// that authenticator, and checks only its own entry of a vector. A MAC'd
// request exposes no signature claim to the inbound lane.
func TestAuthenticateRequestFollowsScheme(t *testing.T) {
	for _, scheme := range []crypto.Scheme{crypto.SchemeSig, crypto.SchemeMAC} {
		t.Run(scheme.String(), func(t *testing.T) {
			cfg := DefaultConfig(4)
			cfg.Scheme = scheme
			auth := crypto.NewAuthority(1)
			reps := make([]*Replica, cfg.N)
			for i := range reps {
				reps[i] = NewReplica(types.NodeID(i), cfg, newFakeDriver(), &recorder{}, kvstore.New(), auth, Hooks{})
				reps[i].Start()
			}
			cl := NewClient(types.ClientIDBase, cfg, newFakeDriver(), NewRequester(RequesterOpts{}), auth, ClientHooks{})
			accepted := func(q *types.Request) (ids []int) {
				for i, rep := range reps {
					if VerifyRequest(rep, q) {
						ids = append(ids, i)
					}
				}
				return ids
			}
			q := &types.Request{Client: types.ClientIDBase, ClientSeq: 1, Op: []byte("op")}
			AuthenticateRequest(cl, q)
			wantLen, claims := crypto.SigSize, 1
			if scheme == crypto.SchemeMAC {
				wantLen, claims = cfg.N*crypto.MACSize, 0
			}
			if len(q.Sig) != wantLen {
				t.Fatalf("authenticator is %d bytes, want %d", len(q.Sig), wantLen)
			}
			if got := accepted(q); len(got) != cfg.N {
				t.Fatalf("replicas %v accept the request, want all %d", got, cfg.N)
			}
			if n := len((&RequestMsg{Req: q}).AppendSigClaims(nil, 0)); n != claims {
				t.Errorf("the request exposes %d signature claims, want %d", n, claims)
			}
			tampered := *q
			tampered.Op = []byte("other op")
			if got := accepted(&tampered); len(got) != 0 {
				t.Errorf("replicas %v accept an op the client did not authenticate", got)
			}

			wrongKind := *q
			if scheme == crypto.SchemeMAC {
				wrongKind.Sig = auth.Signer(q.Client).Sign(q.Digest())
			} else {
				wrongKind.Sig = auth.Signer(q.Client).AuthTags(q.Digest(), cl.Replicas())
			}
			if got := accepted(&wrongKind); len(got) != 0 {
				t.Errorf("replicas %v accept the other scheme's authenticator", got)
			}
			if scheme != crypto.SchemeMAC {
				return
			}
			wrong := *q
			wrong.Sig = append([]byte(nil), q.Sig...)
			wrong.Sig[2*crypto.MACSize] ^= 1
			if got := accepted(&wrong); !reflect.DeepEqual(got, []int{0, 1, 3}) {
				t.Errorf("with replica 2's entry spoiled, replicas %v accept, want [0 1 3]", got)
			}
			missing := *q
			missing.Sig = q.Sig[:3*crypto.MACSize]
			if got := accepted(&missing); len(got) != 0 {
				t.Errorf("replicas %v accept a vector missing replica 3's entry", got)
			}
		})
	}
}
