//go:build !race

package core

import (
	"testing"

	"bftkit/internal/crypto"
	"bftkit/internal/kvstore"
	"bftkit/internal/types"
)

// TestAllocsReply: a reply costs its authenticator (a signature, or one
// MAC to the client) and the REPLY message that carries it. The
// retransmission cache keeps the sent reply itself, not a copy. Not under
// the race detector, which allocates on its own.
func TestAllocsReply(t *testing.T) {
	for _, scheme := range []crypto.Scheme{crypto.SchemeSig, crypto.SchemeMAC} {
		t.Run(scheme.String(), func(t *testing.T) {
			d := newFakeDriver()
			cfg := DefaultConfig(4)
			cfg.Scheme = scheme
			rep := NewReplica(0, cfg, d, &recorder{}, kvstore.New(), crypto.NewAuthority(1), Hooks{})
			rep.Start()
			// Seq 0 is at the execution point, so every reply is cached.
			rp := &types.Reply{Client: types.ClientIDBase, ClientSeq: 1, Result: []byte("ok")}
			got := testing.AllocsPerRun(100, func() {
				d.sent = d.sent[:0]
				rep.Reply(rp)
			})
			if got > 2 {
				t.Errorf("Replica.Reply under %v: %v allocations, want at most 2 (authenticator, message)", scheme, got)
			}
			if rep.lastReply[rp.Client] != rp {
				t.Error("the retransmission cache holds a copy, not the sent reply")
			}
		})
	}
}

// TestAllocsAhead: the "f+1 are ahead" rule counts senders without
// allocating. Tendermint asks it on every vote and proposal, and
// core.ViewChange on every VIEW-CHANGE message.
func TestAllocsAhead(t *testing.T) {
	tl := NewTally[types.View, struct{}](16)
	for v := types.View(1); v <= 8; v++ {
		for from := types.NodeID(0); from < 16; from++ {
			tl.Add(v, from, struct{}{})
		}
	}
	var n int
	got := testing.AllocsPerRun(100, func() { n, _ = Ahead(&tl, 2, 0) })
	if n != 15 {
		t.Fatalf("Ahead counted %d senders, want 15", n)
	}
	if got != 0 {
		t.Errorf("Ahead: %v allocations, want 0", got)
	}
}

// TestAllocsRequestAuth: a client's MAC'd request costs its authenticator
// vector and nothing else, and a replica checks a request under either
// scheme without allocating.
func TestAllocsRequestAuth(t *testing.T) {
	for _, scheme := range []crypto.Scheme{crypto.SchemeSig, crypto.SchemeMAC} {
		t.Run(scheme.String(), func(t *testing.T) {
			cfg := DefaultConfig(4)
			cfg.Scheme = scheme
			auth := crypto.NewAuthority(1)
			rep := NewReplica(2, cfg, newFakeDriver(), &recorder{}, kvstore.New(), auth, Hooks{})
			rep.Start()
			cl := NewClient(types.ClientIDBase, cfg, newFakeDriver(), NewRequester(RequesterOpts{}), auth, ClientHooks{})
			q := &types.Request{Client: types.ClientIDBase, ClientSeq: 1, Op: []byte("op")}
			AuthenticateRequest(cl, q)
			if scheme == crypto.SchemeMAC {
				if got := testing.AllocsPerRun(100, func() { AuthenticateRequest(cl, q) }); got > 2 {
					t.Errorf("AuthenticateRequest under MACs: %v allocations, want at most 2", got)
				}
			}
			ok := false
			if got := testing.AllocsPerRun(100, func() { ok = VerifyRequest(rep, q) }); got != 0 {
				t.Errorf("VerifyRequest: %v allocations, want 0", got)
			}
			if !ok {
				t.Fatal("the client's own authenticator does not verify")
			}
		})
	}
}
