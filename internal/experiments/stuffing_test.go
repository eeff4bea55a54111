package experiments

import (
	"fmt"
	"testing"
	"time"

	"bftkit/internal/core"
	"bftkit/internal/harness"
	"bftkit/internal/kvstore"
	"bftkit/internal/protocols/cheapbft"
	"bftkit/internal/protocols/fab"
	"bftkit/internal/protocols/kauri"
	"bftkit/internal/protocols/pbft"
	"bftkit/internal/protocols/poe"
	"bftkit/internal/protocols/sbft"
	"bftkit/internal/protocols/themis"
	"bftkit/internal/protocols/zyzzyva"
	"bftkit/internal/types"
)

// stuffedViewChange returns a validly signed but otherwise empty
// view-change message from `from` for view v; the eight stable-leader
// protocols share the type.
func stuffedViewChange(v types.View, from types.NodeID, sign func(types.Digest) []byte) types.Message {
	m := &core.ViewChangeMsg{NewView: v, Replica: from}
	m.Sig = sign(m.SigDigest())
	return m
}

// TestViewChangeStuffingDoesNotMoveHonestReplicas is the regression test
// for the join-rule bug every per-protocol copy of the view-change code
// carried: the rule counted view-change messages, not senders, so ONE
// Byzantine replica signing view-changes for f+1 different future views
// pushed every honest replica into a view change. With f = 1 that takes
// two messages, for views 1 and 2. The single rule in core.ViewChange
// counts distinct senders: nobody leaves view 0 and the cluster keeps
// committing.
func TestViewChangeStuffingDoesNotMoveHonestReplicas(t *testing.T) {
	for _, proto := range stableLeaderProtocols {
		t.Run(proto, func(t *testing.T) {
			c := harness.NewCluster(harness.Options{Protocol: proto, F: 1, Clients: 2, Seed: 7})
			c.Start()
			c.ClosedLoop(10, func(cl, k int) []byte {
				return kvstore.Put(fmt.Sprintf("c%d-k%d", cl, k), []byte("v"))
			})
			c.Run(5 * time.Millisecond) // mid-workload, leader 0 healthy

			// The last replica turns Byzantine (never the leader of
			// view 0, 1 or 2's honest majority): it keeps running the
			// protocol but also signs view-changes for views 1 and 2.
			byz := c.Replicas[len(c.Replicas)-1]
			for v := types.View(1); v <= 2; v++ {
				byz.Broadcast(stuffedViewChange(v, byz.ID(), byz.Signer().Sign))
			}
			// Stay short of τ2 (250 ms): until it can expire, the only
			// thing that could move a replica is the stuffed messages.
			// (Afterwards some protocols do time out on their own account
			// — the speculative ones keep requests watched until the next
			// checkpoint — which is not what this test is about.)
			c.Run(190 * time.Millisecond)
			for id, views := range c.Metrics.ViewChanges {
				if id != byz.ID() && len(views) > 0 {
					failf(t, c, "honest replica %v left view 0 for %v on one sender's view-changes", id, views)
				}
			}
			c.RunUntilIdle(30 * time.Second)
			if c.Metrics.Completed != 20 {
				failf(t, c, "completed %d/20 requests", c.Metrics.Completed)
			}
			if err := c.Audit(byz.ID()); err != nil {
				failf(t, c, "%v", err)
			}
		})
	}
}

// voteMaker builds the stage vote a replica sends the collector for one
// slot of view 0: validly signed by `from`, but naming a digest the leader
// will never assign.
type voteMaker func(seq types.SeqNum, bogus types.Digest, from types.NodeID, sign func(types.Digest) []byte) types.Message

var earlyVotes = map[string]voteMaker{
	"pbft": func(seq types.SeqNum, bogus types.Digest, from types.NodeID, sign func(types.Digest) []byte) types.Message {
		m := &pbft.PrepareMsg{Seq: seq, Digest: bogus, Replica: from}
		m.Sig = sign(m.SigDigest())
		return m
	},
	"poe": func(seq types.SeqNum, bogus types.Digest, from types.NodeID, sign func(types.Digest) []byte) types.Message {
		m := &poe.ShareMsg{Seq: seq, Digest: bogus, Replica: from}
		m.Sig = sign(m.SigClaims(from)[0].Digest)
		return m
	},
	"sbft": func(seq types.SeqNum, bogus types.Digest, from types.NodeID, sign func(types.Digest) []byte) types.Message {
		m := &sbft.ShareMsg{Stage: "sign", Seq: seq, Digest: bogus, Replica: from}
		m.Sig = sign(m.SigClaims(from)[0].Digest)
		return m
	},
	"kauri": func(seq types.SeqNum, bogus types.Digest, from types.NodeID, sign func(types.Digest) []byte) types.Message {
		var h types.Hasher // kauri's share digest
		h.Str("kauri-share").Str("prepare").U64(0).U64(uint64(seq)).Digest(bogus)
		return &kauri.AggrMsg{Stage: "prepare", Seq: seq, Digest: bogus,
			Signers: []types.NodeID{from}, Sigs: [][]byte{sign(h.Sum())}}
	},
}

// TestEarlyVotesForAnotherDigestDoNotPoisonCertificates is the regression
// test for a defect every collector-style copy of the ordering stage
// carried (pbft had been patched on its own): a verified vote that arrived
// before the proposal was stored without the digest it signed, so when the
// leader assigned a different digest the stale signature was folded into
// the slot's certificate, the certificate failed to verify at every
// replica, and the slot only resolved through a view change. One Byzantine
// backup pre-sending votes for future slots stalled the cluster. In
// core.Slots a vote counts only toward the digest it names.
func TestEarlyVotesForAnotherDigestDoNotPoisonCertificates(t *testing.T) {
	for proto, vote := range earlyVotes {
		t.Run(proto, func(t *testing.T) {
			c := harness.NewCluster(harness.Options{Protocol: proto, F: 1, Clients: 2, Seed: 7})
			c.Start()
			// The last replica — a backup and a tree leaf in view 0 — sends
			// votes for slots 1–40 naming a bogus digest, then keeps running
			// the protocol honestly.
			byz := c.Replicas[len(c.Replicas)-1]
			for seq := types.SeqNum(1); seq <= 40; seq++ {
				byz.Broadcast(vote(seq, types.Digest{0xba, 0xd0}, byz.ID(), byz.Signer().Sign))
			}
			c.ClosedLoop(10, func(cl, k int) []byte {
				return kvstore.Put(fmt.Sprintf("c%d-k%d", cl, k), []byte("v"))
			})
			c.Run(200 * time.Millisecond) // short of τ2: nothing may need a view change
			if c.Metrics.Completed != 20 {
				failf(t, c, "completed %d/20 requests within 200 ms", c.Metrics.Completed)
			}
			for id, views := range c.Metrics.ViewChanges {
				if id != byz.ID() && len(views) > 0 {
					failf(t, c, "honest replica %v left view 0 for %v", id, views)
				}
			}
			if err := c.Audit(byz.ID()); err != nil {
				failf(t, c, "%v", err)
			}
		})
	}
}

// ordering returns the quorum a replica's ordering stage runs with and how
// many sequence numbers it holds state for; ok is false for protocols that
// are not built on core.Slots.
func ordering(p core.Protocol) (quorum, slots int, ok bool) {
	switch r := p.(type) {
	case *pbft.PBFT:
		return r.Slots.Quorum, r.Slots.Len(), true
	case *poe.PoE:
		return r.Slots.Quorum, r.Slots.Len(), true
	case *sbft.SBFT:
		return r.Slots.Quorum, r.Slots.Len(), true
	case *zyzzyva.Zyzzyva:
		return r.Slots.Quorum, r.Slots.Len(), true
	case *fab.FaB:
		return r.Slots.Quorum, r.Slots.Len(), true
	case *cheapbft.CheapBFT:
		return r.Slots.Quorum, r.Slots.Len(), true
	case *kauri.Kauri:
		return r.Slots.Quorum, r.Slots.Len(), true
	case *themis.Themis:
		return r.Slots.Quorum, r.Slots.Len(), true
	}
	return 0, 0, false
}

// TestFarFutureVotesAllocateNoSlots: any authenticated replica can name any
// sequence number in a signed vote. Outside the window (LastExecuted,
// LastExecuted+HighWaterWindow] that must allocate nothing.
func TestFarFutureVotesAllocateNoSlots(t *testing.T) {
	for proto, vote := range earlyVotes {
		t.Run(proto, func(t *testing.T) {
			c := harness.NewCluster(harness.Options{Protocol: proto, F: 1, Seed: 7})
			c.Start()
			byz := c.Replicas[len(c.Replicas)-1]
			beyond := types.SeqNum(c.Cfg.HighWaterWindow)
			for seq := beyond + 1; seq <= beyond+10000; seq++ {
				byz.Send(0, vote(seq, types.Digest{0xba, 0xd0}, byz.ID(), byz.Signer().Sign))
			}
			c.Run(50 * time.Millisecond)
			if _, slots, _ := ordering(c.Replicas[0].Protocol()); slots != 0 {
				failf(t, c, "the collector holds %d slots for 10000 out-of-window votes", slots)
			}
		})
	}
}

// TestOrderingQuorumIsTheProfiles ties the running code to the design
// space: every protocol built on core.Slots orders with exactly the quorum
// its registered Profile declares, so a transformation that changes
// Profile.Quorum (DC2's phase reduction, DC10's resilience) changes a
// number the replica reads.
func TestOrderingQuorumIsTheProfiles(t *testing.T) {
	covered := 0
	for _, name := range core.Names() {
		reg, _ := core.Lookup(name)
		for f := 1; f <= 2; f++ {
			c := harness.NewCluster(harness.Options{Protocol: name, F: f})
			c.Start()
			quorum, _, ok := ordering(c.Replicas[0].Protocol())
			if !ok {
				break
			}
			covered++
			if want := reg.Profile.QuorumSize(f); quorum != want {
				t.Errorf("%s at f=%d orders with quorum %d, its profile declares %d", name, f, quorum, want)
			}
		}
	}
	// pbft, pbft-mac, poe, sbft, zyzzyva, zyzzyva5, fab, cheapbft, kauri, themis.
	if covered != 2*10 {
		t.Fatalf("checked %d (registration, f) pairs, want 20: a stable-leader protocol left core.Slots", covered)
	}
}
