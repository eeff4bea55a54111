package core

import (
	"bytes"
	"testing"

	"bftkit/internal/crypto"
	"bftkit/internal/kvstore"
	"bftkit/internal/types"
)

// cpProto embeds a CheckpointManager the way protocols do.
type cpProto struct {
	recorder
	cm *CheckpointManager
}

func (p *cpProto) Init(env Env) {
	p.recorder.Init(env)
	p.cm = NewCheckpointManager(env)
}

func (p *cpProto) OnMessage(from types.NodeID, m types.Message) {
	if p.cm.OnMessage(from, m) {
		return
	}
	p.recorder.OnMessage(from, m)
}

func (p *cpProto) OnExecuted(seq types.SeqNum, b *types.Batch, results [][]byte) {
	p.recorder.OnExecuted(seq, b, results)
	p.cm.OnExecuted(seq)
}

// cpCluster wires k replicas with manual message shuttling.
type cpCluster struct {
	reps    []*Replica
	protos  []*cpProto
	drivers []*fakeDriver
	auth    *crypto.Authority
}

func newCPCluster(t *testing.T, n int, interval uint64) *cpCluster {
	t.Helper()
	c := &cpCluster{auth: crypto.NewAuthority(1)}
	cfg := DefaultConfig(n)
	cfg.CheckpointInterval = interval
	for i := 0; i < n; i++ {
		d := newFakeDriver()
		p := &cpProto{}
		rep := NewReplica(types.NodeID(i), cfg, d, p, kvstore.New(), c.auth, Hooks{})
		rep.Start()
		c.reps = append(c.reps, rep)
		c.protos = append(c.protos, p)
		c.drivers = append(c.drivers, d)
	}
	return c
}

// pump delivers every captured send to its destination until quiescent.
func (c *cpCluster) pump() {
	for c.step() {
	}
}

// step delivers what each replica had sent when it was called — one
// network hop; what the deliveries send in turn waits for the next step —
// and reports whether anything moved.
func (c *cpCluster) step() bool {
	inFlight := make([][]sentMsg, len(c.drivers))
	for i, d := range c.drivers {
		inFlight[i], d.sent = d.sent, nil
	}
	moved := false
	for i, sent := range inFlight {
		for _, s := range sent {
			if int(s.To) < len(c.reps) {
				c.reps[s.To].Deliver(types.NodeID(i), s.M)
				moved = true
			}
		}
	}
	return moved
}

func (c *cpCluster) commitEverywhere(seq types.SeqNum) {
	b := types.NewBatch(req(uint64(seq), kvstore.Put(string(rune('a'+seq%20)), []byte{byte(seq)})))
	for _, r := range c.reps {
		r.Commit(0, seq, b, nil)
	}
}

func TestCheckpointStabilizesAndCollects(t *testing.T) {
	c := newCPCluster(t, 4, 5)
	for s := types.SeqNum(1); s <= 12; s++ {
		c.commitEverywhere(s)
	}
	c.pump()
	for i, r := range c.reps {
		if lw := r.Ledger().LowWater(); lw != 10 {
			t.Fatalf("replica %d low water %d, want 10", i, lw)
		}
		if c.protos[i].cm.StableCount < 2 {
			t.Fatalf("replica %d stabilized %d checkpoints", i, c.protos[i].cm.StableCount)
		}
	}
}

func TestCheckpointStateTransferForLaggard(t *testing.T) {
	c := newCPCluster(t, 4, 5)
	// Replicas 0..2 execute 10 slots; replica 3 sees nothing.
	b := make([]*types.Batch, 11)
	for s := types.SeqNum(1); s <= 10; s++ {
		b[s] = types.NewBatch(req(uint64(s), kvstore.Put(string(rune('a'+s)), []byte{byte(s)})))
		for i := 0; i < 3; i++ {
			c.reps[i].Commit(0, s, b[s], nil)
		}
	}
	// Deliver checkpoint traffic (including to the laggard).
	c.pump()
	if got := c.reps[3].Ledger().LastExecuted(); got < 10 {
		t.Fatalf("laggard reached seq %d, want 10 via state transfer", got)
	}
	if c.reps[3].App().Hash() != c.reps[0].App().Hash() {
		t.Fatal("laggard state diverges after transfer")
	}
}

// TestStateTransferServesTheStateAtTheCheckpoint: a checkpoint keeps a
// frozen view, not bytes, and the view is serialised only when a fetch
// arrives — by which time the server has executed further writes to the
// same keys. The laggard must install the state as of the checkpoint (its
// hash is the certified one) and then replay the suffix on top.
func TestStateTransferServesTheStateAtTheCheckpoint(t *testing.T) {
	c := newCPCluster(t, 4, 5)
	long := func(b byte) []byte { return bytes.Repeat([]byte{b}, 100) } // enters the hash by leaf
	commit := func(s types.SeqNum, op []byte) {
		b := types.NewBatch(req(uint64(s), op))
		for i := 0; i < 3; i++ {
			c.reps[i].Commit(0, s, b, nil)
		}
	}
	keys := []string{"a", "b", "c", "d", "e"}
	for s := types.SeqNum(1); s <= 5; s++ {
		commit(s, kvstore.Put(keys[s-1], long(byte(s))))
	}
	atCheckpoint := c.reps[0].App().Hash()
	var installed types.Digest
	c.protos[3].cm.Fastforwarded = func(types.SeqNum) { installed = c.reps[3].App().Hash() }

	// One hop: the checkpoint votes reach the laggard, whose fetch is now
	// in flight. Before it lands the servers overwrite, delete and
	// re-create the keys the checkpoint covers.
	c.step()
	commit(6, kvstore.Put("a", long(60)))
	commit(7, kvstore.Delete("b"))
	commit(8, kvstore.Put("c", []byte("short")))
	commit(9, kvstore.Add("e", 3))
	if c.reps[0].App().Hash() == atCheckpoint {
		t.Fatal("setup: the servers' state should have moved past the checkpoint")
	}
	c.pump()

	if installed != atCheckpoint {
		t.Fatalf("laggard installed state %v, the checkpoint certified %v", installed, atCheckpoint)
	}
	if got := c.reps[3].Ledger().LastExecuted(); got != 9 {
		t.Fatalf("laggard reached seq %d, want 9 after replaying the suffix", got)
	}
	if c.reps[3].App().Hash() != c.reps[0].App().Hash() {
		t.Fatal("laggard state diverges after transfer and replay")
	}
}

func TestCheckpointRejectsForgedSnapshot(t *testing.T) {
	c := newCPCluster(t, 4, 5)
	// Give the laggard a certified expectation for seq 5 by letting it
	// watch the others' checkpoints.
	for s := types.SeqNum(1); s <= 5; s++ {
		bt := types.NewBatch(req(uint64(s), kvstore.Put("k", []byte{byte(s)})))
		for i := 0; i < 3; i++ {
			c.reps[i].Commit(0, s, bt, nil)
		}
	}
	c.pump()
	if c.reps[3].Ledger().LastExecuted() != 5 {
		t.Fatal("setup: laggard should have transferred to 5")
	}

	// Now a Byzantine peer offers a *forged* snapshot for a future seq
	// the quorum never certified: it must be ignored.
	bad := kvstore.New()
	bad.Apply(kvstore.Put("evil", []byte("state")))
	c.reps[3].Deliver(1, &StateMsg{
		Seq:       50,
		StateHash: bad.Hash(),
		Snapshot:  bad.Snapshot(),
	})
	if c.reps[3].Ledger().LastExecuted() != 5 {
		t.Fatal("forged snapshot fast-forwarded the replica")
	}
	if _, ok := c.reps[3].App().(*kvstore.Store).GetValue("evil"); ok {
		t.Fatal("forged state installed")
	}
}

func TestCheckpointIgnoresBadSignatures(t *testing.T) {
	c := newCPCluster(t, 4, 5)
	// A checkpoint message signed by the wrong key must not count
	// toward stabilization.
	forged := &CheckpointMsg{Seq: 5, StateHash: types.DigestBytes([]byte("x")), Replica: 2}
	forged.Sig = c.auth.Signer(1).Sign(forged.Digest()) // wrong signer
	for i := 0; i < 3; i++ {
		c.reps[3].Deliver(2, forged)
	}
	if c.reps[3].Ledger().LowWater() != 0 {
		t.Fatal("forged checkpoints stabilized")
	}
}
