package qu_test

import (
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"bftkit/internal/harness"
	"bftkit/internal/kvstore"
	"bftkit/internal/protocols/qu"
	"bftkit/internal/types"
)

func disjointOp(client, k int) []byte {
	return kvstore.Put(fmt.Sprintf("c%d-k%d", client, k), []byte("v"))
}

func contendedOp(client, k int) []byte {
	return kvstore.Add("hot", 1) // every client hits the same object
}

func TestConflictFreeZeroOrderingPhases(t *testing.T) {
	c := harness.NewCluster(harness.Options{Protocol: "qu", F: 1, Clients: 4}) // n = 6
	c.Start()
	c.ClosedLoop(20, disjointOp)
	c.RunUntilIdle(60 * time.Second)
	if got, want := c.Metrics.Completed, 80; got != want {
		t.Fatalf("completed %d, want %d", got, want)
	}
	// DC9's whole point: replicas never talk to each other. All traffic
	// is client↔replica.
	kinds, _ := c.Net.KindCounts()
	for kind := range kinds {
		switch kind {
		case "QU-QUERY", "QU-QUERY-RESP", "QU-WRITE", "QU-WRITE-RESP", "QU-RESOLVE":
		default:
			t.Fatalf("unexpected traffic kind: %s", kind)
		}
	}
	// All replicas converge on disjoint-key workloads.
	h0 := c.Replicas[0].Protocol().(*qu.Replica).Store().Hash()
	for i := 1; i < 6; i++ {
		if c.Replicas[i].Protocol().(*qu.Replica).Store().Hash() != h0 {
			t.Fatalf("replica %d state diverges on a conflict-free workload", i)
		}
	}
}

func TestLatencyIsOneRoundTrip(t *testing.T) {
	c := harness.NewCluster(harness.Options{Protocol: "qu", F: 1, Clients: 1})
	c.Start()
	c.ClosedLoop(20, disjointOp)
	c.RunUntilIdle(60 * time.Second)
	if c.Metrics.Completed != 20 {
		t.Fatalf("completed %d", c.Metrics.Completed)
	}
	// Query + write = two client↔replica round trips ≈ 4×(1ms+jitter).
	if mean := c.Metrics.MeanLatency(); mean > 8*time.Millisecond {
		t.Fatalf("mean latency %v; Q/U should commit in two round trips", mean)
	}
}

func TestContentionTriggersRepair(t *testing.T) {
	c := harness.NewCluster(harness.Options{Protocol: "qu", F: 1, Clients: 4})
	c.Start()
	c.ClosedLoop(10, contendedOp)
	c.RunUntilIdle(300 * time.Second)
	if got, want := c.Metrics.Completed, 40; got != want {
		t.Fatalf("completed %d under contention, want %d", got, want)
	}
	// Conflicts force query/repair cycles, inflating query traffic
	// beyond the one-shot minimum of 40 requests × 6 replicas.
	kinds, _ := c.Net.KindCounts()
	if queries := kinds["QU-QUERY"]; queries <= 40*6 {
		t.Fatalf("expected conflict retries to inflate queries beyond %d, got %d", 40*6, queries)
	}
	// The hot counter must reflect every increment exactly once on at
	// least a 4f+1 quorum of replicas.
	okCount := 0
	for i := 0; i < 6; i++ {
		v, ok := c.Replicas[i].Protocol().(*qu.Replica).Store().GetValue("hot")
		if ok && len(v) == 8 && binary.BigEndian.Uint64(v) == 40 {
			okCount++
		}
	}
	if okCount < 5 {
		t.Fatalf("only %d replicas hold the final counter value", okCount)
	}
}

func TestThroughputDegradesWithConflictRate(t *testing.T) {
	// X7's shape: Q/U throughput collapses as the conflict rate rises.
	elapsed := func(conflict bool) time.Duration {
		c := harness.NewCluster(harness.Options{Protocol: "qu", F: 1, Clients: 4})
		c.Start()
		op := disjointOp
		if conflict {
			op = contendedOp
		}
		c.ClosedLoop(10, op)
		start := c.Sched.Now()
		c.RunUntilIdle(300 * time.Second)
		if c.Metrics.Completed != 40 {
			t.Fatalf("completed %d (conflict=%v)", c.Metrics.Completed, conflict)
		}
		return c.Sched.Now() - start
	}
	free := elapsed(false)
	hot := elapsed(true)
	if hot < 2*free {
		t.Fatalf("contention should slow Q/U down substantially: free=%v hot=%v", free, hot)
	}
}

func TestReadsAreWriteFree(t *testing.T) {
	c := harness.NewCluster(harness.Options{Protocol: "qu", F: 1, Clients: 1})
	c.Start()
	c.Submit(0, kvstore.Put("x", []byte("1")))
	c.RunUntilIdle(10 * time.Second)
	kinds, _ := c.Net.KindCounts()
	writesBefore := kinds["QU-WRITE"]
	c.Submit(0, kvstore.Get("x"))
	c.RunUntilIdle(10 * time.Second)
	if c.Metrics.Completed != 2 {
		t.Fatalf("completed %d, want 2", c.Metrics.Completed)
	}
	kinds, _ = c.Net.KindCounts()
	if kinds["QU-WRITE"] != writesBefore {
		t.Fatal("a read produced write traffic")
	}
	_ = types.NodeID(0)
}

// TestResolveRefusesRepeatedAttester: a Resolve's f+1 attestations must
// come from f+1 distinct replicas. Evidence that repeats one replica's
// genuine signature is one attestation, and a replica that adopted it
// would let a single (possibly Byzantine) replica overwrite its state.
func TestResolveRefusesRepeatedAttester(t *testing.T) {
	c := harness.NewCluster(harness.Options{Protocol: "qu", F: 1, Clients: 1}) // n = 6, f+1 = 2
	c.Start()
	resolve := func(attesters ...types.NodeID) *qu.ResolveMsg {
		m := &qu.ResolveMsg{Key: "k", Version: 1, Value: []byte("forged"), Exists: true}
		d := qu.AttDigest(m.Key, m.Version, m.Value, m.Exists, m.Lineage)
		for _, id := range attesters {
			m.Evidence = append(m.Evidence, qu.Attestation{
				Replica: id, Version: m.Version, Value: m.Value, Exists: m.Exists,
				Sig: c.Auth.Signer(id).Sign(d),
			})
		}
		return m
	}
	store := func(i int) *kvstore.Store { return c.Replicas[i].Protocol().(*qu.Replica).Store() }

	c.Replicas[0].Protocol().OnMessage(types.ClientIDBase, resolve(1, 1))
	if v, ok := store(0).GetValue("k"); ok {
		t.Fatalf("replica 0 adopted %q on one replica's attestation named twice", v)
	}
	// The same evidence from two distinct replicas is a valid repair.
	c.Replicas[0].Protocol().OnMessage(types.ClientIDBase, resolve(1, 2))
	if v, ok := store(0).GetValue("k"); !ok || string(v) != "forged" {
		t.Fatalf("replica 0 holds (%q, %v) after a valid repair, want the attested value", v, ok)
	}
}
