package cheapbft_test

import (
	"fmt"
	"testing"
	"time"

	"bftkit/internal/byz"
	"bftkit/internal/harness"
	"bftkit/internal/kvstore"
	_ "bftkit/internal/protocols/cheapbft"
	_ "bftkit/internal/protocols/pbft" // registers the comparison baseline
	"bftkit/internal/types"
)

func op(client, k int) []byte {
	return kvstore.Put(fmt.Sprintf("c%d-k%d", client, k), []byte(fmt.Sprintf("v%d", k)))
}

func TestFaultFreeActiveSetOnly(t *testing.T) {
	c := harness.NewCluster(harness.Options{Protocol: "cheapbft", N: 4, Clients: 2})
	c.Start()
	c.ClosedLoop(25, op)
	c.RunUntilIdle(60 * time.Second)
	if got, want := c.Metrics.Completed, 50; got != want {
		t.Fatalf("completed %d, want %d", got, want)
	}
	// DC5's measurable effect: the passive replica (3, outside the view-0
	// active set {0,1,2}) sends almost nothing — it never votes.
	kinds, _ := c.Net.KindCounts()
	if kinds["COMMIT"] == 0 {
		t.Fatal("no votes observed")
	}
	passive := c.Net.Stats(types.NodeID(3))
	active := c.Net.Stats(types.NodeID(1))
	if passive.MsgsSent > active.MsgsSent/2 {
		t.Fatalf("passive replica sent %d msgs vs active %d; active/passive split broken",
			passive.MsgsSent, active.MsgsSent)
	}
	if err := c.Audit(); err != nil {
		t.Fatal(err)
	}
	// The passive replica still converges via updates.
	if c.Apps[3].Hash() != c.Apps[0].Hash() {
		t.Fatal("passive replica state diverges")
	}
}

func TestSilentActiveForcesRotation(t *testing.T) {
	// Assumption a2 broken: an active replica withholds votes; the full
	// active quorum can never form, so the view must rotate until the
	// silent replica is benched.
	c := harness.NewCluster(harness.Options{
		Protocol: "cheapbft", N: 4, Clients: 2,
		Byzantine: map[types.NodeID]byz.Behavior{1: byz.SilentPhases{Phases: []string{"commit"}}},
	})
	c.Start()
	c.ClosedLoop(10, op)
	c.RunUntilIdle(120 * time.Second)
	if got, want := c.Metrics.Completed, 20; got != want {
		t.Fatalf("completed %d with silent active replica, want %d", got, want)
	}
	rotated := false
	for _, vs := range c.Metrics.ViewChanges {
		if len(vs) > 0 {
			rotated = true
		}
	}
	if !rotated {
		t.Fatal("expected the active set to rotate away from the silent replica")
	}
	if err := c.Audit(1); err != nil {
		t.Fatal(err)
	}
}

func TestCrashedActiveReplica(t *testing.T) {
	c := harness.NewCluster(harness.Options{Protocol: "cheapbft", N: 4, Clients: 2})
	c.Start()
	c.ClosedLoop(15, op)
	c.Run(15 * time.Millisecond)
	c.Crash(2) // an active (non-leader) replica
	c.RunUntilIdle(120 * time.Second)
	if got, want := c.Metrics.Completed, 30; got != want {
		t.Fatalf("completed %d after active crash, want %d", got, want)
	}
	if err := c.Audit(2); err != nil {
		t.Fatal(err)
	}
}

func TestCheaperThanPBFTFaultFree(t *testing.T) {
	// The protocol's raison d'être: fewer agreement messages than PBFT
	// in the fault-free case (2f+1 instead of 3f+1 participants).
	msgs := func(proto string) int64 {
		c := harness.NewCluster(harness.Options{Protocol: proto, N: 7, Clients: 1})
		c.Start()
		c.ClosedLoop(20, op)
		c.RunUntilIdle(60 * time.Second)
		if c.Metrics.Completed != 20 {
			t.Fatalf("%s completed %d", proto, c.Metrics.Completed)
		}
		d, _ := c.Net.Totals()
		return d
	}
	cheap := msgs("cheapbft")
	pbft := msgs("pbft")
	if cheap >= pbft {
		t.Fatalf("cheapbft (%d msgs) should beat pbft (%d msgs) fault-free", cheap, pbft)
	}
}
