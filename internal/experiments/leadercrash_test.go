package experiments

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"bftkit/internal/core"
	"bftkit/internal/harness"
	"bftkit/internal/kvstore"
	"bftkit/internal/types"
)

// stableLeaderProtocols are the eight protocols whose view change runs on
// core.ViewChange.
var stableLeaderProtocols = []string{"pbft", "sbft", "zyzzyva", "poe", "fab", "cheapbft", "kauri", "themis"}

// leaderCrash runs 30 closed-loop requests per client and crashes the
// view-0 leader 20 ms in: some slots have committed under view 0, some are
// in flight. It is the run the perf gate's leader-crash cells measure.
// tune, when set, adjusts the deployment's configuration.
func leaderCrash(proto string, seed int64, clients int, until time.Duration, tune func(*core.Config), setup func(*harness.Cluster)) *harness.Cluster {
	c := harness.NewCluster(harness.Options{Protocol: proto, F: 1, Clients: clients, Seed: seed, Tune: tune})
	c.Start()
	c.ClosedLoop(30, func(cl, k int) []byte {
		return kvstore.Put(fmt.Sprintf("c%d-k%d", cl, k), []byte("v"))
	})
	setup(c)
	c.Run(20 * time.Millisecond)
	c.Crash(0)
	c.RunUntilIdle(until)
	return c
}

// TestViewChangeMessagesAreDeterministic: two runs of the same seeded
// leader crash deliver byte-identical view-change and new-view messages.
// The signature covers every field (core's kit test), so equal signatures
// are equal messages. Before the carried lists were built in sequence
// order, four protocols ranged over a map to fill them and a fifth to fill
// its evidence, and the bytes differed from run to run.
func TestViewChangeMessagesAreDeterministic(t *testing.T) {
	for _, proto := range stableLeaderProtocols {
		t.Run(proto, func(t *testing.T) {
			var widest int
			delivered := func() []string {
				var sigs []string
				// One request per slot: a new leader re-proposes its
				// backlog as one batch at the default cap, so no later
				// view-change message would carry two slots.
				oneEach := func(cfg *core.Config) { cfg.BatchSize = 1 }
				leaderCrash(proto, 1, 4, 3*time.Second, oneEach, func(c *harness.Cluster) {
					c.Net.SetTap(func(_ time.Duration, from, to types.NodeID, m types.Message) {
						switch mm := m.(type) {
						case *core.ViewChangeMsg:
							widest = max(widest, len(mm.Carried), len(mm.Evidence))
							sigs = append(sigs, fmt.Sprintf("%v>%v vc %x", from, to, mm.Sig))
						case *core.NewViewMsg:
							sigs = append(sigs, fmt.Sprintf("%v>%v nv %x", from, to, mm.Sig))
						}
					})
				})
				return sigs
			}
			first, second := delivered(), delivered()
			// Themis orders one fair-ordered batch per round, so it never
			// has two slots prepared and uncommitted to carry.
			if len(first) == 0 || (widest < 2 && proto != "themis") {
				t.Fatalf("%d view-change messages, none carrying two slots: the run does not exercise list order", len(first))
			}
			if !reflect.DeepEqual(first, second) {
				t.Fatalf("two runs of the same seed sent different view-change messages (%d vs %d)", len(first), len(second))
			}
		})
	}
}
