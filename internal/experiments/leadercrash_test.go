package experiments

import (
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"bftkit/internal/core"
	"bftkit/internal/harness"
	"bftkit/internal/kvstore"
	"bftkit/internal/types"
)

var updateLeaderCrash = flag.Bool("update-leader-crash", false, "rewrite testdata/leader_crash.json")

// stableLeaderProtocols are the eight protocols whose view change runs on
// core.ViewChange.
var stableLeaderProtocols = []string{"pbft", "sbft", "zyzzyva", "poe", "fab", "cheapbft", "kauri", "themis"}

// leaderCrashRun is what one seeded leader-crash run is pinned to. Wire
// bytes are deliberately absent: a change of message layout must not move
// the golden, a change of what is sent, chosen or adopted must.
type leaderCrashRun struct {
	Protocol  string `json:"protocol"`
	Seed      int64  `json:"seed"`
	Completed int    `json:"completed"`
	// LastDoneUS is the virtual time the last request completed at.
	LastDoneUS int64 `json:"last_done_us"`
	// ViewChangeMsgs and NewViewMsgs count sends, by message kind.
	ViewChangeMsgs int64 `json:"view_change_msgs"`
	NewViewMsgs    int64 `json:"new_view_msgs"`
	// Per replica, index = id (replica 0 is the crashed leader).
	FinalView    []types.View   `json:"final_view"`
	LastExecuted []types.SeqNum `json:"last_executed"`
	StateHash    []string       `json:"state_hash"`
}

// leaderCrash runs 30 closed-loop requests per client and crashes the
// view-0 leader 20 ms in: some slots have committed under view 0, some are
// in flight. tune, when set, adjusts the deployment's configuration.
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

func runLeaderCrash(proto string, seed int64) leaderCrashRun {
	run := leaderCrashRun{Protocol: proto, Seed: seed}
	c := leaderCrash(proto, seed, 2, 20*time.Second, nil, func(c *harness.Cluster) {
		c.AddDoneObserver(func(at time.Duration) { run.LastDoneUS = at.Microseconds() })
	})

	run.Completed = c.Metrics.Completed
	counts, _ := c.Net.KindCounts()
	for kind, n := range counts {
		switch {
		case strings.Contains(kind, "VIEW-CHANGE"):
			run.ViewChangeMsgs += n
		case strings.Contains(kind, "NEW-VIEW"):
			run.NewViewMsgs += n
		}
	}
	for i, r := range c.Replicas {
		var view types.View
		if vs := c.Metrics.ViewChanges[r.ID()]; len(vs) > 0 {
			view = vs[len(vs)-1]
		}
		run.FinalView = append(run.FinalView, view)
		run.LastExecuted = append(run.LastExecuted, r.Ledger().LastExecuted())
		hash := c.Apps[i].Hash()
		run.StateHash = append(run.StateHash, hex.EncodeToString(hash[:]))
	}
	return run
}

// TestLeaderCrashSameness is the sameness oracle for the view-change
// stage: the view-0 leader of each stable-leader protocol crashes
// mid-workload under three seeds, and what the run did — not how its
// messages were laid out — must equal testdata/leader_crash.json. The
// golden was generated at commit 959392c, before the eight per-protocol
// view-change copies became one, with
//
//	go test ./internal/experiments -run TestLeaderCrashSameness -update-leader-crash
func TestLeaderCrashSameness(t *testing.T) {
	var got []leaderCrashRun
	for _, proto := range stableLeaderProtocols {
		for seed := int64(1); seed <= 3; seed++ {
			got = append(got, runLeaderCrash(proto, seed))
		}
	}
	path := filepath.Join("testdata", "leader_crash.json")
	if *updateLeaderCrash {
		out, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-leader-crash): %v", err)
	}
	var want []leaderCrashRun
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d runs, golden has %d", len(got), len(want))
	}
	for i := range got {
		g, _ := json.Marshal(got[i])
		w, _ := json.Marshal(want[i])
		if string(g) != string(w) {
			t.Errorf("%s seed %d differs from the golden\n got  %s\n want %s", got[i].Protocol, got[i].Seed, g, w)
		}
	}
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
