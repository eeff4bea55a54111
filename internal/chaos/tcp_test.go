package chaos

// Real-network chaos: the invariant oracle audits a pbft cluster
// running over internal/transport's actual TCP stack, with every
// inter-replica link interposed by a NetemLink, one replica killed and
// restarted with amnesia mid-workload, and stream corruption injected
// into a live connection. The simulator's chaos suite explores
// schedules; this test checks that nothing about the real stack —
// kernel buffering, dial latency, goroutine interleavings, partial
// writes — breaks the same invariants.

import (
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"bftkit/internal/core"
	"bftkit/internal/harness"
	"bftkit/internal/kvstore"
	"bftkit/internal/obsv"
	"bftkit/internal/types"

	_ "bftkit/internal/protocols/pbft"
)

// TestNetemLinkFaults pins the proxy itself: bytes flow through, Sever
// cuts live connections and refuses new ones, Heal restores service,
// and injected garbage precedes the next real chunk.
func TestNetemLinkFaults(t *testing.T) {
	// Echo server as the forward target.
	srv, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	go func() {
		for {
			c, err := srv.Accept()
			if err != nil {
				return
			}
			go io.Copy(c, c)
		}
	}()

	link, err := NewNetemLink(srv.Addr().String(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer link.Close()

	dial := func() net.Conn {
		t.Helper()
		c, err := net.DialTimeout("tcp", link.Addr(), 2*time.Second)
		if err != nil {
			t.Fatalf("dial through link: %v", err)
		}
		return c
	}
	roundTrip := func(c net.Conn, payload string) (string, error) {
		if _, err := c.Write([]byte(payload)); err != nil {
			return "", err
		}
		buf := make([]byte, len(payload))
		c.SetReadDeadline(time.Now().Add(2 * time.Second))
		if _, err := io.ReadFull(c, buf); err != nil {
			return "", err
		}
		return string(buf), nil
	}

	c1 := dial()
	defer c1.Close()
	if got, err := roundTrip(c1, "hello"); err != nil || got != "hello" {
		t.Fatalf("passthrough: got %q, %v", got, err)
	}

	// Garbage precedes the next chunk: write 5 bytes, read 3+5 back.
	link.InjectGarbage(3)
	if _, err := c1.Write([]byte("world")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	c1.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := io.ReadFull(c1, buf); err != nil {
		t.Fatalf("reading garbage+payload echo: %v", err)
	}
	if string(buf[3:]) != "world" {
		t.Fatalf("expected payload after 3 garbage bytes, got %q", buf)
	}

	// Sever kills the live connection and refuses replacements.
	link.Sever()
	if _, err := roundTrip(c1, "dead"); err == nil {
		t.Fatal("round trip succeeded over a severed link")
	}
	c2, err := net.DialTimeout("tcp", link.Addr(), 2*time.Second)
	if err == nil {
		// The TCP handshake may complete before the proxy closes it; any
		// traffic must fail.
		if _, rerr := roundTrip(c2, "refused"); rerr == nil {
			t.Fatal("severed link carried traffic for a new connection")
		}
		c2.Close()
	}

	link.Heal()
	c3 := dial()
	defer c3.Close()
	if got, err := roundTrip(c3, "back"); err != nil || got != "back" {
		t.Fatalf("after heal: got %q, %v", got, err)
	}
}

// TestNetemLinksFollowThePeerTable: a pair keeps its link across
// View calls, but the link forwards to wherever the latest table says
// the target listens — NewTCPCluster re-boots on fresh ports when a
// reserved one is taken, and links still aimed at the first attempt's
// ports would cut every replica off from every other.
func TestNetemLinksFollowThePeerTable(t *testing.T) {
	greeter := func(name string) string {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		go func() {
			for {
				c, err := ln.Accept()
				if err != nil {
					return
				}
				c.Write([]byte(name))
				c.Close()
			}
		}()
		return ln.Addr().String()
	}
	nn := NewNetemNet(3)
	defer nn.Close()
	var via string
	for _, name := range []string{"old", "new"} {
		view, err := nn.View(0, map[types.NodeID]string{0: "self", 1: greeter(name)})
		if err != nil {
			t.Fatal(err)
		}
		if via != "" && view[1] != via {
			t.Fatalf("the 0→1 link moved from %s to %s", via, view[1])
		}
		via = view[1]
		c, err := net.DialTimeout("tcp", via, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		c.SetReadDeadline(time.Now().Add(2 * time.Second))
		got, _ := io.ReadAll(c)
		c.Close()
		if string(got) != name {
			t.Fatalf("link forwarded to %q, the table names %q", got, name)
		}
	}
}

// TestTCPClusterKillRestartUnderChaos is the tentpole acceptance run: a
// real-TCP pbft cluster (n=4, f=1) serves a closed-loop workload while
// one backup replica is killed and later restarted with empty state,
// one link runs with added latency, another link is severed and healed,
// and garbage is injected into a live leader connection. The chaos
// oracle's prefix-agreement and acked-durability invariants must hold
// throughout, and the injected stream corruption must surface as frame
// rejections — not node deaths.
func TestTCPClusterKillRestartUnderChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("real-network run with kill/restart and wall-clock backoff")
	}

	nn := NewNetemNet(42)
	defer nn.Close()
	tracer := obsv.New(obsv.Options{Label: "tcp-chaos"})

	var clu *harness.TCPCluster
	now := func() time.Duration {
		if clu == nil {
			return 0
		}
		return clu.Now()
	}
	oracle := NewOracle(Config{Protocol: "pbft", N: 4, F: 1}, now)

	clu, err := harness.NewTCPCluster(harness.TCPOptions{
		Protocol: "pbft",
		N:        4,
		F:        1,
		Seed:     7,
		// Short checkpoint window so the restarted replica's state
		// transfer actually runs inside this small workload.
		Tune:      func(cfg *core.Config) { cfg.CheckpointInterval = 8 },
		Observers: []harness.Observer{oracle},
		PeerView:  nn.View,
		Trace:     tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer clu.Stop()

	const requests = 30
	completed := 0
	submit := func(i int) {
		clu.Submit(kvstore.Put(fmt.Sprintf("key-%d", i), []byte(fmt.Sprintf("value-%d", i))))
		if _, err := clu.AwaitDone(30 * time.Second); err != nil {
			t.Fatalf("request %d: %v (violations so far: %v)", i, err, oracle.Violations())
		}
		completed++
	}

	// Phase 1: healthy cluster, with one slow link from the start.
	if l := nn.Link(1, 2); l != nil {
		l.SetDelay(2 * time.Millisecond)
	}
	for i := 1; i <= 10; i++ {
		submit(i)
	}

	// Phase 2: kill backup replica 3 (leader of view 0 is replica 0);
	// the cluster must keep committing on the remaining quorum while
	// every peer's dials to 3 fail and back off.
	clu.KillReplica(3)
	for i := 11; i <= 18; i++ {
		submit(i)
	}

	// Phase 3: restart replica 3 from empty state; it rejoins via
	// checkpoint state transfer while the workload continues. Briefly
	// sever the leader→backup-1 link mid-recovery, then heal it.
	if err := clu.RestartReplica(3); err != nil {
		t.Fatal(err)
	}
	sev := nn.Link(0, 1)
	if sev != nil {
		sev.Sever()
	}
	for i := 19; i <= 24; i++ {
		submit(i)
	}
	if sev != nil {
		sev.Heal()
	}
	for i := 25; i <= requests; i++ {
		submit(i)
	}

	// Phase 4: corrupt the leader's stream to backup 1. The garbage must
	// cost exactly a connection (frame reject + reconnect), nothing
	// more. Keep the workload running until the rejection is observed.
	if l := nn.Link(0, 1); l != nil {
		l.InjectGarbage(64)
		extra := 0
		for tracer.TransportStats().FrameRejects == 0 && extra < 20 {
			extra++
			submit(requests + extra)
		}
		if tracer.TransportStats().FrameRejects == 0 {
			t.Fatalf("garbage injected on the 0→1 link never produced a frame rejection (stats %+v)", tracer.TransportStats())
		}
	}

	clu.Stop() // a trailing replica still feeds the oracle until then
	oracle.Finalize(completed, completed, true, clu.Now())
	if v := oracle.Violations(); len(v) != 0 {
		t.Fatalf("invariant violations on real TCP:\n%v", v)
	}

	// The run must have exercised the reconnect path, not just survived.
	ts := tracer.TransportStats()
	if ts.Reconnects == 0 && ts.DialFails == 0 {
		t.Fatalf("kill/restart produced no reconnect activity (stats %+v)", ts)
	}
}

// linkWatch counts deliveries per directed (from, to) pair.
type linkWatch struct {
	mu sync.Mutex
	n  map[[2]types.NodeID]int
}

func (w *linkWatch) OnCommit(types.NodeID, types.View, types.SeqNum, *types.Batch, *types.CommitProof, time.Duration) {
}
func (w *linkWatch) OnExecute(types.NodeID, types.SeqNum, *types.Batch, [][]byte, time.Duration) {}
func (w *linkWatch) OnViewChange(types.NodeID, types.View, time.Duration)                        {}
func (w *linkWatch) OnViolation(types.NodeID, error)                                             {}
func (w *linkWatch) OnDone(types.NodeID, *types.Request, []byte, time.Duration)                  {}

func (w *linkWatch) OnDeliver(_ time.Duration, from, to types.NodeID, _ types.Message) {
	w.mu.Lock()
	w.n[[2]types.NodeID{from, to}]++
	w.mu.Unlock()
}

func (w *linkWatch) count(from, to types.NodeID) int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.n[[2]types.NodeID{from, to}]
}

// TestNetemLinkIsDirected: a fault on the 2→1 link cuts what replica 2
// sends to replica 1 and nothing else — 1 still reaches 2 over its own
// link, as a directed link fault does on the simulator — and the
// remaining quorum keeps serving.
func TestNetemLinkIsDirected(t *testing.T) {
	if testing.Short() {
		t.Skip("real-network run")
	}
	nn := NewNetemNet(11)
	defer nn.Close()
	watch := &linkWatch{n: make(map[[2]types.NodeID]int)}
	clu, err := harness.NewTCPCluster(harness.TCPOptions{
		Protocol: "pbft", N: 4, F: 1, Seed: 7,
		Observers: []harness.Observer{watch},
		PeerView:  nn.View,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer clu.Stop()

	next := 0
	submit := func(k int) {
		for i := 0; i < k; i++ {
			next++
			clu.Submit(kvstore.Put(fmt.Sprintf("key-%d", next), []byte("v")))
			if _, err := clu.AwaitDone(30 * time.Second); err != nil {
				t.Fatalf("request %d: %v", next, err)
			}
		}
	}
	submit(5)
	if watch.count(2, 1) == 0 || watch.count(1, 2) == 0 {
		t.Fatalf("healthy cluster: %d deliveries 2→1, %d deliveries 1→2", watch.count(2, 1), watch.count(1, 2))
	}

	nn.Link(2, 1).Sever()
	time.Sleep(100 * time.Millisecond) // what the proxy had already forwarded lands
	cut21, cut12 := watch.count(2, 1), watch.count(1, 2)
	submit(10)
	if got := watch.count(2, 1); got != cut21 {
		t.Fatalf("%d deliveries 2→1 over the severed link", got-cut21)
	}
	if watch.count(1, 2) == cut12 {
		t.Fatal("severing 2→1 also stopped 1→2")
	}

	nn.Link(2, 1).Heal()
	for extra := 0; watch.count(2, 1) == cut21; extra++ {
		if extra == 20 {
			t.Fatal("2→1 deliveries did not resume after the link healed")
		}
		submit(1)
	}
}

var _ harness.Observer = (*Oracle)(nil)

var _ = types.NodeID(0)
