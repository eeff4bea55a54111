package harness

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"bftkit/internal/core"
	"bftkit/internal/kvstore"
	"bftkit/internal/obsv"
	_ "bftkit/internal/protocols/chainrepl"
	_ "bftkit/internal/protocols/cheapbft"
	_ "bftkit/internal/protocols/fab"
	_ "bftkit/internal/protocols/hotstuff"
	_ "bftkit/internal/protocols/kauri"
	_ "bftkit/internal/protocols/poe"
	_ "bftkit/internal/protocols/prime"
	_ "bftkit/internal/protocols/qu"
	_ "bftkit/internal/protocols/raftlite"
	_ "bftkit/internal/protocols/sbft"
	_ "bftkit/internal/protocols/tendermint"
	_ "bftkit/internal/protocols/themis"
	_ "bftkit/internal/protocols/zyzzyva"
	"bftkit/internal/types"
)

// TestSizeEveryRegistration pins the one sizing rule for every
// registered profile: whatever the caller fixes, the result carries its
// own f, and going n → largest f → minimum n for that f is a fixed point.
func TestSizeEveryRegistration(t *testing.T) {
	for _, name := range core.Names() {
		reg, _ := core.Lookup(name)
		p := reg.Profile
		n, f, err := Size(p, 0, 0)
		if err != nil || f != 1 || n != p.MinReplicas(1) {
			t.Fatalf("%s (0,0): n=%d f=%d err=%v, want the minimum for f=1", name, n, f, err)
		}
		for want := 1; want <= 4; want++ {
			n, f, err := Size(p, 0, want)
			if err != nil || f != want || n != p.MinReplicas(want) {
				t.Fatalf("%s (0,%d): n=%d f=%d err=%v", name, want, n, f, err)
			}
			// The minimum n for f tolerates exactly f, and so does every n
			// up to the next minimum: n → largest f → MinReplicas is stable.
			for nn := n; nn < p.MinReplicas(want+1); nn++ {
				gotN, gotF, err := Size(p, nn, 0)
				if err != nil || gotN != nn || gotF != want || gotN < p.MinReplicas(gotF) {
					t.Fatalf("%s (%d,0): n=%d f=%d err=%v, want f=%d", name, nn, gotN, gotF, err, want)
				}
			}
			if _, _, err := Size(p, n-1, want); err == nil {
				t.Fatalf("%s: n=%d accepted for f=%d (minimum %d)", name, n-1, want, n)
			}
		}
		// Below the f=1 minimum no fault is tolerable, and Size says so
		// rather than handing back f=0.
		if min := p.MinReplicas(1); min > 1 {
			if n, f, err := Size(p, min-1, 0); err == nil {
				t.Fatalf("%s: n=%d sized to n=%d f=%d, want an error", name, min-1, n, f)
			}
		}
	}
}

// parityRec is one Observer-plus-OnDeliver implementation, attached
// unchanged to both drivers.
type parityRec struct {
	mu        sync.Mutex
	commits   map[types.NodeID]map[types.SeqNum]bool
	execs     map[types.NodeID]map[types.SeqNum]bool
	done      map[types.RequestKey]int
	toReplica int
	toClient  int
}

func newParityRec() *parityRec {
	return &parityRec{
		commits: make(map[types.NodeID]map[types.SeqNum]bool),
		execs:   make(map[types.NodeID]map[types.SeqNum]bool),
		done:    make(map[types.RequestKey]int),
	}
}

func mark(m map[types.NodeID]map[types.SeqNum]bool, id types.NodeID, seq types.SeqNum) {
	if m[id] == nil {
		m[id] = make(map[types.SeqNum]bool)
	}
	m[id][seq] = true
}

func (r *parityRec) OnCommit(id types.NodeID, _ types.View, seq types.SeqNum, _ *types.Batch, _ *types.CommitProof, _ time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	mark(r.commits, id, seq)
}

func (r *parityRec) OnExecute(id types.NodeID, seq types.SeqNum, _ *types.Batch, _ [][]byte, _ time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	mark(r.execs, id, seq)
}

func (r *parityRec) OnViewChange(types.NodeID, types.View, time.Duration) {}
func (r *parityRec) OnViolation(types.NodeID, error)                      {}

func (r *parityRec) OnDone(_ types.NodeID, req *types.Request, _ []byte, _ time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.done[req.Key()]++
}

func (r *parityRec) OnDeliver(_ time.Duration, _, to types.NodeID, _ types.Message) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if to >= types.ClientIDBase {
		r.toClient++
	} else {
		r.toReplica++
	}
}

// settled reports "" once every one of n replicas has seen OnCommit and
// OnExecute for every slot any replica executed and every request
// completed exactly once; otherwise it says what is missing.
func (r *parityRec) settled(n, requests int) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.done) != requests {
		return fmt.Sprintf("%d of %d requests done", len(r.done), requests)
	}
	for key, k := range r.done {
		if k != 1 {
			return fmt.Sprintf("request %v completed %d times", key, k)
		}
	}
	executed := make(map[types.SeqNum]bool)
	for _, seqs := range r.execs {
		for seq := range seqs {
			executed[seq] = true
		}
	}
	if len(executed) == 0 {
		return "no slot executed"
	}
	for i := 0; i < n; i++ {
		id := types.NodeID(i)
		for seq := range executed {
			if !r.execs[id][seq] {
				return fmt.Sprintf("replica %v has no OnExecute for seq %d", id, seq)
			}
			if !r.commits[id][seq] {
				return fmt.Sprintf("replica %v has no OnCommit for seq %d", id, seq)
			}
		}
	}
	if r.toReplica == 0 || r.toClient == 0 {
		return fmt.Sprintf("deliveries seen: %d replica-bound, %d client-bound", r.toReplica, r.toClient)
	}
	return ""
}

// tracerSaw reports "" when the tracer holds runtime events and crypto
// counters, i.e. the runtime and the authority both reported to it.
func tracerSaw(tr *obsv.Tracer) string {
	seen := make(map[obsv.EventType]bool)
	for _, e := range tr.Events() {
		seen[e.Type] = true
	}
	if !seen[obsv.EvCommit] || !seen[obsv.EvExecute] {
		return fmt.Sprintf("tracer events: commit=%v execute=%v", seen[obsv.EvCommit], seen[obsv.EvExecute])
	}
	if tot := tr.Totals(); tot.Sign+tot.Verify+tot.MACSign+tot.MACVerify == 0 {
		return "tracer counted no crypto operation"
	}
	return ""
}

func parityOp(k int) []byte {
	return kvstore.Put(fmt.Sprintf("parity-%d", k), []byte("v"))
}

// parityTune commits every slot on speculative protocols, as the chaos
// runner does: their fast path otherwise leaves the whole 20-request run
// acknowledged but uncommitted until the first checkpoint at slot 128.
func parityTune(proto string) func(*core.Config) {
	if reg, _ := core.Lookup(proto); !reg.Profile.Speculative {
		return nil
	}
	return func(cfg *core.Config) { cfg.CheckpointInterval = 1 }
}

// TestDriverParity attaches the same observer to a simulated and to a
// TCP deployment of each protocol and demands the same view of the run
// from both: the assembly is shared, so what an observer sees must not
// depend on the driver.
func TestDriverParity(t *testing.T) {
	const requests = 20
	for _, proto := range core.Names() {
		if proto == "qu" {
			continue // no ordered execution, so no OnExecute on either driver (ROADMAP item 3, "Small ones")
		}
		t.Run(proto+"/sim", func(t *testing.T) {
			rec := newParityRec()
			tr := obsv.New(obsv.Options{Events: true})
			c := NewCluster(Options{Protocol: proto, Seed: 3, Tune: parityTune(proto), Trace: tr, Observers: []Observer{rec}})
			c.Start()
			c.ClosedLoop(requests, func(_, k int) []byte { return parityOp(k) })
			for c.Metrics.Completed < requests && c.Sched.Now() < 30*time.Second {
				c.Run(100 * time.Millisecond)
			}
			c.Run(2 * time.Second)
			if why := rec.settled(c.Cfg.N, requests); why != "" {
				t.Fatal(why)
			}
			if why := tracerSaw(tr); why != "" {
				t.Fatal(why)
			}
		})
		t.Run(proto+"/tcp", func(t *testing.T) {
			if testing.Short() {
				t.Skip("real sockets")
			}
			if why := parityOnTCP(t, proto, requests); why != "" {
				t.Fatal(why)
			}
		})
	}
}

// parityOnTCP runs one TCP deployment and reports what the observer or
// the tracer missed, "" if nothing.
func parityOnTCP(t *testing.T, proto string, requests int) string {
	rec := newParityRec()
	tr := obsv.New(obsv.Options{Events: true})
	clu, err := NewTCPCluster(TCPOptions{Protocol: proto, Seed: 3, Tune: parityTune(proto), Trace: tr, Observers: []Observer{rec}})
	if err != nil {
		t.Fatal(err)
	}
	defer clu.Stop()
	for k := 1; k <= requests; k++ {
		clu.Submit(parityOp(k))
		if _, err := clu.AwaitDone(20 * time.Second); err != nil {
			return fmt.Sprintf("request %d: %v", k, err)
		}
	}
	// Backups may trail the client-visible prefix by a slot.
	why := rec.settled(clu.Cfg.N, requests)
	for deadline := time.Now().Add(3 * time.Second); why != "" && time.Now().Before(deadline); {
		time.Sleep(20 * time.Millisecond)
		why = rec.settled(clu.Cfg.N, requests)
	}
	clu.Stop()
	if why != "" {
		return why
	}
	return tracerSaw(tr)
}

// TestSimTapSitsBehindCrashFilter: a delivery observer on the simulator
// sees a message only if the network's own crash filter let it through,
// which is what lets the chaos oracle audit that filter.
func TestSimTapSitsBehindCrashFilter(t *testing.T) {
	rec := &crashProbe{parityRec: newParityRec(), crashed: 3}
	c := NewCluster(Options{Protocol: "pbft", N: 4, Observers: []Observer{rec}})
	c.Start()
	c.ClosedLoop(10, func(_, k int) []byte { return parityOp(k) })
	c.Run(20 * time.Millisecond)
	c.CrashNet(3)
	rec.armed = true
	c.Run(5 * time.Second)
	if c.Metrics.Completed != 10 {
		t.Fatalf("%d of 10 requests completed", c.Metrics.Completed)
	}
	if rec.toCrashed != 0 || rec.toOthers == 0 {
		t.Fatalf("after the crash: %d deliveries to the crashed replica, %d to the others", rec.toCrashed, rec.toOthers)
	}
}

type crashProbe struct {
	*parityRec
	crashed             types.NodeID
	armed               bool
	toCrashed, toOthers int
}

func (p *crashProbe) OnDeliver(_ time.Duration, _, to types.NodeID, _ types.Message) {
	switch {
	case !p.armed:
	case to == p.crashed:
		p.toCrashed++
	default:
		p.toOthers++
	}
}

// TestTCPClusterSharedTraceSeesRuntimeAndCrypto: a tracer shared through
// TCPOptions.Trace (no Ops mode) must be fed by every node's runtime and
// authority, not only by its transport.
func TestTCPClusterSharedTraceSeesRuntimeAndCrypto(t *testing.T) {
	tr := obsv.New(obsv.Options{Events: true})
	clu, err := NewTCPCluster(TCPOptions{Protocol: "pbft", N: 4, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	defer clu.Stop()
	for k := 1; k <= 10; k++ {
		clu.Submit(parityOp(k))
		if _, err := clu.AwaitDone(20 * time.Second); err != nil {
			t.Fatalf("request %d: %v", k, err)
		}
	}
	clu.Stop()
	if why := tracerSaw(tr); why != "" {
		t.Fatal(why)
	}
	if tr.SlotLatency.Count() == 0 {
		t.Fatal("SlotLatency is empty: the runtime's commits never reached the tracer")
	}
	if tot := tr.Totals(); tot.Sign == 0 || tot.Verify == 0 {
		t.Fatalf("Totals: sign=%d verify=%d, want both non-zero", tot.Sign, tot.Verify)
	}
}

// TestTCPClientHasNoInboundLane: a replica's engine prefetches on its
// inbound lanes, a client's has none. A pbft client counts replies
// without checking their signatures, so its engine performs no
// verification at all.
func TestTCPClientHasNoInboundLane(t *testing.T) {
	clu, err := NewTCPCluster(TCPOptions{Protocol: "pbft", N: 4, VerifyWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer clu.Stop()
	for k := 1; k <= 10; k++ {
		clu.Submit(parityOp(k))
		if _, err := clu.AwaitDone(20 * time.Second); err != nil {
			t.Fatalf("request %d: %v", k, err)
		}
	}
	if got := clu.client.engine.Stats().Performed; got != 0 {
		t.Errorf("the client's engine performed %d verifications, want 0", got)
	}
	if got := clu.replicas[1].engine.Stats().Performed; got == 0 {
		t.Error("a backup's engine performed no verification")
	}
}
