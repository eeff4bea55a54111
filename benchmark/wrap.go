package main

import (
	"sync"
	"sync/atomic"
	"time"

	"bftkit/internal/core"
	"bftkit/internal/types"
)

// The timing wrapper measures the core and protocols layers from
// outside, the way byz.Wrap attacks them from outside: it stands between
// the replica runtime and the protocol on both surfaces. The runtime
// calls the wrapper's core.Protocol methods; the protocol is handed the
// wrapper as its core.Env. Every crossing is a frame on a per-replica
// stack, and a frame's self time is its duration minus its child frames
// (Env.Commit re-enters the protocol through OnExecuted, so frames nest
// three deep).

// bucket says which layer metric a frame's self time is charged to.
type bucket int

const (
	bucketProto  bucket = iota // protocol code outside any Env.Commit
	bucketCommit               // Env.Commit and the OnExecuted it triggers: ledger, execute, checkpoint
	bucketReply                // Env.Reply: sign and enqueue
	bucketSend                 // Env.Send / Env.Broadcast: driver enqueue
	numBuckets
)

type frame struct {
	start    time.Time
	children time.Duration
	b        bucket
}

// nodeTiming accumulates one replica's frames. Only that replica's event
// loop touches it while the run is live; it is read after the cluster
// has stopped.
type nodeTiming struct {
	stack []frame
	live  bool // the frame stack was opened inside the measured window

	self  [numBuckets]time.Duration
	busy  time.Duration // top-level protocol calls, inclusive
	calls int           // top-level protocol calls
}

// timing owns the per-replica accumulators of one traced run.
type timing struct {
	// active gates accumulation to the measured window, so set-up and
	// read-back traffic is not charged to it.
	active atomic.Bool

	mu    sync.Mutex
	nodes map[types.NodeID]*nodeTiming
}

func newTiming() *timing { return &timing{nodes: make(map[types.NodeID]*nodeTiming)} }

// wrap returns proto behind the timing wrapper for replica id.
func (t *timing) wrap(id types.NodeID, proto core.Protocol) core.Protocol {
	nt := &nodeTiming{}
	t.mu.Lock()
	t.nodes[id] = nt
	t.mu.Unlock()
	return &timedProtocol{t: t, nt: nt, inner: proto}
}

func (nt *nodeTiming) push(t *timing, b bucket) {
	if len(nt.stack) == 0 {
		nt.live = t.active.Load()
	}
	// A protocol frame under an Env.Commit frame is the execution stage.
	if b == bucketProto && len(nt.stack) > 0 {
		b = bucketCommit
	}
	nt.stack = append(nt.stack, frame{start: time.Now(), b: b})
}

func (nt *nodeTiming) pop() {
	f := nt.stack[len(nt.stack)-1]
	nt.stack = nt.stack[:len(nt.stack)-1]
	d := time.Since(f.start)
	if len(nt.stack) > 0 {
		nt.stack[len(nt.stack)-1].children += d
	}
	if !nt.live {
		return
	}
	nt.self[f.b] += d - f.children
	if len(nt.stack) == 0 {
		nt.busy += d
		nt.calls++
	}
}

// timedProtocol faces the runtime as core.Protocol and the wrapped
// protocol as core.Env.
type timedProtocol struct {
	core.Env // the real environment, set in Init

	t     *timing
	nt    *nodeTiming
	inner core.Protocol
}

func (w *timedProtocol) Init(env core.Env) {
	w.Env = env
	w.inner.Init(w)
}

func (w *timedProtocol) OnRequest(req *types.Request) {
	w.nt.push(w.t, bucketProto)
	w.inner.OnRequest(req)
	w.nt.pop()
}

func (w *timedProtocol) OnMessage(from types.NodeID, m types.Message) {
	w.nt.push(w.t, bucketProto)
	w.inner.OnMessage(from, m)
	w.nt.pop()
}

func (w *timedProtocol) OnTimer(id core.TimerID) {
	w.nt.push(w.t, bucketProto)
	w.inner.OnTimer(id)
	w.nt.pop()
}

func (w *timedProtocol) OnExecuted(seq types.SeqNum, batch *types.Batch, results [][]byte) {
	w.nt.push(w.t, bucketProto)
	w.inner.OnExecuted(seq, batch, results)
	w.nt.pop()
}

func (w *timedProtocol) Send(to types.NodeID, m types.Message) {
	w.nt.push(w.t, bucketSend)
	w.Env.Send(to, m)
	w.nt.pop()
}

func (w *timedProtocol) Broadcast(m types.Message) {
	w.nt.push(w.t, bucketSend)
	w.Env.Broadcast(m)
	w.nt.pop()
}

func (w *timedProtocol) Commit(view types.View, seq types.SeqNum, b *types.Batch, proof *types.CommitProof) {
	w.nt.push(w.t, bucketCommit)
	w.Env.Commit(view, seq, b, proof)
	w.nt.pop()
}

func (w *timedProtocol) Reply(r *types.Reply) {
	w.nt.push(w.t, bucketReply)
	w.Env.Reply(r)
	w.nt.pop()
}

// timingTotals is the run-wide reduction of the per-replica frames.
type timingTotals struct {
	leaderBusy, backupBusy time.Duration // backup = mean over non-leaders
	calls                  int
	self                   [numBuckets]time.Duration // summed over replicas
}

// add folds another run's totals in (the sweep's legs run back to back).
func (t *timingTotals) add(o timingTotals) {
	t.leaderBusy += o.leaderBusy
	t.backupBusy += o.backupBusy
	t.calls += o.calls
	for b := range t.self {
		t.self[b] += o.self[b]
	}
}

// totals reduces the accumulators; leader is the stable leader's ID.
// Call only after every replica's event loop has stopped.
func (t *timing) totals(leader types.NodeID) timingTotals {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out timingTotals
	backups := 0
	for id, nt := range t.nodes {
		out.calls += nt.calls
		for b := range nt.self {
			out.self[b] += nt.self[b]
		}
		if id == leader {
			out.leaderBusy = nt.busy
		} else {
			out.backupBusy += nt.busy
			backups++
		}
	}
	if backups > 0 {
		out.backupBusy /= time.Duration(backups)
	}
	return out
}
