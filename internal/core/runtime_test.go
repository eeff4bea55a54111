package core

import (
	"math/rand"
	"testing"
	"time"

	"bftkit/internal/crypto"
	"bftkit/internal/kvstore"
	"bftkit/internal/types"
)

// fakeDriver drives a single replica without a network: sends are
// captured, timers fire only when the test releases them.
type fakeDriver struct {
	now    time.Duration
	sent   []sentMsg
	timers []*fakeTimer
	rng    *rand.Rand
	busy   bool // what Busy reports: the test stands in for queued events
}

type sentMsg struct {
	To types.NodeID
	M  types.Message
}

type fakeTimer struct {
	at        time.Duration
	fn        func()
	cancelled bool
}

func newFakeDriver() *fakeDriver { return &fakeDriver{rng: rand.New(rand.NewSource(1))} }

func (d *fakeDriver) Now() time.Duration { return d.now }
func (d *fakeDriver) Rand() *rand.Rand   { return d.rng }
func (d *fakeDriver) Busy() bool         { return d.busy }
func (d *fakeDriver) Send(from, to types.NodeID, m types.Message) {
	d.sent = append(d.sent, sentMsg{To: to, M: m})
}
func (d *fakeDriver) After(t time.Duration, fn func()) func() {
	ft := &fakeTimer{at: d.now + t, fn: fn}
	d.timers = append(d.timers, ft)
	return func() { ft.cancelled = true }
}

// advance releases every timer due by now+dt.
func (d *fakeDriver) advance(dt time.Duration) {
	d.now += dt
	for _, t := range d.timers {
		if !t.cancelled && t.at <= d.now {
			t.cancelled = true
			t.fn()
		}
	}
}

// recorder is a protocol stub capturing runtime callbacks.
type recorder struct {
	env      Env
	executed []types.SeqNum
	timers   []TimerID
	msgs     []types.Message
	reqs     []*types.Request
}

func (r *recorder) Init(env Env)                              { r.env = env }
func (r *recorder) OnRequest(req *types.Request)              { r.reqs = append(r.reqs, req) }
func (r *recorder) OnMessage(_ types.NodeID, m types.Message) { r.msgs = append(r.msgs, m) }
func (r *recorder) OnTimer(id TimerID)                        { r.timers = append(r.timers, id) }
func (r *recorder) OnExecuted(seq types.SeqNum, _ *types.Batch, _ [][]byte) {
	r.executed = append(r.executed, seq)
}

func req(seq uint64, op []byte) *types.Request {
	return &types.Request{Client: types.ClientIDBase, ClientSeq: seq, Op: op}
}

func newTestReplica(t *testing.T) (*Replica, *recorder, *fakeDriver) {
	t.Helper()
	d := newFakeDriver()
	rec := &recorder{}
	auth := crypto.NewAuthority(1)
	rep := NewReplica(0, DefaultConfig(4), d, rec, kvstore.New(), auth, Hooks{})
	rep.Start()
	return rep, rec, d
}

func TestRuntimeExecutesInSequenceOrder(t *testing.T) {
	rep, rec, _ := newTestReplica(t)
	b2 := types.NewBatch(req(2, kvstore.Put("b", []byte("2"))))
	b1 := types.NewBatch(req(1, kvstore.Put("a", []byte("1"))))
	rep.Commit(0, 2, b2, nil) // out of order: must park
	if len(rec.executed) != 0 {
		t.Fatal("executed before the gap was filled")
	}
	rep.Commit(0, 1, b1, nil)
	if len(rec.executed) != 2 || rec.executed[0] != 1 || rec.executed[1] != 2 {
		t.Fatalf("execution order %v", rec.executed)
	}
}

func TestRuntimeDuplicateRequestSkipped(t *testing.T) {
	rep, _, _ := newTestReplica(t)
	r := req(1, kvstore.Add("ctr", 1))
	rep.Commit(0, 1, types.NewBatch(r), nil)
	// The same request re-proposed at a later slot must not re-apply.
	rep.Commit(0, 2, types.NewBatch(r), nil)
	store := rep.App().(*kvstore.Store)
	v, _ := store.GetValue("ctr")
	if v[7] != 1 {
		t.Fatalf("counter applied twice: %v", v)
	}
}

func TestRuntimeSpecPromote(t *testing.T) {
	rep, _, _ := newTestReplica(t)
	b := types.NewBatch(req(1, kvstore.Put("x", []byte("spec"))))
	results := rep.SpecExecute(1, b)
	if len(results) != 1 {
		t.Fatal("speculative execution returned no results")
	}
	if rep.SpecTip() != 1 {
		t.Fatalf("spec tip %d", rep.SpecTip())
	}
	// A matching commit promotes without re-execution.
	store := rep.App().(*kvstore.Store)
	before := store.AppliedOps()
	rep.Commit(0, 1, b, nil)
	if store.AppliedOps() != before {
		t.Fatal("promotion re-executed the batch")
	}
	if rep.Ledger().LastExecuted() != 1 {
		t.Fatal("promotion did not advance the execution cursor")
	}
}

func TestRuntimeSpecRollbackOnDivergence(t *testing.T) {
	rep, _, _ := newTestReplica(t)
	spec := types.NewBatch(req(1, kvstore.Put("x", []byte("speculative"))))
	decided := types.NewBatch(req(2, kvstore.Put("x", []byte("decided"))))
	rep.SpecExecute(1, spec)
	histSpec := rep.HistoryDigest()
	rep.Commit(0, 1, decided, nil) // different batch decided at seq 1
	store := rep.App().(*kvstore.Store)
	v, _ := store.GetValue("x")
	if string(v) != "decided" {
		t.Fatalf("state after rollback+re-execution: %q", v)
	}
	if rep.HistoryDigest() == histSpec {
		t.Fatal("history digest not rewound on rollback")
	}
	// The speculative request's dedup mark must be gone: it can still
	// execute later.
	rep.Commit(0, 2, spec, nil)
	v, _ = store.GetValue("x")
	if string(v) != "speculative" {
		t.Fatalf("rolled-back request lost: %q", v)
	}
}

func TestRuntimeRollbackSpecAbove(t *testing.T) {
	rep, _, _ := newTestReplica(t)
	for s := types.SeqNum(1); s <= 3; s++ {
		rep.SpecExecute(s, types.NewBatch(req(uint64(s), kvstore.Put("k", []byte{byte(s)}))))
	}
	rep.RollbackSpecAbove(1)
	if rep.SpecTip() != 1 {
		t.Fatalf("spec tip %d after partial rollback", rep.SpecTip())
	}
	store := rep.App().(*kvstore.Store)
	v, _ := store.GetValue("k")
	if v[0] != 1 {
		t.Fatalf("state %v after rollback above 1", v)
	}
}

func TestRuntimeConflictingCommitIsViolation(t *testing.T) {
	d := newFakeDriver()
	var violation error
	auth := crypto.NewAuthority(1)
	rep := NewReplica(0, DefaultConfig(4), d, &recorder{}, kvstore.New(), auth, Hooks{
		OnViolation: func(_ types.NodeID, err error) { violation = err },
	})
	rep.Start()
	rep.Commit(0, 1, types.NewBatch(req(1, kvstore.Put("a", nil))), nil)
	rep.Commit(0, 1, types.NewBatch(req(2, kvstore.Put("b", nil))), nil)
	if violation == nil {
		t.Fatal("conflicting commit not reported as a safety violation")
	}
}

func TestRuntimeTimers(t *testing.T) {
	rep, rec, d := newTestReplica(t)
	id := TimerID{Name: "x", Seq: 1}
	rep.SetTimer(id, 10*time.Millisecond)
	d.advance(5 * time.Millisecond)
	if len(rec.timers) != 0 {
		t.Fatal("timer fired early")
	}
	// Re-arming resets the deadline.
	rep.SetTimer(id, 10*time.Millisecond)
	d.advance(6 * time.Millisecond)
	if len(rec.timers) != 0 {
		t.Fatal("re-armed timer fired on the old deadline")
	}
	d.advance(5 * time.Millisecond)
	if len(rec.timers) != 1 || rec.timers[0] != id {
		t.Fatalf("timer delivery %v", rec.timers)
	}
	rep.SetTimer(id, time.Millisecond)
	rep.StopTimer(id)
	d.advance(time.Hour)
	if len(rec.timers) != 1 {
		t.Fatal("stopped timer fired")
	}
}

func TestRuntimeStopSilences(t *testing.T) {
	rep, rec, d := newTestReplica(t)
	rep.SetTimer(TimerID{Name: "x"}, time.Millisecond)
	rep.Stop()
	d.advance(time.Hour)
	rep.Deliver(1, &RequestMsg{Req: req(1, kvstore.Noop())})
	if len(rec.timers) != 0 || len(rec.reqs) != 0 {
		t.Fatal("stopped replica processed events")
	}
	rep.Send(1, &ForwardMsg{})
	if len(d.sent) != 0 {
		t.Fatal("stopped replica sent messages")
	}
}

func TestRuntimeBroadcastExcludesSelf(t *testing.T) {
	rep, _, d := newTestReplica(t)
	rep.Broadcast(&ForwardMsg{})
	if len(d.sent) != 3 {
		t.Fatalf("broadcast to %d peers, want 3", len(d.sent))
	}
	for _, s := range d.sent {
		if s.To == 0 {
			t.Fatal("broadcast included self")
		}
	}
}

func TestRuntimeReplySigned(t *testing.T) {
	rep, _, d := newTestReplica(t)
	rep.Reply(&types.Reply{Client: types.ClientIDBase, ClientSeq: 1, Result: []byte("r")})
	if len(d.sent) != 1 || d.sent[0].To != types.ClientIDBase {
		t.Fatalf("reply routing %v", d.sent)
	}
	rm := d.sent[0].M.(*ReplyMsg)
	auth := crypto.NewAuthority(1)
	if !auth.Verifier().VerifySig(0, rm.R.Digest(), rm.R.Sig) {
		t.Fatal("reply signature invalid")
	}
}

func TestRequestDeliveryRouting(t *testing.T) {
	rep, rec, _ := newTestReplica(t)
	rep.Deliver(types.ClientIDBase, &RequestMsg{Req: req(1, kvstore.Noop())})
	if len(rec.reqs) != 1 {
		t.Fatal("RequestMsg not routed to OnRequest")
	}
	rep.Deliver(1, &ForwardMsg{Req: req(2, kvstore.Noop())})
	if len(rec.msgs) != 1 {
		t.Fatal("other messages not routed to OnMessage")
	}
}
