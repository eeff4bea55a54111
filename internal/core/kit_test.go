package core

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"bftkit/internal/crypto"
	"bftkit/internal/kvstore"
	"bftkit/internal/types"
)

// --- Tally -----------------------------------------------------------------

func TestTallyOneVotePerSender(t *testing.T) {
	var tl Tally[types.SeqNum, types.Digest]
	a, b := types.Digest{1}, types.Digest{2}
	if n := tl.Add(8, 1, a); n != 1 {
		t.Fatalf("first vote: count %d, want 1", n)
	}
	if n := tl.Add(8, 1, a); n != 0 {
		t.Fatalf("duplicate vote counted: %d", n)
	}
	// A conflicting second vote from the same sender raises no count.
	if n := tl.Add(8, 1, b); n != 0 {
		t.Fatalf("conflicting vote counted: %d", n)
	}
	if got := Backers(&tl, 8, b); len(got) != 0 {
		t.Fatalf("conflicting vote backed %v", got)
	}
	if got := Backers(&tl, 8, a); !reflect.DeepEqual(got, []types.NodeID{1}) {
		t.Fatalf("backers of first vote = %v", got)
	}
	if tl.Count(8) != 1 || tl.Count(9) != 0 {
		t.Fatalf("counts %d/%d, want 1/0", tl.Count(8), tl.Count(9))
	}
}

func TestTallyThresholdReportedOnce(t *testing.T) {
	var tl Tally[types.SeqNum, struct{}]
	const quorum = 3
	fired := 0
	for _, from := range []types.NodeID{0, 1, 1, 2, 2, 3, 0} {
		if tl.Add(5, from, struct{}{}) == quorum {
			fired++
		}
	}
	if fired != 1 {
		t.Fatalf("threshold reported %d times, want exactly once", fired)
	}
	if tl.Count(5) != 4 {
		t.Fatalf("count %d, want 4 distinct senders", tl.Count(5))
	}
}

func TestTallyReplaceKeepsCount(t *testing.T) {
	var tl Tally[types.View, string]
	tl.Replace(2, 7, "old")
	if n := tl.Replace(2, 7, "new"); n != 1 {
		t.Fatalf("reissued payload moved the count to %d", n)
	}
	if v := tl.Votes(2); len(v) != 1 || v[0].Val != "new" {
		t.Fatalf("votes = %+v, want the reissued payload", v)
	}
}

func TestTallyPruneBelow(t *testing.T) {
	var tl Tally[types.SeqNum, struct{}]
	for s := types.SeqNum(1); s <= 5; s++ {
		tl.Add(s, 0, struct{}{})
	}
	tl.Prune(func(s types.SeqNum) bool { return s <= 3 })
	for s := types.SeqNum(1); s <= 5; s++ {
		if want := map[bool]int{true: 1, false: 0}[s > 3]; tl.Count(s) != want {
			t.Fatalf("after prune: slot %d holds %d votes, want %d", s, tl.Count(s), want)
		}
	}
	tl.Delete(4)
	if tl.Count(4) != 0 || tl.Count(5) != 1 {
		t.Fatal("Delete removed the wrong slot")
	}
}

func TestTallyAheadCountsDistinctSenders(t *testing.T) {
	var tl Tally[types.View, struct{}]
	// One sender votes in three future views: still one sender.
	for v := types.View(3); v <= 5; v++ {
		tl.Add(v, 9, struct{}{})
	}
	tl.Add(4, 0, struct{}{}) // self
	tl.Add(1, 2, struct{}{}) // not ahead
	if n, lowest := Ahead(&tl, 2, 0); n != 1 || lowest != 3 {
		t.Fatalf("Ahead = (%d, %d), want one sender, lowest view 3", n, lowest)
	}
	tl.Add(7, 8, struct{}{})
	if n, lowest := Ahead(&tl, 2, 0); n != 2 || lowest != 3 {
		t.Fatalf("Ahead = (%d, %d), want two senders, lowest view 3", n, lowest)
	}
}

func TestSlotClaimsOneClaimPerSender(t *testing.T) {
	x := types.NewBatch(req(1, []byte("x")))
	y := types.NewBatch(req(2, []byte("y")))
	var c SlotClaims
	// A Byzantine sender lists slot 4 three times with its own batch;
	// two honest senders each claim the real one.
	for i := 0; i < 3; i++ {
		c.Add(3, 4, y.Digest(), y)
	}
	c.Add(0, 4, x.Digest(), x)
	c.Add(1, 4, x.Digest(), x)
	c.Add(2, 6, types.Digest{0xba}, x) // digest mismatch: ignored
	if got := c.Best(4); got != x {
		t.Fatal("a repeated claim outvoted two distinct senders")
	}
	if c.Max != 4 {
		t.Fatalf("Max = %d, want 4 (the mismatched claim must not count)", c.Max)
	}
	if got := c.Best(5); got.Len() != 0 {
		t.Fatal("unclaimed slot must be filled with the empty batch")
	}
}

// --- Backlog ---------------------------------------------------------------

const testProgress = "progress"

type kitRig struct {
	rep  *Replica
	d    *fakeDriver
	rec  *recorder
	auth *crypto.Authority
}

func newKitRig(id types.NodeID) *kitRig {
	r := &kitRig{d: newFakeDriver(), rec: &recorder{}, auth: crypto.NewAuthority(1)}
	r.rep = NewReplica(id, DefaultConfig(4), r.d, r.rec, kvstore.New(), r.auth, Hooks{})
	r.rep.Start()
	return r
}

func (r *kitRig) signedReq(seq uint64) *types.Request {
	q := req(seq, []byte{byte(seq)})
	q.Sig = r.auth.Signer(q.Client).Sign(q.Digest())
	return q
}

// liveTimers returns the pending (uncancelled) timer deadlines.
func (r *kitRig) liveTimers() []time.Duration {
	var at []time.Duration
	for _, t := range r.d.timers {
		if !t.cancelled {
			at = append(at, t.at)
		}
	}
	return at
}

func seqs(reqs []*types.Request) []uint64 {
	out := make([]uint64, len(reqs))
	for i, q := range reqs {
		out[i] = q.ClientSeq
	}
	return out
}

func TestBacklogTakeArrivalOrderSkipsInFlightAndDone(t *testing.T) {
	r := newKitRig(0)
	b := NewBacklog(r.rep, testProgress)
	var all []*types.Request
	for s := uint64(1); s <= 5; s++ {
		q := r.signedReq(s)
		all = append(all, q)
		if !b.Submit(q, 0) {
			t.Fatalf("leader got a fresh request %d but was not told to propose", s)
		}
	}
	if b.Submit(all[0], 0) {
		t.Fatal("a retransmitted request must not trigger a second proposal")
	}
	forged := req(9, []byte("x"))
	forged.Sig = []byte("nope")
	if b.Submit(forged, 0) || b.Len() != 5 {
		t.Fatal("a request with a bad client signature was queued")
	}

	b.Proposed(types.NewBatch(all[1])) // 2 is inside a slot someone else proposed
	b.Executed(types.NewBatch(all[2])) // 3 has executed
	if got := seqs(b.Take(2)); !reflect.DeepEqual(got, []uint64{1, 4}) {
		t.Fatalf("Take(2) = %v, want [1 4]", got)
	}
	if got := seqs(b.Take(9)); !reflect.DeepEqual(got, []uint64{5}) {
		t.Fatalf("second Take = %v, want [5]: claimed requests are in flight", got)
	}
	if !b.Done(all[2].Key()) || b.Submit(all[2], 0) {
		t.Fatal("an executed request must be dropped at admission")
	}
	// A view change voids the old view's proposals: everything not yet
	// executed becomes proposable again, still in arrival order.
	b.EnterView(1)
	if got := seqs(b.Take(9)); !reflect.DeepEqual(got, []uint64{1, 2, 4, 5}) {
		t.Fatalf("after EnterView Take = %v, want [1 2 4 5]", got)
	}
}

func TestBacklogBackupForwardsToLeader(t *testing.T) {
	r := newKitRig(2)
	b := NewBacklog(r.rep, testProgress)
	q := r.signedReq(1)
	if b.Submit(q, 0) {
		t.Fatal("a backup must not propose")
	}
	if len(r.d.sent) != 1 || r.d.sent[0].To != 0 {
		t.Fatalf("sent %+v, want one forward to the leader", r.d.sent)
	}
	if _, ok := r.d.sent[0].M.(*ForwardMsg); !ok {
		t.Fatalf("forwarded a %T", r.d.sent[0].M)
	}
	if b.Len() != 1 {
		t.Fatal("a backup buffers the request too: it may be the next leader")
	}
}

func TestBacklogProgressTimerIsLevelTriggered(t *testing.T) {
	r := newKitRig(0)
	b := NewBacklog(r.rep, testProgress)
	timeout := r.rep.Config().ViewChangeTimeout

	q1, q2 := r.signedReq(1), r.signedReq(2)
	b.Submit(q1, 0)
	r.d.advance(timeout / 2)
	b.Submit(q2, 0) // a fresh request must not push the deadline out
	if got := r.liveTimers(); !reflect.DeepEqual(got, []time.Duration{timeout}) {
		t.Fatalf("τ2 deadlines %v, want the first request's %v only", got, timeout)
	}

	// Progress with a client still waiting restarts τ2 from now.
	b.Executed(types.NewBatch(q1))
	b.Progress()
	if got := r.liveTimers(); !reflect.DeepEqual(got, []time.Duration{timeout/2 + timeout}) {
		t.Fatalf("after progress τ2 deadlines %v, want %v", got, timeout/2+timeout)
	}
	// Progress with nobody waiting leaves τ2 off.
	b.Executed(types.NewBatch(q2))
	b.Progress()
	if got := r.liveTimers(); len(got) != 0 {
		t.Fatalf("τ2 still armed (%v) with an empty watch set", got)
	}
}

func TestBacklogExpiryAndSuspension(t *testing.T) {
	r := newKitRig(0)
	b := NewBacklog(r.rep, testProgress)
	b.Submit(r.signedReq(1), 0)
	r.d.advance(r.rep.Config().ViewChangeTimeout)
	if len(r.rec.timers) != 1 {
		t.Fatalf("τ2 fired %d times", len(r.rec.timers))
	}
	if !b.Expired(r.rec.timers[0]) {
		t.Fatal("τ2 expired with a client waiting: that is evidence against the leader")
	}
	if b.Expired(TimerID{Name: testProgress, View: 7}) {
		t.Fatal("a timer armed under another view is stale")
	}

	b.Suspend()
	b.Submit(r.signedReq(2), 0)
	if got := r.liveTimers(); len(got) != 0 {
		t.Fatalf("τ2 armed during a view change: %v", got)
	}
	b.EnterView(1)
	if got := r.liveTimers(); len(got) != 1 {
		t.Fatalf("τ2 deadlines after entering the view: %v, want one", got)
	}
}

// --- ViewChange ------------------------------------------------------------

// pbftStages is PBFT's stage list: the backups' prepares, then everyone's
// commits, all-to-all.
var pbftStages = []StageSpec{
	{Stage: StagePrepare, Voters: VotersBackups, Quorum: Term(2, 1)},
	{Stage: StageCommit, Voters: VotersAll, Quorum: Term(2, 1)},
}

// vcRig is one replica's view-change stage on an ordering stage, with hooks
// that carry whatever the test puts in carried/retained, treat every
// carried slot as valid, and record what the kit asks of them.
type vcRig struct {
	*kitRig
	backlog  *Backlog
	vc       *ViewChange
	slots    *Slots[struct{}]
	carried  []CarriedSlot
	retained []CommittedSlot
	built    []types.View   // views a view-change message was built for
	accepted []types.SeqNum // re-issued slots handed to Accept
	proposed bool           // MayPropose was true inside Accept
	resumed  int
	x, y     *types.Batch
}

func newVCRig(id types.NodeID, tune ...func(*ViewChangeHooks)) *vcRig {
	r := &vcRig{kitRig: newKitRig(id)}
	r.backlog = NewBacklog(r.rep, testProgress)
	hooks := ViewChangeHooks{
		Vouch: func(m *ViewChangeMsg) {
			r.built = append(r.built, m.NewView)
			m.Carried = append(m.Carried, r.carried...)
			m.Committed = append(m.Committed, r.retained...)
		},
		Pick: HighestView(func(*CarriedSlot) bool { return true }),
		Keep: UpToBase,
		Accept: func(m *ProposeMsg) {
			r.accepted = append(r.accepted, m.Seq)
			r.proposed = r.proposed || r.vc.MayPropose()
		},
		Resume: func() { r.resumed++ },
	}
	for _, fn := range tune {
		fn(&hooks)
	}
	r.vc = NewViewChange(r.rep, r.backlog, r.rep.Config().Quorum(), hooks)
	r.slots = NewSlots[struct{}](r.rep, PBFTProfile(), r.backlog, r.vc, nil, pbftStages...)
	r.x = types.NewBatch(r.signedReq(1))
	r.y = types.NewBatch(r.signedReq(2))
	return r
}

// signed returns from's signed view-change message for v; fill adds what
// it carries before it is signed.
func (r *vcRig) signed(v types.View, from types.NodeID, fill ...func(*ViewChangeMsg)) *ViewChangeMsg {
	m := &ViewChangeMsg{NewView: v, Replica: from}
	for _, fn := range fill {
		fn(m)
	}
	m.Sig = r.auth.Signer(from).Sign(m.SigDigest())
	return m
}

// newViews returns the distinct new-view messages this replica sent.
func (r *vcRig) newViews() []*NewViewMsg {
	var out []*NewViewMsg
	for _, s := range r.d.sent {
		if nv, ok := s.M.(*NewViewMsg); ok && (len(out) == 0 || out[len(out)-1] != nv) {
			out = append(out, nv)
		}
	}
	return out
}

func carry(view types.View, seq types.SeqNum, b *types.Batch) CarriedSlot {
	return CarriedSlot{View: view, Seq: seq, Digest: b.Digest(), Batch: b}
}

func TestViewChangeStartGate(t *testing.T) {
	r := newVCRig(3)
	r.vc.Start(0) // not ahead: means "the next view"
	r.vc.Start(1) // already heading there
	r.vc.Start(3)
	r.vc.Start(2) // a running view change never moves to a lower target
	if !reflect.DeepEqual(r.built, []types.View{1, 3}) {
		t.Fatalf("view-change messages built for %v, want [1 3]", r.built)
	}
	if !r.vc.Active() || r.vc.View() != 0 || r.vc.MayPropose() {
		t.Fatal("a started view change leaves the view unchanged and blocks proposing")
	}
	// The stalled attempt escalates; a retry timer of an abandoned
	// target does not.
	r.vc.Retry(TimerID{Name: TimerRetry, View: 1})
	r.vc.Retry(TimerID{Name: TimerRetry, View: 3})
	if !reflect.DeepEqual(r.built, []types.View{1, 3, 4}) {
		t.Fatalf("after retries built %v, want [1 3 4]", r.built)
	}
}

func TestViewChangeMessageIsBuiltInSequenceOrder(t *testing.T) {
	r := newVCRig(3)
	r.rep.Commit(0, 1, r.x, nil)
	r.carried = []CarriedSlot{carry(0, 5, r.y), carry(0, 3, r.x), carry(0, 4, r.y)}
	r.retained = []CommittedSlot{{Seq: 2, Batch: r.y}, {Seq: 1, Batch: r.x}}
	r.vc.Start(1)
	m := r.d.sent[0].M.(*ViewChangeMsg)
	if m.NewView != 1 || m.Replica != 3 || m.Base != 1 || m.Stable != 0 {
		t.Fatalf("header %+v: want view 1 from replica 3 at base 1, stable 0", m)
	}
	if m.Carried[0].Seq != 3 || m.Carried[1].Seq != 4 || m.Carried[2].Seq != 5 || m.Committed[0].Seq != 1 {
		t.Fatalf("carried %v, committed %v: not in sequence order", m.Carried, m.Committed)
	}
	if !r.rep.Verifier().VerifySig(3, m.SigDigest(), m.Sig) {
		t.Fatal("the message is signed before it is sorted")
	}
}

func TestViewChangeJoinNeedsDistinctOtherSenders(t *testing.T) {
	r := newVCRig(0) // n=4, f=1: joining takes two distinct other senders
	// One Byzantine replica signs view-changes for two future views.
	r.vc.OnViewChange(3, r.signed(1, 3))
	r.vc.OnViewChange(3, r.signed(2, 3))
	if r.vc.Active() || len(r.built) != 0 {
		t.Fatalf("one sender voting twice pushed an honest replica into a view change (built %v)", r.built)
	}
	// A second sender makes f+1: join the smallest view asked for.
	r.vc.OnViewChange(2, r.signed(5, 2))
	if !reflect.DeepEqual(r.built, []types.View{1}) {
		t.Fatalf("joined %v, want the smallest supported view [1]", r.built)
	}
	// Our own message is not evidence that others moved on.
	r2 := newVCRig(0)
	r2.vc.Start(1)
	r2.vc.OnViewChange(3, r2.signed(4, 3))
	if !reflect.DeepEqual(r2.built, []types.View{1}) {
		t.Fatalf("own view-change counted toward the join rule: built %v", r2.built)
	}
}

func TestViewChangeRecordsOnlyAuthenticatedSenders(t *testing.T) {
	r := newVCRig(1)                     // leader of view 1
	r.vc.OnViewChange(2, r.signed(1, 3)) // relayed under another identity
	forged := r.signed(1, 0)
	forged.Sig = []byte("bad")
	r.vc.OnViewChange(0, forged)
	r.vc.OnViewChange(0, r.signed(0, 0)) // not ahead of the current view
	r.vc.OnViewChange(2, r.signed(1, 2))
	r.vc.OnViewChange(2, r.signed(1, 2)) // a resend is still one sender
	if r.vc.Active() || len(r.newViews()) != 0 {
		t.Fatal("unauthenticated or repeated view-changes were counted")
	}
	// A second distinct sender: f+1 are ahead, so we join, and our own
	// message completes the leader's 2f+1.
	r.vc.OnViewChange(3, r.signed(1, 3))
	nvs := r.newViews()
	if len(nvs) != 1 || len(nvs[0].ViewChanges) != 3 {
		t.Fatalf("leader of view 1 sent %d new-views at quorum, want one relaying 3 view-changes", len(nvs))
	}
	r.vc.OnViewChange(0, r.signed(1, 0))
	if len(r.newViews()) != 1 {
		t.Fatal("the new-view must be sent exactly once")
	}
}

// signedNewView returns a new-view message for v relaying vcs, signed by
// from.
func (r *vcRig) signedNewView(v types.View, from types.NodeID, vcs ...*ViewChangeMsg) *NewViewMsg {
	nv := &NewViewMsg{View: v, ViewChanges: vcs}
	nv.Sig = r.auth.Signer(from).Sign(nv.SigDigest())
	return nv
}

func TestViewChangeJustified(t *testing.T) {
	r := newVCRig(3)
	nv := func(v types.View, from types.NodeID, vcs ...*ViewChangeMsg) bool {
		return r.vc.Justified(from, r.signedNewView(v, from, vcs...))
	}
	quorum := []*ViewChangeMsg{r.signed(1, 0), r.signed(1, 1), r.signed(1, 2)}
	if !nv(1, 1, quorum...) {
		t.Fatal("a new-view from the right leader with 2f+1 distinct signed view-changes was rejected")
	}
	cases := map[string]bool{
		"duplicate signer": nv(1, 1, r.signed(1, 0), r.signed(1, 2), r.signed(1, 2)),
		"wrong view":       nv(1, 1, r.signed(1, 0), r.signed(1, 1), r.signed(2, 2)),
		"wrong leader":     nv(1, 2, quorum...),
		"below quorum":     nv(1, 1, quorum[:2]...),
		"stale view":       nv(0, 0, r.signed(0, 0), r.signed(0, 1), r.signed(0, 2)),
	}
	bad := r.signed(1, 2)
	bad.Sig = []byte("bad")
	cases["forged view-change"] = nv(1, 1, quorum[0], quorum[1], bad)
	for name, accepted := range cases {
		if accepted {
			t.Errorf("%s: new-view accepted", name)
		}
	}
}

// testEvidence stands in for Zyzzyva's client commit certificate.
type testEvidence struct{ N uint64 }

func (*testEvidence) Kind() string { return "TEST-EVIDENCE" }
func (e *testEvidence) SigDigest() types.Digest {
	var h types.Hasher
	return h.Str("test-evidence").U64(e.N).Sum()
}

// eachFieldMutated walks v through structs, slices and pointers and, for
// every leaf field in turn, changes it, calls check with the field's path,
// and restores it. A slice is also tried one element short.
func eachFieldMutated(v reflect.Value, path string, other *types.Batch, check func(path string)) {
	switch v.Kind() {
	case reflect.Ptr:
		if b, ok := v.Interface().(*types.Batch); ok {
			v.Set(reflect.ValueOf(other))
			check(path)
			v.Set(reflect.ValueOf(b))
		} else if !v.IsNil() {
			eachFieldMutated(v.Elem(), path, other, check)
		}
	case reflect.Interface:
		old := v.Elem()
		v.Set(reflect.ValueOf(&testEvidence{N: 99}))
		check(path)
		v.Set(old)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			eachFieldMutated(v.Field(i), path+"."+v.Type().Field(i).Name, other, check)
		}
	case reflect.Slice:
		if old, ok := v.Interface().([]byte); ok {
			v.SetBytes(append([]byte{^old[0]}, old[1:]...))
			check(path)
			v.SetBytes(old)
			return
		}
		for i := 0; i < v.Len(); i++ {
			eachFieldMutated(v.Index(i), fmt.Sprintf("%s[%d]", path, i), other, check)
		}
		old := reflect.ValueOf(v.Interface())
		v.Set(old.Slice(0, old.Len()-1))
		check(path + "[:len-1]")
		v.Set(old)
	case reflect.Array: // a types.Digest
		old := v.Index(0).Uint()
		v.Index(0).SetUint(old ^ 0xff)
		check(path)
		v.Index(0).SetUint(old)
	case reflect.Int, reflect.Int64:
		v.SetInt(v.Int() + 1)
		check(path)
		v.SetInt(v.Int() - 1)
	case reflect.Uint8, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
		check(path)
		v.SetUint(v.Uint() - 1)
	case reflect.Bool:
		v.SetBool(!v.Bool())
		check(path)
		v.SetBool(!v.Bool())
	default:
		panic("eachFieldMutated: unhandled kind " + v.Kind().String() + " at " + path)
	}
}

// TestViewChangeSignaturesCoverEveryField: a receiver acts on the base, the
// committed slots (view, batch, voters, certificate), the carried slots
// (view — the highest-view picker compares it — digest, batch, evidence)
// and the re-issued slots of these messages, so the sender's signature
// must bind all of them. The per-protocol digests this replaces left out
// the carried slot's view in seven packages, hashed committed slots by
// sequence number only in most, and left them out of two new-view digests
// altogether.
func TestViewChangeSignaturesCoverEveryField(t *testing.T) {
	r := newVCRig(3)
	cert := func(b byte) *crypto.Certificate {
		return &crypto.Certificate{Digest: types.Digest{b}, Signers: []types.NodeID{0, 1}, Sigs: [][]byte{{b, 1}, {b, 2}}}
	}
	fill := func(m *ViewChangeMsg) {
		m.Base, m.Stable = 7, 4
		m.Committed = []CommittedSlot{
			{View: 0, Seq: 5, Batch: r.x, Voters: []types.NodeID{0, 1, 2}, Cert: cert(1)},
			{View: 0, Seq: 6, Batch: r.x, Voters: []types.NodeID{0, 1, 3}, Cert: cert(2)},
		}
		m.Carried = []CarriedSlot{
			{View: 0, Seq: 8, Digest: r.x.Digest(), Batch: r.x, Cert: cert(3), LeaderSig: []byte{8}},
			{View: 0, Seq: 9, Digest: r.x.Digest(), Batch: r.x, Cert: cert(4), LeaderSig: []byte{9}},
		}
		m.Evidence = []Evidence{&testEvidence{N: 1}, &testEvidence{N: 2}}
	}

	vc := r.signed(1, 2, fill)
	recorded := func() bool {
		r.vc.Forget()
		r.vc.OnViewChange(2, vc)
		return r.vc.votes.Count(1) == 1
	}
	if !recorded() {
		t.Fatal("the unmodified view-change message was refused")
	}
	fields := 0
	eachFieldMutated(reflect.ValueOf(vc), "ViewChangeMsg", r.y, func(path string) {
		fields++
		if recorded() {
			t.Errorf("view-change accepted with %s changed under the sender's signature", path)
		}
	})

	nv := r.signedNewView(1, 1, r.signed(1, 0, fill), r.signed(1, 1, fill), vc)
	nv.Base = 7
	nv.Committed = vc.Committed
	nv.Reissued = []CarriedSlot{
		{View: 1, Seq: 8, Digest: r.x.Digest(), Batch: r.x, Cert: cert(5), LeaderSig: []byte{8}},
		{View: 1, Seq: 9, Digest: r.x.Digest(), Batch: r.x, Cert: cert(6), LeaderSig: []byte{9}},
	}
	nv.Sig = r.auth.Signer(1).Sign(nv.SigDigest())
	if !r.vc.Justified(1, nv) {
		t.Fatal("the unmodified new-view message was refused")
	}
	eachFieldMutated(reflect.ValueOf(nv), "NewViewMsg", r.y, func(path string) {
		fields++
		if r.vc.Justified(1, nv) {
			t.Errorf("new-view justified with %s changed under the leader's signature", path)
		}
	})
	if fields < 300 {
		t.Fatalf("only %d fields were mutated: the walk stopped short", fields)
	}
}

// TestOrderingSignaturesCoverEveryField: a receiver acts on every field of
// the three ordering messages, so each one is either under the signer's
// signature or checked before it — a proposal's batch against its digest,
// a proposal's or certificate's leader against the view's, a vote's voter
// against its sender. Only the authentication itself (Sig, Auth) is left.
func TestOrderingSignaturesCoverEveryField(t *testing.T) {
	r := newVCRig(3)
	const from = 1 // the leader of view 1, and the voter
	sign := r.auth.Signer(from).Sign
	auth := [][]byte{{1}, {2}} // ignored under signatures, present so it is walked
	propose := &ProposeMsg{View: 1, Seq: 4, Digest: r.x.Digest(), Batch: r.x,
		Evidence: []Evidence{&testEvidence{N: 1}, &testEvidence{N: 2}}, Leader: from, Auth: auth}
	propose.Sig = sign(propose.SigDigest())
	vote := &VoteMsg{Stage: StageCommit, View: 1, Seq: 4, Digest: r.x.Digest(), Replica: from, Auth: auth}
	vote.Sig = sign(vote.SigDigest())
	cert := &CertMsg{Stage: StageCommit, View: 1, Seq: 4, Digest: r.x.Digest(), Leader: from,
		Cert: &crypto.Certificate{Digest: types.Digest{1}, Signers: []types.NodeID{0, 2}, Sigs: [][]byte{{1, 1}, {1, 2}}}}
	cert.Sig = sign(cert.SigDigest())

	fields := 0
	for _, c := range []struct {
		m      Evidence
		verify func() bool
	}{
		{propose, func() bool { return propose.Verify(r.rep) }},
		{vote, func() bool { return vote.Verify(r.rep, from) }},
		{cert, func() bool { return cert.Verify(r.rep) }},
	} {
		kind, signed := c.m.Kind(), c.m.SigDigest()
		if !c.verify() {
			t.Fatalf("%s: the unmodified message was refused", kind)
		}
		eachFieldMutated(reflect.ValueOf(c.m), kind, r.y, func(path string) {
			if path == kind+".Sig" || strings.HasPrefix(path, kind+".Auth") {
				return
			}
			fields++
			verifies := r.auth.Stats.VerifyOps.Load()
			refused := !c.verify() && r.auth.Stats.VerifyOps.Load() == verifies
			if c.m.SigDigest() == signed && !refused {
				t.Errorf("%s changed neither the signed digest nor was it refused before verification", path)
			}
		})
	}
	if fields < 26 {
		t.Fatalf("only %d fields were mutated: the walk stopped short", fields)
	}
}

// TestNewViewBuilder drives the one new-view builder at the leader of view
// 1 with a quorum whose members disagree, under both rules for where
// re-issuing starts.
func TestNewViewBuilder(t *testing.T) {
	z := types.NewBatch(req(3, []byte("z")))
	quorum := func(r *vcRig) {
		r.rep.Commit(0, 1, r.x, nil)
		// Replica 2 executed up to 3 and names slots 2 and 3 committed
		// (and 6, above everyone's execution point); replica 3 carries
		// slot 4 from view 0 and — twice, in two views — slot 7.
		r.vc.OnViewChange(2, r.signed(1, 2, func(m *ViewChangeMsg) {
			m.Base, m.Stable = 3, 2
			m.Committed = []CommittedSlot{{Seq: 2, Batch: r.y}, {Seq: 3, Batch: z}, {Seq: 6, Batch: z}}
			m.Carried = []CarriedSlot{carry(0, 7, r.x)}
		}))
		r.vc.OnViewChange(3, r.signed(1, 3, func(m *ViewChangeMsg) {
			m.Base = 1
			m.Committed = []CommittedSlot{{Seq: 2, Batch: z}} // second to name slot 2: ignored
			m.Carried = []CarriedSlot{carry(0, 4, r.y), carry(1, 7, r.y), {View: 2, Seq: 7, Digest: r.x.Digest(), Batch: r.y}}
		}))
	}
	reissued := func(r *vcRig, nv *NewViewMsg) (seqs []types.SeqNum, batches []*types.Batch) {
		for _, s := range nv.Reissued {
			if s.View != 1 || s.Digest != s.Batch.Digest() || !s.Proposal(1).Verify(r.rep) {
				t.Errorf("re-issued slot %+v: want view 1, the batch's digest, the leader's signature over its proposal", s)
			}
			seqs, batches = append(seqs, s.Seq), append(batches, s.Batch)
		}
		return
	}

	// Committed slots are carried up to the quorum's execution point and
	// re-issuing starts above it.
	r := newVCRig(1)
	quorum(r)
	nv := r.newViews()[0]
	if nv.Base != 3 || len(nv.Committed) != 2 || nv.Committed[0].Batch != r.y || nv.Committed[1].Seq != 3 {
		t.Fatalf("base %d, committed %v: want base 3 and slots 2 (first named) and 3", nv.Base, nv.Committed)
	}
	seqs, batches := reissued(r, nv)
	if !reflect.DeepEqual(seqs, []types.SeqNum{4, 5, 6, 7}) || batches[0] != r.y || batches[1].Len() != 0 || batches[3] != r.y {
		t.Fatalf("re-issued %v: want 4 (carried), 5 and 6 (no-ops), 7 (the highest valid view's batch)", seqs)
	}
	if !reflect.DeepEqual(r.rec.executed, []types.SeqNum{1, 2, 3}) || !reflect.DeepEqual(r.accepted, seqs) || r.proposed || r.resumed != 1 {
		t.Fatalf("the leader adopted: executed %v, accepted %v, proposing during adoption %v, resumed %d",
			r.rec.executed, r.accepted, r.proposed, r.resumed)
	}
	if r.slots.NextSeq() != 7 {
		t.Fatalf("fresh assignments start after %d, want 7", r.slots.NextSeq())
	}

	// Keep everything: a committed slot above the execution point is
	// carried as decided and not re-issued.
	r = newVCRig(1, func(h *ViewChangeHooks) {
		h.Keep = func(*CommittedSlot, types.SeqNum) bool { return true }
	})
	quorum(r)
	nv = r.newViews()[0]
	if seqs, _ := reissued(r, nv); len(nv.Committed) != 3 || !reflect.DeepEqual(seqs, []types.SeqNum{4, 5, 7}) {
		t.Fatalf("keep-all: committed %v, re-issued %v", nv.Committed, seqs)
	}

	// No committed slots: re-issue from the highest stable checkpoint.
	r = newVCRig(1, func(h *ViewChangeHooks) { h.Keep = nil })
	quorum(r)
	nv = r.newViews()[0]
	if seqs, _ := reissued(r, nv); len(nv.Committed) != 0 || !reflect.DeepEqual(seqs, []types.SeqNum{3, 4, 5, 6, 7}) {
		t.Fatalf("keep-none: committed %v, re-issued %v", nv.Committed, seqs)
	}
	if !reflect.DeepEqual(r.accepted, []types.SeqNum{3, 4, 5, 6, 7}) {
		t.Fatalf("keep-none: accepted %v, want every re-issued slot above the execution point", r.accepted)
	}
}

// TestNewViewBuilderSurvivesOneHostileSender: a signed view-change message
// can name any sequence number and, off the wire, hold a nil evidence
// value. Neither may cost the new leader more than the window.
func TestNewViewBuilderSurvivesOneHostileSender(t *testing.T) {
	r := newVCRig(1, func(h *ViewChangeHooks) { h.Pick = MostClaimed })
	r.vc.OnViewChange(2, r.signed(1, 2, func(m *ViewChangeMsg) {
		m.Carried = []CarriedSlot{carry(0, 1, r.x), carry(0, 1<<60, r.y)}
		m.Evidence = []Evidence{nil}
	}))
	r.vc.OnViewChange(3, r.signed(1, 3))
	nv := r.newViews()[0]
	if got, window := len(nv.Reissued), int(r.rep.Config().HighWaterWindow); got != window || nv.Reissued[0].Batch != r.x {
		t.Fatalf("re-issued %d slots, want the %d of the window, the first one the claimed batch", got, window)
	}
}

func TestMostClaimedPicksThePlurality(t *testing.T) {
	r := newVCRig(1)
	claim := func(from types.NodeID, slots ...CarriedSlot) *ViewChangeMsg {
		return &ViewChangeMsg{Replica: from, Carried: slots}
	}
	top, pick := MostClaimed([]*ViewChangeMsg{
		claim(0, carry(0, 2, r.x)),
		claim(2, carry(0, 2, r.y), carry(0, 4, r.y)),
		claim(3, carry(0, 2, r.y), carry(5, 2, r.x)), // a second claim for slot 2 is ignored
	})
	if top != 4 || pick(2) != r.y || pick(3).Len() != 0 || pick(4) != r.y {
		t.Fatalf("top %d, slot 2 %v, slot 3 %v", top, pick(2), pick(3))
	}
}

func TestViewChangeInstallHoldsProposingAndResets(t *testing.T) {
	r := newVCRig(1) // leader of view 1
	r.backlog.Submit(r.signedReq(1), 0)
	r.carried = []CarriedSlot{carry(0, 1, r.x)}
	r.vc.Start(1)
	if got := r.liveTimers(); len(got) != 1 {
		t.Fatalf("timers during the view change: %v, want the retry timer only", got)
	}
	r.vc.OnViewChange(2, r.signed(1, 2))
	r.vc.OnViewChange(3, r.signed(1, 3)) // quorum: build, broadcast, install
	if !reflect.DeepEqual(r.accepted, []types.SeqNum{1}) || r.proposed {
		t.Fatalf("accepted %v (proposing allowed meanwhile: %v), want slot 1 adopted with proposing held", r.accepted, r.proposed)
	}
	if r.vc.View() != 1 || r.vc.Active() || !r.vc.MayPropose() || r.resumed != 1 {
		t.Fatalf("after install: view %d active %v mayPropose %v resumed %d", r.vc.View(), r.vc.Active(), r.vc.MayPropose(), r.resumed)
	}
	// Entering the view drops the retry timer and re-arms τ2 under the
	// new view, because a client still waits.
	r.d.advance(r.rep.Config().ViewChangeTimeout)
	want := []TimerID{{Name: testProgress, View: 1}}
	if !reflect.DeepEqual(r.rec.timers, want) {
		t.Fatalf("timers fired after install: %v, want %v", r.rec.timers, want)
	}
}

// --- Slots -----------------------------------------------------------------

func sig(b byte) []byte { return []byte{b} }

// proposal is an unsigned proposal of b at (view, seq) naming digest d.
func proposal(view types.View, seq types.SeqNum, d types.Digest, b *types.Batch) *ProposeMsg {
	return &ProposeMsg{View: view, Seq: seq, Digest: d, Batch: b}
}

func TestSlotsQuorumComesFromTheProfile(t *testing.T) {
	r := newVCRig(1)
	if r.slots.Quorum != 3 {
		t.Fatalf("Quorum = %d at f=1 under PBFT's 2f+1 profile", r.slots.Quorum)
	}
	fab := NewSlots[struct{}](r.rep, FaBProfile(), r.backlog, r.vc, nil)
	if fab.Quorum != 5 {
		t.Fatalf("Quorum = %d at f=1 under FaB's 4f+1 profile", fab.Quorum)
	}
}

func TestSlotsOneVotePerSenderPerStage(t *testing.T) {
	r := newVCRig(1)
	dx := r.x.Digest()
	sl := r.slots.Accept(proposal(0, 1, dx, r.x))
	if sl == nil {
		t.Fatal("a valid proposal was refused")
	}
	if r.slots.vote(StagePrepare, 0, 1, 2, dx, sig(2)) != sl {
		t.Fatal("first vote not recorded")
	}
	if r.slots.vote(StagePrepare, 0, 1, 2, dx, sig(9)) != nil || r.slots.vote(StagePrepare, 0, 1, 2, r.y.Digest(), sig(9)) != nil {
		t.Fatal("a sender voted twice at one stage")
	}
	if r.slots.vote(StageCommit, 0, 1, 2, dx, sig(2)) != sl {
		t.Fatal("a vote at another stage is a separate vote")
	}
	if r.slots.vote(StageSign, 0, 1, 3, dx, nil) != nil || r.slots.vote(StagePrepare, 1, 1, 3, dx, nil) != nil {
		t.Fatal("votes for an undeclared stage or another view must be refused")
	}
	if got := sl.count(StagePrepare); got != 1 {
		t.Fatalf("prepare count = %d, want 1", got)
	}
	if voted := func(id types.NodeID) bool { return r.slots.votes.index(stageKey{1, StagePrepare}, id) >= 0 }; !voted(2) || voted(3) {
		t.Fatal("the tally does not reflect who is on record")
	}
}

func TestSlotsVoteCountsOnlyTowardItsDigest(t *testing.T) {
	r := newVCRig(1)
	dx, dy := r.x.Digest(), r.y.Digest()
	// One vote for y and one for x overtake the proposal; the leader
	// assigns x; then one more vote each way.
	r.slots.vote(StagePrepare, 0, 1, 0, dy, sig(0))
	early := r.slots.vote(StagePrepare, 0, 1, 2, dx, sig(2))
	if early == nil || early.count(StagePrepare) != 0 || early.reached(StagePrepare, 1) {
		t.Fatal("votes counted at a slot with no assigned digest")
	}
	sl := r.slots.Accept(proposal(0, 1, dx, r.x))
	r.slots.vote(StagePrepare, 0, 1, 3, dy, sig(3))
	r.slots.vote(StagePrepare, 0, 1, 1, dx, sig(1))
	if sl != early || sl.count(StagePrepare) != 2 {
		t.Fatalf("count for the assigned digest = %d, want 2", sl.count(StagePrepare))
	}
	cert := sl.Certificate(StagePrepare)
	if !reflect.DeepEqual(cert.Signers, []types.NodeID{2, 1}) || !reflect.DeepEqual(cert.Sigs, [][]byte{sig(2), sig(1)}) {
		t.Fatalf("certificate holds %v %v: votes for another digest leaked in, or arrival order was lost", cert.Signers, cert.Sigs)
	}
	if got := sl.Voters(StagePrepare); !reflect.DeepEqual(got, []types.NodeID{2, 1}) {
		t.Fatalf("voters = %v, want arrival order [2 1]", got)
	}
}

func TestSlotsReachedFiresOnce(t *testing.T) {
	r := newVCRig(1)
	dx := r.x.Digest()
	sl := r.slots.Accept(proposal(0, 1, dx, r.x))
	fired := 0
	for from := types.NodeID(0); from < 4; from++ {
		r.slots.vote(StageCommit, 0, 1, from, dx, nil) // presence-only votes
		if sl.reached(StageCommit, 3) {
			fired++
		}
	}
	if fired != 1 || !sl.Past(StageCommit) || sl.Past(StagePrepare) {
		t.Fatalf("reached fired %d times (Past commit %v, prepare %v)", fired, sl.Past(StageCommit), sl.Past(StagePrepare))
	}
	if got := sl.Voters(StageCommit); len(got) != 4 {
		t.Fatalf("voters = %v, want all four", got)
	}
	if cert := sl.Certificate(StageCommit); cert.Size() != 0 {
		t.Fatal("unsigned votes entered a certificate")
	}
}

func TestSlotsConflictingProposalIsEquivocation(t *testing.T) {
	r := newVCRig(1)
	dx := r.x.Digest()
	if r.slots.Accept(proposal(0, 1, types.Digest{0xba}, r.x)) != nil {
		t.Fatal("accepted a batch that does not hash to its digest")
	}
	sl := r.slots.Accept(proposal(0, 1, dx, r.x))
	if r.slots.Accept(proposal(0, 1, dx, r.x)) != nil || r.vc.Active() {
		t.Fatal("a duplicate proposal must be a no-op")
	}
	if r.slots.Accept(proposal(0, 1, r.y.Digest(), r.y)) != nil {
		t.Fatal("a conflicting proposal was accepted")
	}
	if !r.vc.Active() || !reflect.DeepEqual(r.built, []types.View{1}) {
		t.Fatalf("equivocation did not start a view change (built %v)", r.built)
	}
	if sl.Digest != dx || sl.Batch != r.x {
		t.Fatal("the conflicting proposal changed the slot")
	}
	if r.slots.Accept(proposal(0, 2, r.y.Digest(), r.y)) != nil {
		t.Fatal("accepted a proposal while the view change runs")
	}
}

func TestSlotsWindowRefusal(t *testing.T) {
	r := newVCRig(1)
	dx := r.x.Digest()
	window := types.SeqNum(r.rep.Config().HighWaterWindow)
	if r.slots.vote(StagePrepare, 0, window+1, 2, dx, nil) != nil || r.slots.Accept(proposal(0, window+1, dx, r.x)) != nil {
		t.Fatal("state created above the window")
	}
	if r.slots.vote(StagePrepare, 0, window, 2, dx, nil) == nil {
		t.Fatal("the window's last slot was refused")
	}
	r.rep.Commit(0, 1, r.x, nil) // executes slot 1: the window slides
	if r.slots.vote(StagePrepare, 0, 1, 2, dx, nil) != nil || r.slots.Accept(proposal(0, 1, dx, r.x)) != nil {
		t.Fatal("state created for an executed slot")
	}
	if r.slots.vote(StagePrepare, 0, window+1, 2, dx, nil) == nil {
		t.Fatal("the window did not follow execution")
	}
	if r.slots.Len() != 2 {
		t.Fatalf("Len = %d, want the two in-window slots", r.slots.Len())
	}
}

func TestSlotsViewEntryDropsVotesNotExecution(t *testing.T) {
	r := newVCRig(1)
	dx, dy := r.x.Digest(), r.y.Digest()
	r.slots.Accept(proposal(0, 1, dx, r.x))
	r.rep.Commit(0, 1, r.x, nil)
	r.slots.Executed(1, r.x, [][]byte{nil})
	r.slots.Accept(proposal(0, 2, dy, r.y))
	r.slots.vote(StagePrepare, 0, 2, 3, dy, sig(3))
	if r.slots.slots[1] != nil || r.slots.Len() != 1 || r.slots.NextSeq() != 1 {
		t.Fatalf("after executing slot 1: Len %d, NextSeq %d", r.slots.Len(), r.slots.NextSeq())
	}

	r.vc.Enter(1)
	if r.slots.Len() != 0 {
		t.Fatal("entering a view kept the old view's slots")
	}
	sl := r.slots.Accept(proposal(1, 2, dy, r.y))
	if sl == nil || sl.count(StagePrepare) != 0 || r.slots.votes.index(stageKey{2, StagePrepare}, 3) >= 0 {
		t.Fatal("a vote of the old view survived into the new one")
	}
	if r.slots.Accept(proposal(1, 1, dx, r.x)) != nil || !r.backlog.Done(r.x.Requests[0].Key()) || r.slots.NextSeq() != 1 {
		t.Fatal("entering a view forgot what was executed")
	}
	if seq := r.slots.Next(); seq != 2 {
		t.Fatalf("next assignment = %d, want 2", seq)
	}
}

// TestSlotsProposeStopsAtTheWindow: the leader hands out exactly the
// sequence numbers Accept takes — the window above the last executed slot
// — and, once slot 1 executes, resumes at the next one, leaving no gap. A
// counter that ran past the window left its last proposals in flight at
// sequence numbers nobody, the leader included, would accept.
func TestSlotsProposeStopsAtTheWindow(t *testing.T) {
	r := &kitRig{d: newFakeDriver(), rec: &recorder{}, auth: crypto.NewAuthority(1)}
	cfg := DefaultConfig(4)
	cfg.HighWaterWindow = 4
	// One request per slot, so that the six requests need six slots: at
	// the default cap all six leave in slot 1 and no window binds.
	cfg.BatchSize = 1
	r.rep = NewReplica(0, cfg, r.d, r.rec, kvstore.New(), r.auth, Hooks{})
	r.rep.Start()
	backlog := NewBacklog(r.rep, testProgress)
	vc := NewViewChange(r.rep, backlog, cfg.Quorum(), ViewChangeHooks{})
	slots := NewSlots[struct{}](r.rep, PBFTProfile(), backlog, vc, nil, pbftStages...)
	for s := uint64(1); s <= 6; s++ {
		backlog.Submit(r.signedReq(s), 0)
	}
	var proposed []types.SeqNum
	slots.Issuer = func(m *ProposeMsg) {
		proposed = append(proposed, m.Seq)
		if slots.Accept(m) == nil {
			t.Errorf("the leader refused its own proposal at %d", m.Seq)
		}
	}
	slots.Propose()
	if !reflect.DeepEqual(proposed, []types.SeqNum{1, 2, 3, 4}) {
		t.Fatalf("proposed %v with a window of 4, want [1 2 3 4]", proposed)
	}
	first := slots.slots[1].Batch
	r.rep.Commit(0, 1, first, nil)
	slots.Executed(1, first, [][]byte{nil})
	proposed = nil
	slots.Propose()
	if !reflect.DeepEqual(proposed, []types.SeqNum{5}) {
		t.Fatalf("after slot 1 executed the leader proposed %v, want [5]", proposed)
	}
}

// --- batching behind the pipeline window ------------------------------------

// pipelineRig is view 0's leader running stages under profile, with every
// proposal it issues recorded, as its requests' sequence numbers, and
// ordered.
type pipelineRig struct {
	*vcRig
	batches [][]uint64
	last    uint64 // the last request submitted
}

func newPipelineRig(profile Profile, stages ...StageSpec) *pipelineRig {
	r := &pipelineRig{vcRig: newRunnerRig(0, profile, stages...)}
	r.slots.Issuer = func(m *ProposeMsg) {
		r.batches = append(r.batches, seqs(m.Batch.Requests))
		r.slots.Order(m)
	}
	return r
}

// submit hands the leader k fresh requests one at a time, as OnRequest
// does, and returns the proposals they caused.
func (r *pipelineRig) submit(k int) [][]uint64 {
	before := len(r.batches)
	for range k {
		r.last++
		if r.backlog.Submit(r.signedReq(r.last), 0) {
			r.slots.Propose()
		}
	}
	return r.batches[before:]
}

// execute commits and executes slot seq, and proposes as OnExecuted does;
// it returns the proposals that caused.
func (r *pipelineRig) execute(seq types.SeqNum) [][]uint64 {
	before := len(r.batches)
	b := r.slots.slots[seq].Batch
	r.rep.Commit(0, seq, b, nil)
	r.slots.Executed(seq, b, make([][]byte, b.Len()))
	r.slots.Propose()
	return r.batches[before:]
}

// span returns the request sequence numbers lo … hi.
func span(lo, hi uint64) []uint64 {
	var out []uint64
	for s := lo; s <= hi; s++ {
		out = append(out, s)
	}
	return out
}

func TestPipelineLoneRequestIsProposedAtOnce(t *testing.T) {
	r := newPipelineRig(PBFTProfile(), pbftStages...)
	mark := len(r.d.timers)
	if got := r.submit(1); !reflect.DeepEqual(got, [][]uint64{{1}}) {
		t.Fatalf("one request caused proposals %v, want [[1]] at once", got)
	}
	for _, tm := range r.d.timers[mark:] {
		if tm.at != r.rep.Config().ViewChangeTimeout {
			t.Fatalf("proposing armed a timer at %v: a lone request waited for company", tm.at)
		}
	}
}

func TestPipelineWindowStopsAtDepth(t *testing.T) {
	r := newPipelineRig(PBFTProfile(), pbftStages...)
	got := r.submit(pipelineDepth + 3)
	want := make([][]uint64, pipelineDepth)
	for i := range want {
		want[i] = []uint64{uint64(i + 1)}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("proposals %v, want one slot per request up to the depth %d", got, pipelineDepth)
	}
	if r.slots.NextSeq() != pipelineDepth {
		t.Fatalf("assigned up to %d with nothing executed, want %d", r.slots.NextSeq(), pipelineDepth)
	}
}

// TestPipelineQueueLeavesAsOneCappedBatch: what queued behind a full
// window leaves in the next slot, up to BatchSize, when a slot executes;
// the rest leaves when the next one does.
func TestPipelineQueueLeavesAsOneCappedBatch(t *testing.T) {
	r := newPipelineRig(PBFTProfile(), pbftStages...)
	limit := uint64(r.rep.Config().BatchSize)
	r.submit(pipelineDepth)
	if got := r.submit(int(limit) + 4); len(got) != 0 {
		t.Fatalf("proposed %v with the window full", got)
	}
	d := uint64(pipelineDepth)
	if got := r.execute(1); !reflect.DeepEqual(got, [][]uint64{span(d+1, d+limit)}) {
		t.Fatalf("slot 1 executed: proposals %v, want one batch of the %d oldest queued", got, limit)
	}
	if got := r.execute(2); !reflect.DeepEqual(got, [][]uint64{span(d+limit+1, d+limit+4)}) {
		t.Fatalf("slot 2 executed: proposals %v, want the 4 left", got)
	}
}

// TestPipelineSpeculativeExecutionReopensTheWindow: under a speculative
// profile the execution point is the speculative tip, so a slot executed
// speculatively leaves the window — nothing has committed — and the
// queue leaves at once.
func TestPipelineSpeculativeExecutionReopensTheWindow(t *testing.T) {
	poe := []StageSpec{{Stage: StageShare, Voters: VotersAll, Collect: true, Quorum: Term(2, 1)}}
	r := newPipelineRig(PoEProfile(), poe...)
	r.submit(pipelineDepth)
	if got := r.submit(3); len(got) != 0 {
		t.Fatalf("proposed %v with the window full", got)
	}
	d := r.slots.slots[1].Digest
	for _, from := range []types.NodeID{1, 2} {
		r.slots.OnMessage(from, r.signedVote(StageShare, from, d))
	}
	if !r.slots.slots[1].Speculated() || r.rep.Ledger().LastExecuted() != 0 {
		t.Fatal("slot 1 was not executed speculatively (and only speculatively)")
	}
	want := [][]uint64{span(pipelineDepth+1, pipelineDepth+3)}
	if got := r.batches[pipelineDepth:]; !reflect.DeepEqual(got, want) {
		t.Fatalf("after speculative execution: proposals %v, want %v", got, want)
	}
}

// TestSpeculativeCheckpointCommitsAfterTheTipMovedOn: a checkpoint's
// quorum is checked against this replica's history at the checkpoint, not
// its current one. Announcements that arrive after the tip has passed the
// checkpoint still commit the prefix up to it; compared with the current
// history digest they never did, and the speculated slots stayed
// uncommitted until a checkpoint happened to land at the tip.
func TestSpeculativeCheckpointCommitsAfterTheTipMovedOn(t *testing.T) {
	r := &kitRig{d: newFakeDriver(), rec: &recorder{}, auth: crypto.NewAuthority(1)}
	cfg := DefaultConfig(4)
	cfg.CheckpointInterval = 2
	r.rep = NewReplica(1, cfg, r.d, r.rec, kvstore.New(), r.auth, Hooks{})
	r.rep.Start()
	backlog := NewBacklog(r.rep, testProgress)
	vc := NewViewChange(r.rep, backlog, cfg.Quorum(), ViewChangeHooks{})
	slots := NewSlots[struct{}](r.rep, ZyzzyvaProfile(), backlog, vc, nil)
	for seq := types.SeqNum(1); seq <= 3; seq++ {
		b := types.NewBatch(r.signedReq(uint64(seq)))
		slots.Order(proposal(0, seq, b.Digest(), b))
	}
	var own *CheckpointMsg
	for _, m := range r.d.sent {
		if cp, ok := m.M.(*CheckpointMsg); ok && cp.Seq == 2 {
			own = cp
		}
	}
	if slots.specTip() != 3 || own == nil || own.StateHash == r.rep.HistoryDigest() {
		t.Fatalf("tip %d, checkpoint at 2 announced: %v", slots.specTip(), own != nil)
	}
	for _, from := range []types.NodeID{2, 3} {
		m := &CheckpointMsg{Seq: 2, StateHash: own.StateHash, Replica: from}
		m.Sig = r.auth.Signer(from).Sign(m.Digest())
		slots.OnMessage(from, m)
	}
	if got := r.rep.Ledger().LastExecuted(); got != 2 {
		t.Fatalf("committed up to %d, want the checkpoint's 2", got)
	}
}

// --- verification on demand ------------------------------------------------

// TestOnlyProposalsExposeRequestClaims: the inbound lane prefetches a
// proposal's signature and its requests' client signatures, and nothing
// of a vote or a reply, which are verified on demand.
func TestOnlyProposalsExposeRequestClaims(t *testing.T) {
	r := newVCRig(1)
	b := types.NewBatch(r.signedReq(1), r.signedReq(2))
	p := NewProposal(r.rep, 0, 1, b)
	claims := p.AppendSigClaims(nil, 0)
	if len(claims) != 3 || claims[0].Signer != p.Leader {
		t.Fatalf("proposal of 2 requests exposes %d claims, want the leader's and 2 clients'", len(claims))
	}
	for i, c := range claims[1:] {
		if q := b.Requests[i]; c.Signer != q.Client || c.Digest != q.Digest() || !bytes.Equal(c.Sig, q.Sig) {
			t.Errorf("claim %d is not request %d's client signature", i+1, i)
		}
	}
	for _, m := range []types.Message{&VoteMsg{}, &ReplyMsg{R: &types.Reply{}}} {
		if _, ok := m.(crypto.SigClaimer); ok {
			t.Errorf("%s exposes signature claims to the inbound lane", m.Kind())
		}
	}
}

// TestAcceptChecksClientSignatures: a backup assigns no batch before it
// has checked each request's client signature, so a leader that rewrites
// a request and re-signs its proposal orders nothing; a leader's own
// fresh proposal is not checked again.
func TestAcceptChecksClientSignatures(t *testing.T) {
	r := newRunnerRig(1, PBFTProfile(), pbftStages...)
	forged := *r.signedReq(1)
	forged.Op = []byte("no client signed this")
	bad := types.NewBatch(&forged)
	p := &ProposeMsg{Seq: 1, Digest: bad.Digest(), Batch: bad, Leader: 0}
	p.Sig = r.auth.Signer(0).Sign(p.SigDigest())
	if r.slots.OnMessage(0, p); r.slots.slots[1] != nil && r.slots.slots[1].Batch != nil {
		t.Fatal("a backup accepted a batch holding a request no client signed")
	}
	p = &ProposeMsg{Seq: 1, Digest: r.x.Digest(), Batch: r.x, Leader: 0}
	p.Sig = r.auth.Signer(0).Sign(p.SigDigest())
	if r.slots.OnMessage(0, p); r.slots.slots[1] == nil || r.slots.slots[1].Batch != r.x {
		t.Fatal("a backup refused a batch of signed requests")
	}

	leader := newRunnerRig(0, PBFTProfile(), pbftStages...)
	before := leader.auth.Stats.VerifyOps.Load()
	if leader.slots.Issue(NewProposal(leader.rep, 0, 1, leader.x)); leader.slots.slots[1] == nil {
		t.Fatal("the leader did not assign its own proposal")
	}
	if n := leader.auth.Stats.VerifyOps.Load() - before; n != 0 {
		t.Fatalf("the leader verified %d signatures to accept its own proposal", n)
	}
}

// TestReissuedSlotsAreCheckedAtTheNewLeader: a new view's re-issued
// slots are the new leader's own proposals, but their batches come from
// other replicas' view-change messages, so the leader checks their client
// signatures too while it adopts them.
func TestReissuedSlotsAreCheckedAtTheNewLeader(t *testing.T) {
	r := newRunnerRig(1, PBFTProfile(), pbftStages...)
	unsigned := types.NewBatch(req(3, []byte("z")))
	r.vc.OnViewChange(2, r.signed(1, 2, func(m *ViewChangeMsg) {
		m.Carried = []CarriedSlot{carry(0, 1, r.x), carry(0, 2, unsigned)}
	}))
	r.vc.OnViewChange(3, r.signed(1, 3))
	if nv := r.newViews(); len(nv) != 1 || len(nv[0].Reissued) != 2 {
		t.Fatalf("sent %d new views, want one re-issuing slots 1 and 2", len(nv))
	}
	if sl := r.slots.slots[1]; sl == nil || sl.Batch != r.x {
		t.Fatal("the new leader did not adopt the re-issued slot of signed requests")
	}
	if sl := r.slots.slots[2]; sl != nil && sl.Batch != nil {
		t.Fatal("the new leader adopted a re-issued batch holding a request no client signed")
	}
}

// TestLateVotesAreDroppedUnverified: once a stage closed, or the slot
// executed, a vote for it is dropped before its signature is checked; a
// vote for a slot whose proposal has not arrived yet is verified.
func TestLateVotesAreDroppedUnverified(t *testing.T) {
	r := newRunnerRig(1, PBFTProfile(), pbftStages...)
	dx := r.x.Digest()
	verifies := func(from types.NodeID, m *VoteMsg) int64 {
		before := r.auth.Stats.VerifyOps.Load()
		r.slots.OnMessage(from, m)
		return r.auth.Stats.VerifyOps.Load() - before
	}
	if n := verifies(2, r.signedVote(StagePrepare, 2, dx)); n != 1 {
		t.Fatalf("a prepare ahead of its proposal cost %d verifications, want 1", n)
	}
	p := &ProposeMsg{Seq: 1, Digest: dx, Batch: r.x, Leader: 0}
	p.Sig = r.auth.Signer(0).Sign(p.SigDigest())
	r.slots.OnMessage(0, p)
	if sl := r.slots.slots[1]; sl == nil || !sl.Past(StagePrepare) {
		t.Fatal("the proposal with one backup's prepare did not close the prepare stage")
	}
	if n := verifies(3, r.signedVote(StagePrepare, 3, dx)); n != 0 {
		t.Fatalf("a prepare after the stage closed cost %d verifications", n)
	}
	if n := verifies(0, r.signedVote(StageCommit, 0, dx)) + verifies(2, r.signedVote(StageCommit, 2, dx)); n != 2 {
		t.Fatalf("the two commits that close the slot cost %d verifications, want 2", n)
	}
	if !reflect.DeepEqual(r.rec.executed, []types.SeqNum{1}) {
		t.Fatalf("executed %v, want slot 1", r.rec.executed)
	}
	if n := verifies(3, r.signedVote(StageCommit, 3, dx)); n != 0 {
		t.Fatalf("a commit for an executed slot cost %d verifications", n)
	}
}

// TestMACVotesAreNotSigned: under MACs a backup runs a slot through both
// stages — its own votes included — without signing anything, and the
// stages' certificates stay empty: no vote counted there carries a
// signature.
func TestMACVotesAreNotSigned(t *testing.T) {
	r := newRunnerRig(1, PBFTMACProfile(), pbftStages...)
	r.rep.cfg.Scheme = crypto.SchemeMAC
	dx, replicas := r.x.Digest(), r.rep.Replicas()
	macVote := func(stage Stage, from types.NodeID) *VoteMsg {
		m := &VoteMsg{Stage: stage, Seq: 1, Digest: dx, Replica: from}
		m.Auth = r.auth.Signer(from).AuthVector(m.SigDigest(), replicas)
		return m
	}
	signs := r.auth.Stats.SignOps.Load()
	p := &ProposeMsg{Seq: 1, Digest: dx, Batch: r.x, Leader: 0}
	p.Auth = r.auth.Signer(0).AuthVector(p.SigDigest(), replicas)
	r.slots.OnMessage(0, p)
	r.slots.OnMessage(2, macVote(StagePrepare, 2))
	r.slots.OnMessage(0, macVote(StageCommit, 0))
	sl := r.slots.slots[1]
	if sl == nil || !sl.Past(StagePrepare) || len(sl.Voters(StageCommit)) != 2 {
		t.Fatal("the proposal, one backup's prepare and one commit did not close the prepare stage and count two commits")
	}
	for _, st := range []Stage{StagePrepare, StageCommit} {
		if c := sl.Certificate(st); c.Size() != 0 {
			t.Errorf("the stage %d certificate holds the signatures of %v, want none", st, c.Signers)
		}
	}
	if r.slots.OnMessage(2, macVote(StageCommit, 2)); !reflect.DeepEqual(r.rec.executed, []types.SeqNum{1}) {
		t.Fatalf("executed %v, want slot 1", r.rec.executed)
	}
	if n := r.auth.Stats.SignOps.Load() - signs; n != 0 {
		t.Fatalf("the backup signed %d times to run a MAC-authenticated slot", n)
	}
}

// TestFastPathShareAfterTimeoutStillCommitsFast: after τ3 closed the sign
// stage on a quorum, the n-th share is still verified and turned into the
// fast-commit certificate; a share after the slot is decided is not.
func TestFastPathShareAfterTimeoutStillCommitsFast(t *testing.T) {
	r := newRunnerRig(0, SBFTProfile(), sbftStages...)
	dx, mark := r.x.Digest(), 0
	r.slots.Issue(NewProposal(r.rep, 0, 1, r.x))
	r.slots.OnMessage(1, r.signedVote(StageSign, 1, dx))
	r.slots.OnMessage(2, r.signedVote(StageSign, 2, dx))
	r.fire(sbftStages[0].FastWait)
	r.sentSince(&mark)
	r.slots.OnMessage(3, r.signedVote(StageSign, 3, dx))
	if got := r.sentSince(&mark); !reflect.DeepEqual(got, []string{"FAST-COMMIT-CERT->1", "FAST-COMMIT-CERT->2", "FAST-COMMIT-CERT->3"}) ||
		!reflect.DeepEqual(r.rec.executed, []types.SeqNum{1}) {
		t.Fatalf("the 4th share after τ3 sent %v and executed %v, want the fast-commit certificate", got, r.rec.executed)
	}
	before := r.auth.Stats.VerifyOps.Load()
	r.slots.OnMessage(1, r.signedVote(StageCommit, 1, dx))
	if n := r.auth.Stats.VerifyOps.Load() - before; n != 0 {
		t.Fatalf("a slow-path commit share after the fast commit cost %d verifications", n)
	}
}

// --- the fast path and the tree ---------------------------------------------

// sbftStages is SBFT's stage list: sign shares to the collector with the
// fast path, then, on the slow path, commit shares to the collector.
var sbftStages = []StageSpec{
	{Stage: StageSign, Voters: VotersAll, Collect: true, Quorum: Term(2, 1), FastWait: 8 * time.Millisecond},
	{Stage: StageCommit, Voters: VotersAll, Collect: true, Quorum: Term(2, 1)},
}

// kauriStages is Kauri's: two rounds the root certifies, run on its tree.
var kauriStages = []StageSpec{
	{Stage: StagePrepare, Voters: VotersAll, Collect: true, Quorum: Term(2, 1)},
	{Stage: StageCommit, Voters: VotersAll, Collect: true, Quorum: Term(2, 1)},
}

// newRunnerRig is the rig's replica running stages under profile, with
// the runner's own acceptance of re-issued slots.
func newRunnerRig(id types.NodeID, profile Profile, stages ...StageSpec) *vcRig {
	r := newVCRig(id, func(h *ViewChangeHooks) { h.Accept = nil })
	r.slots = NewSlots[struct{}](r.rep, profile, r.backlog, r.vc, nil, stages...)
	return r
}

// signedVote is from's vote at stage for d at slot 1 of view 0.
func (r *vcRig) signedVote(stage Stage, from types.NodeID, d types.Digest) *VoteMsg {
	m := &VoteMsg{Stage: stage, Seq: 1, Digest: d, Replica: from}
	m.Sig = r.auth.Signer(from).Sign(m.SigDigest())
	return m
}

// aggregate is an aggregate of the signers' votes at stage for d at slot 1
// of view 0.
func (r *vcRig) aggregate(stage Stage, d types.Digest, signers ...types.NodeID) *AggrMsg {
	m := &AggrMsg{Stage: stage, Seq: 1, Digest: d, Signers: signers}
	for _, id := range signers {
		m.Sigs = append(m.Sigs, r.auth.Signer(id).Sign(VoteDigest(stage, 0, 1, d)))
	}
	return m
}

// sentSince lists what the replica sent from the mark'th send on, as
// "KIND->to", and moves the mark to the end.
func (r *vcRig) sentSince(mark *int) []string {
	var out []string
	for _, s := range r.d.sent[*mark:] {
		out = append(out, fmt.Sprintf("%s->%d", s.M.Kind(), s.To))
	}
	*mark = len(r.d.sent)
	return out
}

// fire releases the timers due within dt and hands them to the runner.
func (r *vcRig) fire(dt time.Duration) {
	r.rec.timers = nil
	r.d.advance(dt)
	for _, id := range r.rec.timers {
		if !r.slots.OnTimer(id) {
			r.vc.OnTimer(id)
		}
	}
}

// lastCert returns the last certificate the replica sent.
func (r *vcRig) lastCert() *CertMsg {
	for i := len(r.d.sent) - 1; i >= 0; i-- {
		if cm, ok := r.d.sent[i].M.(*CertMsg); ok {
			return cm
		}
	}
	return nil
}

func TestFastPathCommitsOnAllNShares(t *testing.T) {
	r := newRunnerRig(0, SBFTProfile(), sbftStages...)
	dx, mark := r.x.Digest(), 0
	r.slots.Issue(NewProposal(r.rep, 0, 1, r.x))
	r.slots.OnMessage(1, r.signedVote(StageSign, 1, dx))
	r.slots.OnMessage(2, r.signedVote(StageSign, 2, dx))
	if got := r.sentSince(&mark); !reflect.DeepEqual(got, []string{"PROPOSE->1", "PROPOSE->2", "PROPOSE->3"}) || len(r.rec.executed) != 0 {
		t.Fatalf("with a quorum of 3 shares but not all 4: sent %v, executed %v; the fast path waits for all n", got, r.rec.executed)
	}
	r.slots.OnMessage(3, r.signedVote(StageSign, 3, dx))
	if got := r.sentSince(&mark); !reflect.DeepEqual(got, []string{"FAST-COMMIT-CERT->1", "FAST-COMMIT-CERT->2", "FAST-COMMIT-CERT->3"}) {
		t.Fatalf("on the 4th share the collector sent %v", got)
	}
	if cm := r.lastCert(); cm.Cert.Size() != 4 || !reflect.DeepEqual(r.rec.executed, []types.SeqNum{1}) {
		t.Fatalf("fast certificate of %d shares, executed %v", cm.Cert.Size(), r.rec.executed)
	}
	if r.fire(sbftStages[0].FastWait); len(r.rec.timers) != 0 {
		t.Fatalf("τ3 still fired after the fast commit: %v", r.rec.timers)
	}
}

func TestFastPathTimeoutWithQuorumTakesTheSlowPath(t *testing.T) {
	r := newRunnerRig(0, SBFTProfile(), sbftStages...)
	dx, mark := r.x.Digest(), 0
	r.slots.Issue(NewProposal(r.rep, 0, 1, r.x))
	r.slots.OnMessage(1, r.signedVote(StageSign, 1, dx))
	r.slots.OnMessage(2, r.signedVote(StageSign, 2, dx))
	r.sentSince(&mark)
	r.fire(sbftStages[0].FastWait)
	if got := r.sentSince(&mark); !reflect.DeepEqual(got, []string{"PREPARE-CERT->1", "PREPARE-CERT->2", "PREPARE-CERT->3"}) {
		t.Fatalf("τ3 with a quorum sent %v, want the prepare certificate", got)
	}
	cm := r.lastCert()
	if !reflect.DeepEqual(cm.Cert.Signers, []types.NodeID{0, 1, 2}) || cm.Cert.Digest != VoteDigest(StageSign, 0, 1, dx) {
		t.Fatalf("prepare certificate holds %v: want the sign shares of 0, 1, 2", cm.Cert.Signers)
	}
	sl := r.slots.slots[1]
	if !sl.Past(StageSign) || r.slots.votes.index(stageKey{1, StageCommit}, 0) < 0 {
		t.Fatal("the prepare certificate did not open the commit stage with the leader's own share")
	}
	r.slots.OnMessage(1, r.signedVote(StageCommit, 1, dx))
	r.slots.OnMessage(2, r.signedVote(StageCommit, 2, dx))
	if got := r.sentSince(&mark); !reflect.DeepEqual(got, []string{"COMMIT-CERT->1", "COMMIT-CERT->2", "COMMIT-CERT->3"}) ||
		!reflect.DeepEqual(r.rec.executed, []types.SeqNum{1}) {
		t.Fatalf("a commit quorum sent %v and executed %v", got, r.rec.executed)
	}
}

func TestFastPathTimeoutBelowQuorumWaitsAgain(t *testing.T) {
	r := newRunnerRig(0, SBFTProfile(), sbftStages...)
	dx, mark, wait := r.x.Digest(), 0, sbftStages[0].FastWait
	r.slots.Issue(NewProposal(r.rep, 0, 1, r.x))
	r.slots.OnMessage(1, r.signedVote(StageSign, 1, dx))
	r.sentSince(&mark)
	r.fire(wait)
	if got := r.sentSince(&mark); len(got) != 0 || !slices.Contains(r.liveTimers(), 2*wait) {
		t.Fatalf("τ3 with 2 of 3 shares sent %v and left timers %v, want nothing sent and τ3 re-armed", got, r.liveTimers())
	}
	r.slots.OnMessage(2, r.signedVote(StageSign, 2, dx))
	r.fire(wait)
	if got := r.sentSince(&mark); len(got) != 3 || r.lastCert().Stage != StagePrepare {
		t.Fatalf("the re-armed τ3 with a quorum sent %v, want the prepare certificate", got)
	}
}

// TestTreeRelaysProposalsAndCertificatesDown: replica 1 of four is an inner
// node of view 0's tree (root 0, children 1 and 2; 1's child 3). It relays
// the proposal and the root's certificate to 3 and sends its subtree's
// votes up to 0 once both of them are in.
func TestTreeRelaysProposalsAndCertificatesDown(t *testing.T) {
	r := newRunnerRig(1, KauriProfile(), kauriStages...)
	if r.slots.Parent(0) != 0 || r.slots.subtree() != 2 {
		t.Fatalf("replica 1: parent %d, subtree %d; want 0 and 2", r.slots.Parent(0), r.slots.subtree())
	}
	dx, mark := r.x.Digest(), 0
	p := &ProposeMsg{Seq: 1, Digest: dx, Batch: r.x, Leader: 0}
	p.Sig = r.auth.Signer(0).Sign(p.SigDigest())
	r.slots.OnMessage(0, p)
	if got := r.sentSince(&mark); !reflect.DeepEqual(got, []string{"PROPOSE->3"}) {
		t.Fatalf("on the proposal sent %v, want it relayed to the child only", got)
	}
	r.slots.OnMessage(3, r.aggregate(StagePrepare, dx, 3))
	if got := r.sentSince(&mark); !reflect.DeepEqual(got, []string{"KAURI-AGGR-prepare->0"}) {
		t.Fatalf("with the subtree's votes in, sent %v", got)
	}
	if m := r.d.sent[len(r.d.sent)-1].M.(*AggrMsg); !reflect.DeepEqual(m.Signers, []types.NodeID{1, 3}) {
		t.Fatalf("aggregate up holds %v, want [1 3]", m.Signers)
	}
	cert := &crypto.Certificate{Digest: VoteDigest(StagePrepare, 0, 1, dx)}
	for _, id := range []types.NodeID{0, 1, 3} {
		cert.Add(id, r.auth.Signer(id).Sign(cert.Digest))
	}
	cm := &CertMsg{Stage: StagePrepare, Seq: 1, Digest: dx, Cert: cert, Leader: 0}
	cm.Sig = r.auth.Signer(0).Sign(cm.SigDigest())
	r.slots.OnMessage(0, cm)
	if got := r.sentSince(&mark); !reflect.DeepEqual(got, []string{"PREPARE-CERT->3"}) || !r.slots.slots[1].Past(StagePrepare) {
		t.Fatalf("on the prepare certificate sent %v, want it relayed to the child, the stage closed", got)
	}
}

// TestTreePartialAggregateOnTimeout: an inner node whose subtree is slow
// forwards what it holds when its wait ends, then each late vote
// incrementally, and a repeat not at all.
func TestTreePartialAggregateOnTimeout(t *testing.T) {
	r := newRunnerRig(1, KauriProfile(), kauriStages...)
	dx, mark := r.x.Digest(), 0
	p := &ProposeMsg{Seq: 1, Digest: dx, Batch: r.x, Leader: 0}
	p.Sig = r.auth.Signer(0).Sign(p.SigDigest())
	r.slots.OnMessage(0, p)
	r.sentSince(&mark)
	r.fire(2 * r.rep.Config().BatchTimeout)
	if got := r.sentSince(&mark); !reflect.DeepEqual(got, []string{"KAURI-AGGR-prepare->0"}) {
		t.Fatalf("when the wait ended sent %v, want the partial aggregate", got)
	}
	if m := r.d.sent[len(r.d.sent)-1].M.(*AggrMsg); !reflect.DeepEqual(m.Signers, []types.NodeID{1}) {
		t.Fatalf("partial aggregate holds %v, want [1]", m.Signers)
	}
	r.slots.OnMessage(3, r.aggregate(StagePrepare, dx, 3))
	if got := r.sentSince(&mark); !reflect.DeepEqual(got, []string{"KAURI-AGGR-prepare->0"}) {
		t.Fatalf("on a late vote sent %v, want one more aggregate", got)
	}
	if m := r.d.sent[len(r.d.sent)-1].M.(*AggrMsg); !reflect.DeepEqual(m.Signers, []types.NodeID{1, 3}) {
		t.Fatalf("re-sent aggregate holds %v, want [1 3]", m.Signers)
	}
	r.slots.OnMessage(3, r.aggregate(StagePrepare, dx, 3))
	if got := r.sentSince(&mark); len(got) != 0 {
		t.Fatalf("a repeat aggregate sent %v", got)
	}
}
