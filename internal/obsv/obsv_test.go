package obsv

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"bftkit/internal/crypto"
	"bftkit/internal/types"
)

type fakeMsg struct {
	K    string
	View types.View
	Seq  types.SeqNum
	Body []byte
}

func (m *fakeMsg) Kind() string { return m.K }

type slottedMsg struct {
	fakeMsg
}

func (m *slottedMsg) Slot() (types.View, types.SeqNum) { return m.View, m.Seq }

type keyedMsg struct {
	fakeMsg
	Client    types.NodeID
	ClientSeq uint64
}

func (m *keyedMsg) RequestRef() types.RequestKey {
	return types.RequestKey{Client: m.Client, ClientSeq: m.ClientSeq}
}

func TestPhaseClassification(t *testing.T) {
	cases := map[string]string{
		"PRE-PREPARE":        "pre-prepare",
		"PREPARE":            "prepare",
		"COMMIT":             "commit",
		"HS-PROPOSAL":        "propose",
		"HS-VOTE":            "vote",
		"ORDER-REQ":          "order",
		"REQUEST":            PhaseClient,
		"REPLY":              PhaseClient,
		"CHECKPOINT":         PhaseCheckpoint,
		"ZYZ-CHECKPOINT":     PhaseCheckpoint,
		"VIEW-CHANGE":        PhaseViewChange,
		"NEW-VIEW":           PhaseViewChange,
		"HS-TIMEOUT":         PhaseViewChange,
		"FETCH-STATE":        PhaseRecovery,
		"SBFT-SHARE-sign":    "sign",
		"SBFT-PROOF-commit":  "commit",
		"KAURI-AGGR-prepare": "prepare",
		"THEMIS-prepare":     "prepare",
		"PO-REQUEST":         "preorder",
		"SOME-NEW-KIND":      "some-new-kind", // unknown kinds still group
	}
	for kind, want := range cases {
		if got := PhaseOf(kind); got != want {
			t.Errorf("PhaseOf(%q) = %q, want %q", kind, got, want)
		}
	}
	for _, p := range []string{PhaseClient, PhaseCheckpoint, PhaseViewChange, PhaseRecovery} {
		if IsProtocolPhase(p) {
			t.Errorf("IsProtocolPhase(%q) = true", p)
		}
	}
	if !IsProtocolPhase("prepare") || !IsProtocolPhase("order") {
		t.Error("ordering phases misclassified")
	}
}

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	m := &fakeMsg{K: "PREPARE"}
	tr.MsgSent(0, 0, 1, m, 10)
	tr.MsgDelivered(0, 0, 1, m, 10)
	tr.Commit(0, 0, 1, 2)
	tr.Execute(0, 0, 2)
	tr.ViewChange(0, 0, 1)
	tr.TimerFired(0, 0, "x", 0, 0)
	tr.CryptoOp(0, crypto.OpSign)
	tr.ObserveCommitLatency(time.Millisecond)
	tr.ObserveQueueDepth(3)
	tr.Submit(0, 10001, types.RequestKey{Client: 10001, ClientSeq: 1})
	tr.Done(0, 10001, types.RequestKey{Client: 10001, ClientSeq: 1})
	tr.WriteSummary(&bytes.Buffer{})
	if err := tr.WriteProm(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteTrace(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteCSV(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	if tr.Enabled() || tr.Events() != nil || tr.PerPhase() != nil {
		t.Fatal("nil tracer reported data")
	}
}

func TestCountersAndEvents(t *testing.T) {
	tr := New(Options{Label: "test", Events: true})
	pp := &slottedMsg{fakeMsg{K: "PRE-PREPARE", View: 1, Seq: 7}}
	prep := &slottedMsg{fakeMsg{K: "PREPARE", View: 1, Seq: 7}}

	tr.MsgSent(time.Millisecond, 0, 1, pp, 100)
	tr.MsgDelivered(2*time.Millisecond, 0, 1, pp, 100)
	tr.MsgSent(3*time.Millisecond, 1, 0, prep, 50)
	tr.CryptoOp(1, crypto.OpSign)
	tr.CryptoOp(1, crypto.OpVerify)
	tr.Commit(4*time.Millisecond, 1, 1, 7)

	per := tr.PerPhase()
	if st := per["pre-prepare"]; st.MsgsSent != 1 || st.BytesSent != 100 || st.MsgsRecv != 1 || st.BytesRecv != 100 {
		t.Fatalf("pre-prepare stat = %+v", st)
	}
	if st := per["prepare"]; st.MsgsSent != 1 || st.BytesSent != 50 || st.Sign != 1 || st.Verify != 1 {
		t.Fatalf("prepare stat = %+v (crypto ops must land in the sender's current phase)", st)
	}

	msgs, bytesSent := tr.OrderingTotals()
	if msgs != 2 || bytesSent != 150 {
		t.Fatalf("ordering totals = %d msgs / %d bytes", msgs, bytesSent)
	}
	phases := tr.OrderingPhases()
	if len(phases) != 2 || phases[0] != "pre-prepare" || phases[1] != "prepare" {
		t.Fatalf("ordering phases = %v", phases)
	}

	evs := tr.Events()
	// send, deliver, send, commit, plus two phase-enter transitions.
	var sends, phaseEnters, commits int
	for _, e := range evs {
		switch e.Type {
		case EvSend:
			sends++
			if e.View != 1 || e.Seq != 7 {
				t.Fatalf("send event missing slot stamp: %+v", e)
			}
		case EvPhaseEnter:
			phaseEnters++
		case EvCommit:
			commits++
		}
	}
	if sends != 2 || phaseEnters != 2 || commits != 1 {
		t.Fatalf("event mix: %d sends, %d phase-enters, %d commits", sends, phaseEnters, commits)
	}
}

func TestEventCapDropsNotGrows(t *testing.T) {
	tr := New(Options{Events: true, MaxEvents: 4})
	m := &fakeMsg{K: "PREPARE"}
	for i := 0; i < 10; i++ {
		tr.MsgSent(0, 0, 1, m, 1)
	}
	if len(tr.Events()) != 4 {
		t.Fatalf("retained %d events, cap 4", len(tr.Events()))
	}
	if tr.DroppedEvents() == 0 {
		t.Fatal("drops not counted")
	}
}

func TestRingCaptureKeepsTail(t *testing.T) {
	tr := New(Options{Events: true, Ring: true, MaxEvents: 4})
	m := &fakeMsg{K: "PREPARE"}
	for i := 0; i < 10; i++ {
		tr.MsgSent(time.Duration(i)*time.Millisecond, 0, 1, m, 1)
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, cap 4", len(evs))
	}
	// Flight-recorder semantics: the *last* 4 sends survive, oldest first.
	// The first event is the phase-enter at t=0, evicted along with the
	// early sends.
	for i, e := range evs {
		want := time.Duration(6+i) * time.Millisecond
		if e.At != want || e.Type != EvSend {
			t.Fatalf("ring event %d = %+v, want send at %v", i, e, want)
		}
	}
	if tr.DroppedEvents() != 7 {
		t.Fatalf("dropped = %d, want 7 (11 recorded, 4 kept)", tr.DroppedEvents())
	}
}

func TestRequestKeyStamping(t *testing.T) {
	tr := New(Options{Events: true})
	req := &keyedMsg{fakeMsg: fakeMsg{K: "REQUEST"}, Client: 10001, ClientSeq: 5}
	tr.Submit(0, 10001, types.RequestKey{Client: 10001, ClientSeq: 5})
	tr.MsgSent(time.Millisecond, 10001, 0, req, 32)
	tr.MsgDelivered(2*time.Millisecond, 10001, 0, req, 32)
	tr.Done(3*time.Millisecond, 10001, types.RequestKey{Client: 10001, ClientSeq: 5})

	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("got %d events, want 4", len(evs))
	}
	wantTypes := []EventType{EvSubmit, EvSend, EvDeliver, EvDone}
	for i, e := range evs {
		if e.Type != wantTypes[i] {
			t.Fatalf("event %d type = %v, want %v", i, e.Type, wantTypes[i])
		}
		if !e.HasRequest() || e.Client != 10001 || e.ClientSeq != 5 {
			t.Fatalf("event %d missing request key: %+v", i, e)
		}
		if e.RequestKey() != (types.RequestKey{Client: 10001, ClientSeq: 5}) {
			t.Fatalf("event %d RequestKey = %+v", i, e.RequestKey())
		}
	}
}

func TestSlotLatencyHistogram(t *testing.T) {
	tr := New(Options{})
	pp := &slottedMsg{fakeMsg{K: "PRE-PREPARE", View: 0, Seq: 9}}
	tr.MsgSent(time.Millisecond, 0, 1, pp, 10)
	tr.MsgSent(2*time.Millisecond, 0, 2, pp, 10) // later touch ignored
	tr.Commit(5*time.Millisecond, 1, 0, 9)
	tr.Commit(6*time.Millisecond, 2, 0, 9) // only first commit observed
	if c := tr.SlotLatency.Count(); c != 1 {
		t.Fatalf("slot-latency count = %d, want 1", c)
	}
	// first touch t=1ms, first commit t=5ms → 4000µs.
	if m := tr.SlotLatency.Mean(); m != 4000 {
		t.Fatalf("slot-latency mean = %f µs, want 4000", m)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram("t", "µs")
	for i := int64(1); i <= 1000; i++ {
		h.Observe(i)
	}
	if h.Count() != 1000 {
		t.Fatalf("count = %d", h.Count())
	}
	if m := h.Mean(); m < 500 || m > 501 {
		t.Fatalf("mean = %f", m)
	}
	if h.Max() != 1000 {
		t.Fatalf("max = %d", h.Max())
	}
	// p50 of 1..1000 is ~500; the bucket upper bound answer must bracket
	// it within its power-of-two resolution.
	if q := h.Quantile(0.5); q < 500 || q > 1023 {
		t.Fatalf("p50 bound = %d", q)
	}
	if q := h.Quantile(1); q != 1000 {
		t.Fatalf("p100 = %d, want exact max", q)
	}
	var empty *Histogram
	empty.Observe(1) // nil-safe
	if empty.Quantile(0.5) != 0 || empty.Count() != 0 {
		t.Fatal("nil histogram misbehaved")
	}
}

func TestHistogramMerge(t *testing.T) {
	a := NewHistogram("lat", "µs")
	b := NewHistogram("lat", "µs")
	for i := int64(1); i <= 100; i++ {
		a.Observe(i)
		b.Observe(i * 10)
	}
	a.Merge(b)
	if a.Count() != 200 {
		t.Fatalf("merged count = %d, want 200", a.Count())
	}
	if a.Max() != 1000 {
		t.Fatalf("merged max = %d, want 1000", a.Max())
	}
	// Sum = 5050 + 50500; mean must be exact because Merge carries sums.
	if m := a.Mean(); m != 55550.0/200 {
		t.Fatalf("merged mean = %f", m)
	}
	// Bucket fidelity: a direct histogram of the same samples must match
	// the merged one bucket-for-bucket.
	direct := NewHistogram("lat", "µs")
	for i := int64(1); i <= 100; i++ {
		direct.Observe(i)
		direct.Observe(i * 10)
	}
	if a.Snapshot().Buckets != direct.Snapshot().Buckets {
		t.Fatal("merged buckets diverge from direct observation")
	}
	// b unchanged; nil merges are no-ops.
	if b.Count() != 100 {
		t.Fatalf("merge mutated source: count=%d", b.Count())
	}
	a.Merge(nil)
	var nilH *Histogram
	nilH.Merge(a)
	if a.Count() != 200 {
		t.Fatal("nil merge changed state")
	}
}

func TestWriteProm(t *testing.T) {
	tr1 := New(Options{Label: "p"})
	tr2 := New(Options{Label: "p"})
	pp := &slottedMsg{fakeMsg{K: "PRE-PREPARE", View: 0, Seq: 1}}
	tr1.MsgSent(time.Millisecond, 0, 1, pp, 64)
	tr2.MsgDelivered(2*time.Millisecond, 0, 1, pp, 64)
	tr1.ObserveCommitLatency(3 * time.Millisecond)
	tr2.ObserveCommitLatency(5 * time.Millisecond)

	var buf bytes.Buffer
	if err := WriteProm(&buf, tr1, tr2); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE bftkit_phase_msgs_sent_total counter",
		`bftkit_phase_msgs_sent_total{node="r0",phase="pre-prepare"} 1`,
		`bftkit_phase_msgs_recv_total{node="r1",phase="pre-prepare"} 1`,
		"# TYPE bftkit_commit_latency_microseconds histogram",
		"bftkit_commit_latency_microseconds_count 2",
		"bftkit_commit_latency_microseconds_sum 8000",
		`bftkit_commit_latency_microseconds_bucket{le="+Inf"} 2`,
		"bftkit_events_dropped_total 0",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prom output missing %q:\n%s", want, out)
		}
	}
	// Buckets must be cumulative and end at the total count.
	if !strings.Contains(out, `bftkit_commit_latency_microseconds_bucket{le="8191"} 2`) {
		t.Fatalf("cumulative bucket line missing:\n%s", out)
	}
}

func TestSizeOfSteadyState(t *testing.T) {
	// Two same-type messages: neither pays the gob type descriptor, so
	// sizes differ only by content length.
	a := SizeOf(&fakeMsg{K: "A", Body: make([]byte, 100)})
	b := SizeOf(&fakeMsg{K: "A", Body: make([]byte, 200)})
	if a < 100 || b < 200 {
		t.Fatalf("sizes too small: %d, %d", a, b)
	}
	grow := b - a
	if grow < 95 || grow > 110 {
		t.Fatalf("descriptor overhead leaked into per-message size: a=%d b=%d", a, b)
	}
}

type sizedMsg struct{}

func (*sizedMsg) Kind() string     { return "SIZED" }
func (*sizedMsg) EncodedSize() int { return 4242 }

func TestSizeOfHonorsSizer(t *testing.T) {
	if got := SizeOf(&sizedMsg{}); got != 4242 {
		t.Fatalf("SizeOf(Sizer) = %d", got)
	}
}

func TestExporters(t *testing.T) {
	tr := New(Options{Label: "exp", Events: true})
	tr.MsgSent(time.Millisecond, 0, 1, &slottedMsg{fakeMsg{K: "PRE-PREPARE", View: 2, Seq: 3}}, 64)
	tr.ObserveCommitLatency(5 * time.Millisecond)
	tr.ObserveQueueDepth(2)

	var trace bytes.Buffer
	if err := tr.WriteTrace(&trace); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(trace.String(), `"type":"send"`) || !strings.Contains(trace.String(), `"run":"exp"`) {
		t.Fatalf("trace json missing fields:\n%s", trace.String())
	}

	var csv bytes.Buffer
	if err := tr.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(csv.String(), "exp,r0,pre-prepare,1,0,64,0,") {
		t.Fatalf("csv row missing:\n%s", csv.String())
	}

	var sum bytes.Buffer
	tr.WriteSummary(&sum)
	for _, want := range []string{"pre-prepare", "ordering", "total", "commit-latency", "queue-depth"} {
		if !strings.Contains(sum.String(), want) {
			t.Fatalf("summary missing %q:\n%s", want, sum.String())
		}
	}
}

func TestTruncationSurfacedInAllExporters(t *testing.T) {
	tr := New(Options{Label: "tr", Events: true, MaxEvents: 1})
	m := &fakeMsg{K: "PREPARE"}
	for i := 0; i < 5; i++ {
		tr.MsgSent(0, 0, 1, m, 1)
	}
	if tr.DroppedEvents() == 0 {
		t.Fatal("expected drops")
	}

	var trace, csv, sum bytes.Buffer
	if err := tr.WriteTrace(&trace); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	tr.WriteSummary(&sum)
	if !strings.Contains(trace.String(), `"truncated_events":5`) {
		t.Fatalf("trace missing truncation marker:\n%s", trace.String())
	}
	if !strings.Contains(csv.String(), "# run=tr truncated_events=5") {
		t.Fatalf("csv missing truncation marker:\n%s", csv.String())
	}
	if !strings.Contains(sum.String(), "truncated events: 5") {
		t.Fatalf("summary missing truncation marker:\n%s", sum.String())
	}
}
