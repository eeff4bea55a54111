package ops

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"bftkit/internal/crypto"
	"bftkit/internal/forensics"
	"bftkit/internal/obsv"
	"bftkit/internal/types"
)

// liveTracer simulates what a running node feeds the ops tracer: a slot
// touched by ordering traffic and then committed, which is exactly the
// replica-side path that fills the live slot-latency histogram.
func liveTracer() *obsv.Tracer {
	tr := obsv.New(obsv.Options{Label: "pbft/r0"})
	tr.MsgSent(1*time.Millisecond, 0, 1, slottedTestMsg{kind: "PRE-PREPARE", seq: 1}, 100)
	tr.MsgDelivered(2*time.Millisecond, 0, 1, slottedTestMsg{kind: "PRE-PREPARE", seq: 1}, 100)
	tr.Commit(5*time.Millisecond, 1, 0, 1)
	tr.CryptoOp(0, crypto.OpSign)
	return tr
}

type slottedTestMsg struct {
	kind string
	seq  types.SeqNum
}

func (m slottedTestMsg) Kind() string                     { return m.kind }
func (m slottedTestMsg) Slot() (types.View, types.SeqNum) { return 0, m.seq }

// promLine accepts "# HELP ..."/"# TYPE ..." comments and
// "name{labels} value" samples — the grammar a Prometheus scraper needs
// to hold. (The obsv package's strict parser test enforces the full
// family rules; this endpoint test just guards the serving path.)
// identity is the health callback a node passes: who it is and how far
// it has committed.
func identity(protocol string, id int, lastSeq uint64) func() Health {
	return func() Health {
		return Health{Protocol: protocol, Node: id, N: 4, F: 1, LastCommitSeq: lastSeq}
	}
}

var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9]+(\.[0-9]+)?$`)

func TestMetricsEndpointServesParseableProm(t *testing.T) {
	srv := httptest.NewServer(Mux(identity("pbft", 0, 0), time.Now(), liveTracer(), nil))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q, want text/plain exposition format", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)

	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") || strings.HasPrefix(line, "# HELP ") || promLine.MatchString(line) {
			continue
		}
		t.Fatalf("unparseable exposition line: %q", line)
	}
	// The live commit-latency histogram: the slot committed 4ms after its
	// first ordering touch, so the 4095µs bucket holds it.
	for _, want := range []string{
		"# HELP bftkit_slot_latency_microseconds ",
		"# TYPE bftkit_slot_latency_microseconds histogram",
		"bftkit_slot_latency_microseconds_count 1",
		"bftkit_slot_latency_microseconds_sum 4000",
		`bftkit_slot_latency_microseconds_bucket{le="4095"} 1`,
		`bftkit_phase_msgs_sent_total{node="r0",phase="pre-prepare"} 1`,
		`bftkit_phase_sign_total{node="r0",phase="pre-prepare"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics output missing %q in:\n%s", want, body)
		}
	}
}

func TestHealthzReportsNodeIdentity(t *testing.T) {
	start := time.Now().Add(-3 * time.Second)
	srv := httptest.NewServer(Mux(identity("hotstuff", 2, 17), start, nil, nil))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatalf("healthz is not JSON: %v", err)
	}
	if h.Status != "ok" || h.Protocol != "hotstuff" || h.Node != 2 || h.N != 4 || h.F != 1 {
		t.Fatalf("healthz = %+v", h)
	}
	if h.LastCommitSeq != 17 {
		t.Fatalf("last_commit_seq = %d, want 17", h.LastCommitSeq)
	}
	// The staleness triple: process start, the server's own clock at
	// response time, and monotonic uptime. A scraper dates samples by
	// these, so all three must be present and consistent.
	if !h.StartTime.Equal(start.Truncate(0)) && h.StartTime.Unix() != start.Unix() {
		t.Fatalf("start_time = %v, want %v", h.StartTime, start)
	}
	if h.ServerTime.IsZero() || h.ServerTime.Before(h.StartTime) {
		t.Fatalf("server_time = %v not after start_time %v", h.ServerTime, h.StartTime)
	}
	if h.UptimeSeconds < 3 {
		t.Fatalf("uptime_seconds = %v, want >= 3", h.UptimeSeconds)
	}
}

func TestForensicsEndpointServesVerdict(t *testing.T) {
	// With an auditor attached the endpoint serves the live verdict...
	aud := forensics.New(forensics.Options{N: 4, F: 1,
		Keys: crypto.NewAuthority(1).KeyRing(4)})
	report := func() *forensics.Report { return aud.Report(time.Second) }
	srv := httptest.NewServer(Mux(identity("pbft", 0, 0), time.Now(), nil, report))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/forensics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /forensics: %s", resp.Status)
	}
	var rep forensics.Report
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatalf("forensics verdict is not JSON: %v", err)
	}
	if rep.N != 4 || rep.F != 1 || len(rep.Scores) != 4 {
		t.Fatalf("verdict = %+v", rep)
	}

	// ...and without one, the route explains itself rather than 200-ing
	// an empty verdict a dashboard would mistake for a clean bill.
	bare := httptest.NewServer(Mux(identity("pbft", 0, 0), time.Now(), nil, nil))
	defer bare.Close()
	resp2, err := http.Get(bare.URL + "/forensics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("disabled /forensics: %s, want 404", resp2.Status)
	}
}

func TestPprofIndexIsMounted(t *testing.T) {
	srv := httptest.NewServer(Mux(identity("pbft", 0, 0), time.Now(), nil, nil))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/pprof/: %s", resp.Status)
	}
	raw, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(raw), "goroutine") {
		t.Fatal("pprof index does not list profiles")
	}
}
