package obsv

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"bftkit/internal/crypto"
	"bftkit/internal/types"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenTracer is a deterministic fixture: two replicas, one client,
// a three-phase slot with crypto ops and histogram samples.
func goldenTracer() *Tracer {
	tr := New(Options{Label: "golden", Events: true})
	// Pinned identity: a real deployment stamps wall-clock start and the
	// live toolchain; the fixture pins both so goldens never drift.
	tr.SetNodeInfo(NodeInfo{Node: 0, Protocol: "pbft", N: 4, F: 1,
		Start: time.Unix(1700000000, 0), GoVersion: "go-test"})
	client := types.NodeID(types.ClientIDBase)
	pp := &slottedMsg{fakeMsg{K: "PRE-PREPARE", View: 0, Seq: 1}}
	prep := &slottedMsg{fakeMsg{K: "PREPARE", View: 0, Seq: 1}}
	req := &keyedMsg{fakeMsg: fakeMsg{K: "REQUEST"}, Client: client, ClientSeq: 1}

	tr.Submit(0, client, types.RequestKey{Client: client, ClientSeq: 1})
	tr.MsgSent(0, client, 0, req, 64)
	tr.MsgDelivered(time.Millisecond, client, 0, req, 64)
	tr.MsgSent(time.Millisecond, 0, 1, pp, 128)
	tr.MsgDelivered(2*time.Millisecond, 0, 1, pp, 128)
	tr.CryptoOp(1, crypto.OpVerify)
	tr.MsgSent(2*time.Millisecond, 1, 0, prep, 96)
	tr.CryptoOp(1, crypto.OpSign)
	tr.MsgDelivered(3*time.Millisecond, 1, 0, prep, 96)
	tr.Commit(3*time.Millisecond, 0, 0, 1)
	tr.Execute(3*time.Millisecond, 0, 1)
	tr.Done(4*time.Millisecond, client, types.RequestKey{Client: client, ClientSeq: 1})
	tr.ObserveCommitLatency(4 * time.Millisecond)
	tr.ObserveQueueDepth(1)
	tr.ForensicsProof("equivocation")
	tr.SetSuspicion(1, 0.25)
	return tr
}

func TestGoldenCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenTracer().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "summary.csv", buf.Bytes())
}

func TestGoldenSummary(t *testing.T) {
	var buf bytes.Buffer
	goldenTracer().WriteSummary(&buf)
	checkGolden(t, "summary.txt", buf.Bytes())
}

func TestGoldenProm(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenTracer().WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "metrics.prom", buf.Bytes())
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("output diverges from %s (re-run with -update after verifying)\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}
