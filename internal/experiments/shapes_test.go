package experiments

import (
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
	"testing"
	"time"
)

// tableRows runs an experiment table and returns its data rows by first
// column: every line whose leading field is one of keys.
func tableRows(t *testing.T, table func(io.Writer), keys ...string) map[string][]string {
	t.Helper()
	var buf bytes.Buffer
	table(&buf)
	rows := make(map[string][]string)
	for _, line := range strings.Split(buf.String(), "\n") {
		f := strings.Fields(line)
		for _, k := range keys {
			if len(f) > 0 && f[0] == k {
				rows[k] = f
			}
		}
	}
	for _, k := range keys {
		if rows[k] == nil {
			t.Fatalf("no %q row in:\n%s", k, buf.String())
		}
	}
	return rows
}

func duration(t *testing.T, s string) time.Duration {
	t.Helper()
	d, err := time.ParseDuration(s)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestX6FaultCostsEveryOptimisticProtocol pins X6's shape: one faulty
// replica raises every optimistic protocol's mean latency above its
// fault-free mean.
func TestX6FaultCostsEveryOptimisticProtocol(t *testing.T) {
	protos := []string{"sbft", "zyzzyva", "poe", "cheapbft"}
	rows := tableRows(t, X6OptimisticFallback, protos...)
	for _, p := range protos {
		clean, faulty := duration(t, rows[p][1]), duration(t, rows[p][2])
		if faulty <= clean {
			t.Errorf("%s: mean with one fault %v not above fault-free %v", p, faulty, clean)
		}
	}
}

// TestX14DelayAttackShape pins X14's shape: PBFT suffers the sub-timeout
// delay with no view change, while Prime's monitor evicts the leader and
// keeps its median far below PBFT's.
func TestX14DelayAttackShape(t *testing.T) {
	rows := tableRows(t, X14RobustUnderAttack, "pbft", "prime")
	attack := duration(t, rows["pbft"][1])
	pbftP50, primeP50 := duration(t, rows["pbft"][2]), duration(t, rows["prime"][2])
	pbftVCs, err1 := strconv.Atoi(rows["pbft"][3])
	primeVCs, err2 := strconv.Atoi(rows["prime"][3])
	if err1 != nil || err2 != nil {
		t.Fatalf("unparsable view-change counts: %v %v", rows["pbft"], rows["prime"])
	}
	if pbftVCs != 0 || pbftP50 <= attack {
		t.Errorf("pbft: %d view changes, p50 %v; want 0 and above the %v attack", pbftVCs, pbftP50, attack)
	}
	if primeVCs < 1 || primeP50 >= pbftP50/5 {
		t.Errorf("prime: %d view changes, p50 %v; want ≥ 1 and below pbft's %v / 5", primeVCs, primeP50, pbftP50)
	}
}

// TestA3SilentLeaderReplaced pins A3's shape: every request completes,
// through at least one view change, although clients retransmit faster
// than the view-change timeout.
func TestA3SilentLeaderReplaced(t *testing.T) {
	var buf bytes.Buffer
	A3ProgressTimer(&buf)
	var completed, vcs int
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, "completed=") {
			if _, err := fmt.Sscanf(line, "completed=%d viewchanges=%d", &completed, &vcs); err != nil {
				t.Fatalf("unparsable line %q: %v", line, err)
			}
		}
	}
	if completed != 20 || vcs < 1 {
		t.Errorf("A3: completed=%d viewchanges=%d; want 20 and ≥ 1:\n%s", completed, vcs, buf.String())
	}
}
