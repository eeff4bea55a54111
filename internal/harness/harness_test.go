package harness

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"bftkit/internal/forensics"
	"bftkit/internal/kvstore"
	_ "bftkit/internal/protocols/pbft" // registers the protocol the cluster tests use
	"bftkit/internal/types"
)

func rec(seq types.SeqNum, tag byte) ExecRecord {
	return ExecRecord{Seq: seq, Digest: types.DigestBytes([]byte{tag})}
}

func TestAuditDetectsDivergence(t *testing.T) {
	m := NewMetrics()
	m.execOrder[0] = []ExecRecord{rec(1, 'a'), rec(2, 'b')}
	m.execOrder[1] = []ExecRecord{rec(1, 'a'), rec(2, 'b')}
	m.execOrder[2] = []ExecRecord{rec(1, 'a'), rec(2, 'X')} // diverges
	all := func(types.NodeID) bool { return true }
	if err := m.AuditSafety(all); err == nil {
		t.Fatal("divergence not detected")
	}
	// Excluding the divergent replica clears the audit.
	honest := func(id types.NodeID) bool { return id != 2 }
	if err := m.AuditSafety(honest); err != nil {
		t.Fatalf("audit of honest subset failed: %v", err)
	}
}

func TestAuditAcceptsPrefixes(t *testing.T) {
	m := NewMetrics()
	m.execOrder[0] = []ExecRecord{rec(1, 'a'), rec(2, 'b'), rec(3, 'c')}
	m.execOrder[1] = []ExecRecord{rec(1, 'a')} // lagging is fine
	if err := m.AuditSafety(func(types.NodeID) bool { return true }); err != nil {
		t.Fatalf("prefix divergence false positive: %v", err)
	}
}

func TestAuditSurfacesViolations(t *testing.T) {
	m := NewMetrics()
	m.OnViolation(1, errTest)
	if err := m.AuditSafety(func(types.NodeID) bool { return true }); err == nil {
		t.Fatal("runtime violation not surfaced by the audit")
	}
}

var errTest = &auditErr{}

type auditErr struct{}

func (*auditErr) Error() string { return "test violation" }

func TestLatencyPercentiles(t *testing.T) {
	m := NewMetrics()
	for i := 1; i <= 100; i++ {
		m.Latencies = append(m.Latencies, time.Duration(i)*time.Millisecond)
	}
	if p := m.LatencyPercentile(50); p < 49*time.Millisecond || p > 52*time.Millisecond {
		t.Fatalf("p50 = %v", p)
	}
	if p := m.LatencyPercentile(99); p < 98*time.Millisecond {
		t.Fatalf("p99 = %v", p)
	}
	if mean := m.MeanLatency(); mean != 50500*time.Microsecond {
		t.Fatalf("mean = %v", mean)
	}
	empty := NewMetrics()
	if empty.LatencyPercentile(50) != 0 || empty.MeanLatency() != 0 {
		t.Fatal("empty metrics must not panic or fabricate values")
	}
}

func TestFairnessViolationCounting(t *testing.T) {
	m := NewMetrics()
	k := func(i uint64) types.RequestKey {
		return types.RequestKey{Client: types.ClientIDBase, ClientSeq: i}
	}
	// Arrival order 1,2,3 (10ms apart); commit order 2,1,3.
	m.arrival[k(1)] = 0
	m.arrival[k(2)] = int64(10 * time.Millisecond)
	m.arrival[k(3)] = int64(20 * time.Millisecond)
	m.CommitOrder = []types.RequestKey{k(2), k(1), k(3)}
	v, pairs := m.FairnessViolations(time.Millisecond)
	if pairs != 3 {
		t.Fatalf("pairs = %d, want 3", pairs)
	}
	if v != 1 { // only (1,2) inverted
		t.Fatalf("violations = %d, want 1", v)
	}
	// With a margin wider than the arrival gaps, no pair is measurable.
	if _, pairs := m.FairnessViolations(time.Second); pairs != 0 {
		t.Fatalf("margin not honored: %d pairs", pairs)
	}
}

func TestThroughputWindow(t *testing.T) {
	m := NewMetrics()
	m.MeasureFrom = time.Second
	k := func(i uint64) *types.Request {
		return &types.Request{Client: types.ClientIDBase, ClientSeq: i}
	}
	// One warmup completion before MeasureFrom, three measured after.
	m.onSubmit(k(1), 0)
	m.OnDone(0, k(1), nil, 500*time.Millisecond)
	for i := uint64(2); i <= 4; i++ {
		m.onSubmit(k(i), time.Second)
		m.OnDone(0, k(i), nil, time.Second+time.Duration(i)*time.Millisecond)
	}
	if tput := m.Throughput(2 * time.Second); tput != 3 {
		t.Fatalf("throughput = %v, want 3 req/s over a 1s window", tput)
	}
	if tput := m.Throughput(time.Second); tput != 0 {
		t.Fatalf("empty window throughput = %v", tput)
	}
	// Warmup completions show in Completed but not in the window.
	if m.Completed != 4 || m.Measured != 3 || len(m.Latencies) != 3 {
		t.Fatalf("completed=%d measured=%d latencies=%d, want 4/3/3",
			m.Completed, m.Measured, len(m.Latencies))
	}
}

func TestLatencyPercentileNearestRank(t *testing.T) {
	m := NewMetrics()
	for i := 1; i <= 100; i++ {
		m.Latencies = append(m.Latencies, time.Duration(i)*time.Millisecond)
	}
	// Nearest-rank over 100 samples: p50 → rank 50 (index 50 of 0..99),
	// p99 → index 98, p100 → the max. A truncating index would answer
	// 98ms for p99 only by luck and 99ms for p100 — pin the exact values.
	if p := m.LatencyPercentile(50); p != 50*time.Millisecond {
		t.Fatalf("p50 = %v, want 50ms", p)
	}
	if p := m.LatencyPercentile(99); p != 99*time.Millisecond {
		t.Fatalf("p99 = %v, want 99ms", p)
	}
	if p := m.LatencyPercentile(100); p != 100*time.Millisecond {
		t.Fatalf("p100 = %v, want 100ms", p)
	}
	if p := m.LatencyPercentile(0); p != time.Millisecond {
		t.Fatalf("p0 = %v, want 1ms", p)
	}
}

func TestFairnessMatchesBruteForce(t *testing.T) {
	// The Fenwick-tree sweep must agree with the definitional all-pairs
	// count on an adversarial mix of ties, inversions, and margins.
	m := NewMetrics()
	k := func(i uint64) types.RequestKey {
		return types.RequestKey{Client: types.ClientIDBase, ClientSeq: i}
	}
	const n = 200
	rng := func(seed *uint64) uint64 { *seed = *seed*6364136223846793005 + 1; return *seed >> 33 }
	seed := uint64(42)
	for i := uint64(1); i <= n; i++ {
		m.arrival[k(i)] = int64(rng(&seed)%50) * int64(time.Millisecond) // many ties
		m.CommitOrder = append(m.CommitOrder, k(i))
	}
	// Shuffle the commit order deterministically.
	for i := n - 1; i > 0; i-- {
		j := rng(&seed) % uint64(i+1)
		m.CommitOrder[i], m.CommitOrder[j] = m.CommitOrder[j], m.CommitOrder[i]
	}
	brute := func(margin time.Duration) (violations, pairs int) {
		pos := make(map[types.RequestKey]int)
		for i, key := range m.CommitOrder {
			pos[key] = i
		}
		keys := make([]types.RequestKey, 0, len(pos))
		for key := range pos {
			keys = append(keys, key)
		}
		sort.Slice(keys, func(i, j int) bool {
			if ai, aj := m.arrival[keys[i]], m.arrival[keys[j]]; ai != aj {
				return ai < aj
			}
			if keys[i].Client != keys[j].Client {
				return keys[i].Client < keys[j].Client
			}
			return keys[i].ClientSeq < keys[j].ClientSeq
		})
		for i := 0; i < len(keys); i++ {
			for j := i + 1; j < len(keys); j++ {
				if m.arrival[keys[j]]-m.arrival[keys[i]] < int64(margin) {
					continue
				}
				pairs++
				if pos[keys[i]] > pos[keys[j]] {
					violations++
				}
			}
		}
		return violations, pairs
	}
	for _, margin := range []time.Duration{0, time.Millisecond, 7 * time.Millisecond, 100 * time.Millisecond} {
		wantV, wantP := brute(margin)
		gotV, gotP := m.FairnessViolations(margin)
		if gotV != wantV || gotP != wantP {
			t.Fatalf("margin %v: got (%d,%d), brute force (%d,%d)", margin, gotV, gotP, wantV, wantP)
		}
	}
}

func TestClusterSizing(t *testing.T) {
	// F-only sizing derives the minimum n from the profile.
	c := NewCluster(Options{Protocol: "pbft", F: 2})
	if c.Cfg.N != 7 || c.Cfg.F != 2 {
		t.Fatalf("sizing n=%d f=%d", c.Cfg.N, c.Cfg.F)
	}
	// N-only sizing derives the largest tolerable f.
	c = NewCluster(Options{Protocol: "pbft", N: 10})
	if c.Cfg.F != 3 {
		t.Fatalf("derived f=%d for n=10", c.Cfg.F)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("undersized cluster accepted")
		}
	}()
	NewCluster(Options{Protocol: "pbft", N: 4, F: 2})
}

func TestDeterministicClusters(t *testing.T) {
	run := func() (int, time.Duration) {
		c := NewCluster(Options{Protocol: "pbft", N: 4, Clients: 2, Seed: 77})
		c.Start()
		c.ClosedLoop(10, func(cl, k int) []byte {
			return []byte{0} // an (invalid) op still exercises the path deterministically
		})
		c.RunUntilIdle(30 * time.Second)
		return c.Metrics.Completed, c.Sched.Now()
	}
	c1, t1 := run()
	c2, t2 := run()
	if c1 != c2 || t1 != t2 {
		t.Fatalf("same seed diverged: (%d,%v) vs (%d,%v)", c1, t1, c2, t2)
	}
}

func TestForensicsCleanOnHonestRun(t *testing.T) {
	// Enabling the auditor must be a pure observer: the honest cluster
	// completes its workload as usual and the forensic verdict is clean.
	// Under pbft-mac the replies carry MACs, which NewAuditor's auditor
	// must not read as forged signatures.
	for _, proto := range []string{"pbft", "pbft-mac"} {
		c := NewCluster(Options{
			Protocol: proto, N: 4, Clients: 2, Seed: 7,
			Forensics: &forensics.Options{},
		})
		c.Start()
		c.ClosedLoop(10, func(cl, k int) []byte {
			return kvstore.Put(fmt.Sprintf("c%d-k%d", cl, k), []byte("v"))
		})
		c.RunUntilIdle(30 * time.Second)
		if c.Metrics.Completed == 0 {
			t.Fatalf("%s: workload did not complete", proto)
		}
		rep := c.Forensics.Report(c.Sched.Now())
		if !rep.Clean() {
			t.Fatalf("%s: honest run not clean: proofs=%v accused=%v", proto, rep.Proofs, rep.Accused)
		}
		if len(rep.Scores) != 4 {
			t.Fatalf("%s: expected a score per replica, got %d", proto, len(rep.Scores))
		}
	}
}

func TestZipfOpsSkewAndDeterminism(t *testing.T) {
	gen1 := ZipfOps(5, 100, []byte("v"))
	gen2 := ZipfOps(5, 100, []byte("v"))
	counts := map[string]int{}
	for i := 0; i < 1000; i++ {
		a := gen1(0, i)
		b := gen2(0, i)
		if string(a) != string(b) {
			t.Fatal("same seed produced different workloads")
		}
		counts[string(a)]++
	}
	// Zipf: the most popular key dominates.
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if max < 150 {
		t.Fatalf("hottest key hit %d of 1000; not Zipf-shaped", max)
	}
}
