package perf

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"

	"bftkit/internal/harness"
	"bftkit/internal/obsv"
	"bftkit/internal/types"

	// Register every protocol: DefaultMatrix derives cells from the
	// registry.
	_ "bftkit/internal/protocols/chainrepl"
	_ "bftkit/internal/protocols/cheapbft"
	_ "bftkit/internal/protocols/fab"
	_ "bftkit/internal/protocols/hotstuff"
	_ "bftkit/internal/protocols/kauri"
	_ "bftkit/internal/protocols/pbft"
	_ "bftkit/internal/protocols/poe"
	_ "bftkit/internal/protocols/prime"
	_ "bftkit/internal/protocols/qu"
	_ "bftkit/internal/protocols/raftlite"
	_ "bftkit/internal/protocols/sbft"
	_ "bftkit/internal/protocols/tendermint"
	_ "bftkit/internal/protocols/themis"
	_ "bftkit/internal/protocols/zyzzyva"
)

// RunOptions configures a snapshot run.
type RunOptions struct {
	// Matrix is the cell list (default DefaultMatrix()).
	Matrix []Cell
	// Repeats is how many times each cell runs on the host (default 3).
	// Virtual metrics must agree bit-for-bit across repeats; the
	// allocation counts take the median.
	Repeats int
	// Wrap, when set, adjusts each cell's harness options before the
	// cluster is built. Tests use it to inject a Byzantine delay replica
	// and prove the comparator notices.
	Wrap func(Cell, *harness.Options)
	// Logf reports per-cell progress (nil = silent).
	Logf func(format string, args ...any)
}

// Take runs the matrix and assembles a snapshot. It errors if any cell's
// virtual metrics differ between repeats (the simulator guarantees they
// cannot, so a mismatch means nondeterminism crept into the code under
// test) or if a cell's safety audit fails.
func Take(opts RunOptions) (*Snapshot, error) {
	if opts.Matrix == nil {
		opts.Matrix = DefaultMatrix()
	}
	if opts.Repeats <= 0 {
		opts.Repeats = 3
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	snap := &Snapshot{
		Schema:    SchemaVersion,
		GitRev:    gitRev(),
		Date:      time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		Repeats:   opts.Repeats,
	}
	for _, cell := range opts.Matrix {
		var virt Virtual
		samples := make([]Host, 0, opts.Repeats)
		for r := 0; r < opts.Repeats; r++ {
			v, s, err := MeasureCell(cell, opts.Wrap)
			if err != nil {
				return nil, fmt.Errorf("perf: cell %s: %w", cell.ID(), err)
			}
			if r == 0 {
				virt = v
			} else if v != virt {
				return nil, fmt.Errorf("perf: cell %s: virtual metrics differ between repeats %d and %d — the run is nondeterministic:\n  first: %+v\n  now:   %+v",
					cell.ID(), 1, r+1, virt, v)
			}
			samples = append(samples, s)
		}
		snap.Cells = append(snap.Cells, CellResult{
			ID:      cell.ID(),
			Cell:    cell,
			Virtual: virt,
			Host:    medianHost(samples),
		})
		logf("perf: %-40s %8.0f req/s  p99 %6dµs  %6.1f msgs/txn  %8d allocs",
			cell.ID(), virt.ThroughputRPS, virt.P99US, virt.MsgsPerTxn,
			snap.Cells[len(snap.Cells)-1].Host.Allocs)
	}
	return snap, nil
}

// MeasureCell runs one cell once, returning its virtual metrics and the
// allocations of that run. wrap may be nil.
func MeasureCell(cell Cell, wrap func(Cell, *harness.Options)) (Virtual, Host, error) {
	net, err := netConfig(cell.Net)
	if err != nil {
		return Virtual{}, Host{}, err
	}
	nextOp, err := workloadFor(cell)
	if err != nil {
		return Virtual{}, Host{}, err
	}

	// The allocation count brackets the whole cell — cluster
	// construction included, since allocation behavior there is part of
	// the cost a change may move. A GC fence keeps the previous cell's
	// garbage out of this cell's alloc delta.
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)

	tr := obsv.New(obsv.Options{}) // counters only: no event log on the hot path
	hopts := harness.Options{
		Protocol: cell.Protocol, N: cell.N, Clients: cell.Clients,
		Net: net, Seed: cell.Seed, Tune: tuneFor(cell), Trace: tr,
	}
	if wrap != nil {
		wrap(cell, &hopts)
	}
	c := harness.NewCluster(hopts)
	c.Start()
	start := c.Sched.Now()
	lastDone := start
	c.ClosedLoop(cell.PerClient, nextOp)
	c.AddDoneObserver(func(at time.Duration) {
		if at > lastDone {
			lastDone = at
		}
	})
	expected := cell.Clients * cell.PerClient
	var crashed []types.NodeID
	limit := 600 * time.Second
	if cell.Workload == "leader-crash" {
		// Some slots have committed under view 0 and some are in flight
		// when the leader crashes. Draining to idle lets the view change,
		// the τ2 re-fires and recovery run out, so end_state pins where
		// the protocol settles, not a snapshot mid-recovery.
		limit = 20 * time.Second
		c.Run(20 * time.Millisecond)
		c.Crash(0)
		crashed = append(crashed, 0)
		c.RunUntilIdle(limit)
	} else {
		// Advance in fixed virtual-time steps until the workload
		// completes rather than draining to idle: protocols with
		// long-tail timers (speculative clients arming commit
		// certificates, pacemakers) would otherwise burn host time
		// simulating an empty tail that no metric reads. Fixed step
		// boundaries keep the stop point deterministic.
		const step = 50 * time.Millisecond
		for c.Metrics.Completed < expected && c.Sched.Now() < limit {
			c.Run(step)
		}
	}
	if c.Metrics.Completed < expected {
		return Virtual{}, Host{}, fmt.Errorf("stalled: %d/%d requests completed within %v of virtual time",
			c.Metrics.Completed, expected, limit)
	}

	runtime.ReadMemStats(&m1)

	if err := c.Audit(crashed...); err != nil {
		return Virtual{}, Host{}, err
	}
	m := c.Metrics
	virt := Virtual{
		Completed: m.Completed,
		ElapsedUS: int64((lastDone - start) / time.Microsecond),
		P50US:     int64(m.LatencyPercentile(50) / time.Microsecond),
		P95US:     int64(m.LatencyPercentile(95) / time.Microsecond),
		P99US:     int64(m.LatencyPercentile(99) / time.Microsecond),
	}
	virt.ThroughputRPS = m.Throughput(lastDone)
	totals := tr.Totals()
	virt.Msgs = totals.MsgsSent
	virt.WireBytes = totals.BytesSent
	virt.SigOps = totals.Sign + totals.Verify
	virt.MACOps = totals.MACSign + totals.MACVerify
	for id := range m.ViewChanges {
		virt.ViewChanges += len(m.ViewChanges[id])
	}
	if virt.Completed > 0 {
		n := float64(virt.Completed)
		virt.MsgsPerTxn = float64(virt.Msgs) / n
		virt.BytesPerTxn = float64(virt.WireBytes) / n
		virt.SigOpsPerTxn = float64(virt.SigOps) / n
		virt.MACOpsPerTxn = float64(virt.MACOps) / n
	}
	virt.EndState = endState(c)
	host := Host{
		Allocs:     int64(m1.Mallocs - m0.Mallocs),
		AllocBytes: int64(m1.TotalAlloc - m0.TotalAlloc),
	}
	return virt, host, nil
}

// endState fingerprints where a run ended: SHA-256 over each replica, in
// ID order, of the last view it changed to, its last executed sequence
// number and its application state hash, then the run's VIEW-CHANGE and
// NEW-VIEW send counts. Every integer is 8 bytes, big-endian.
func endState(c *harness.Cluster) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.BigEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for i, r := range c.Replicas {
		var view types.View
		if vs := c.Metrics.ViewChanges[r.ID()]; len(vs) > 0 {
			view = vs[len(vs)-1]
		}
		put(uint64(view))
		put(uint64(r.Ledger().LastExecuted()))
		app := c.Apps[i].Hash()
		h.Write(app[:])
	}
	var viewChanges, newViews int64
	counts, _ := c.Net.KindCounts()
	for kind, n := range counts {
		switch {
		case strings.Contains(kind, "VIEW-CHANGE"):
			viewChanges += n
		case strings.Contains(kind, "NEW-VIEW"):
			newViews += n
		}
	}
	put(uint64(viewChanges))
	put(uint64(newViews))
	return hex.EncodeToString(h.Sum(nil))
}

// medianHost reduces repeat samples to their per-field medians. Fields
// are reduced independently: the median alloc count and the median
// alloc bytes may come from different repeats.
func medianHost(samples []Host) Host {
	med := func(get func(Host) int64) int64 {
		vals := make([]int64, len(samples))
		for i, s := range samples {
			vals[i] = get(s)
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		return vals[len(vals)/2]
	}
	return Host{
		Allocs:     med(func(h Host) int64 { return h.Allocs }),
		AllocBytes: med(func(h Host) int64 { return h.AllocBytes }),
	}
}

// gitRev resolves the current commit for the snapshot header; snapshots
// taken outside a git checkout record "unknown".
func gitRev() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
