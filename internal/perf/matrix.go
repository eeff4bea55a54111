package perf

import (
	"fmt"
	"time"

	"bftkit/internal/core"
	"bftkit/internal/harness"
	"bftkit/internal/kvstore"
	"bftkit/internal/sim"
)

// Cell is one point of the benchmark matrix: a protocol at a cluster
// size, on a network model, under a workload. Cells are fully specified
// (including the seed) so a snapshot pins everything needed to re-run
// them bit-for-bit.
type Cell struct {
	Protocol  string `json:"protocol"`
	N         int    `json:"n"`
	Clients   int    `json:"clients"`
	PerClient int    `json:"per_client"`
	// Net names the network model: "lan" (1ms) or "wan" (50ms). WAN
	// cells tune timers up (X2-style) so view changes stay out of the
	// good case.
	Net string `json:"net"`
	// Workload names the client arrival/key pattern and the fault:
	// "closed" (uniform keys, one outstanding request per client), "zipf"
	// (closed loop over a contended Zipfian keyspace) or "leader-crash"
	// (closed loop, the view-0 leader crashed 20 ms in, then drained to
	// idle).
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
}

// ID is the cell's stable name — the key the comparator, the allowlist,
// and the delta table all use. The seed is named only when it is not 1,
// so cells that differ by seed alone stay distinct and no seed-1 ID
// moves.
func (c Cell) ID() string {
	id := fmt.Sprintf("%s/n=%d/c=%dx%d/%s/%s", c.Protocol, c.N, c.Clients, c.PerClient, c.Net, c.Workload)
	if c.Seed != 1 {
		id += fmt.Sprintf("/seed=%d", c.Seed)
	}
	return id
}

// DefaultMatrix is the trajectory matrix, derived from the registry so
// that no registration goes ungated. It is three parts:
//
//   - ten curated cells that cover the design-space corners the paper
//     cares about — a three-phase classic (PBFT) at two cluster sizes and
//     two network models, a chained/pipelined protocol (HotStuff), a
//     speculative single-phase path (Zyzzyva), a fast-path/slow-path
//     hybrid (SBFT), a Δ-waiting protocol (Tendermint), and one
//     contended-workload cell;
//   - a LAN 2×50 closed-loop cell at the profile's minimum n for f = 1
//     for every registration the curated cells leave without one;
//   - a leader-crash cell (2×30, the view-0 leader crashed 20 ms in) for
//     every registration at seeds 1, 2 and 3: the view change, the τ2
//     timers and recovery, where the protocols differ most.
//
// Changing the matrix invalidates baselines, so additions should come
// with a regenerated BENCH_baseline.json.
func DefaultMatrix() []Cell {
	lan := func(proto string, n int) Cell {
		return Cell{Protocol: proto, N: n, Clients: 2, PerClient: 50, Net: "lan", Workload: "closed", Seed: 1}
	}
	cells := []Cell{
		lan("pbft", 4),
		lan("pbft", 7),
		{Protocol: "pbft", N: 4, Clients: 2, PerClient: 50, Net: "wan", Workload: "closed", Seed: 1},
		{Protocol: "pbft", N: 4, Clients: 2, PerClient: 50, Net: "lan", Workload: "zipf", Seed: 1},
		lan("pbft-mac", 4),
		lan("hotstuff", 4),
		{Protocol: "hotstuff", N: 4, Clients: 2, PerClient: 50, Net: "wan", Workload: "closed", Seed: 1},
		lan("zyzzyva", 4),
		lan("sbft", 4),
		lan("tendermint", 4),
	}
	covered := make(map[string]bool)
	for _, c := range cells {
		if c.Net == "lan" && c.Workload == "closed" {
			covered[c.Protocol] = true
		}
	}
	names := core.Names()
	for _, name := range names {
		if !covered[name] {
			cells = append(cells, lan(name, minReplicas(name)))
		}
	}
	for _, name := range names {
		for seed := int64(1); seed <= 3; seed++ {
			cells = append(cells, Cell{Protocol: name, N: minReplicas(name), Clients: 2, PerClient: 30,
				Net: "lan", Workload: "leader-crash", Seed: seed})
		}
	}
	return cells
}

// minReplicas is the registration's minimum deployment size for f = 1.
func minReplicas(name string) int {
	reg, _ := core.Lookup(name)
	return reg.Profile.MinReplicas(1)
}

// netConfig resolves a cell's network name.
func netConfig(name string) (sim.NetConfig, error) {
	switch name {
	case "lan":
		return sim.DefaultLAN(), nil
	case "wan":
		return sim.DefaultWAN(), nil
	}
	return sim.NetConfig{}, fmt.Errorf("perf: unknown net %q (want lan or wan)", name)
}

// tuneFor returns the per-cell config adjustment. WAN cells push the
// failure timers out (as experiment X2 does) so a 50ms-delay good case
// is measured without view-change noise.
func tuneFor(cell Cell) func(*core.Config) {
	if cell.Net != "wan" {
		return nil
	}
	return func(cfg *core.Config) {
		cfg.Delta = 200 * time.Millisecond
		cfg.ViewChangeTimeout = 4 * time.Second
		cfg.RequestTimeout = 8 * time.Second
	}
}

// workloadFor returns the per-request op generator for a cell.
func workloadFor(cell Cell) (func(client, k int) []byte, error) {
	switch cell.Workload {
	case "closed":
		return func(client, k int) []byte {
			return kvstore.Put(fmt.Sprintf("c%d-k%d", client, k), []byte(fmt.Sprintf("v%d", k)))
		}, nil
	case "zipf":
		return harness.ZipfOps(cell.Seed, 64, []byte("zv")), nil
	case "leader-crash":
		return func(client, k int) []byte {
			return kvstore.Put(fmt.Sprintf("c%d-k%d", client, k), []byte("v"))
		}, nil
	}
	return nil, fmt.Errorf("perf: unknown workload %q (want closed, zipf or leader-crash)", cell.Workload)
}
