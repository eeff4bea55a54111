package experiments

import (
	"bftkit/internal/byz"
	"bftkit/internal/core"
	"bftkit/internal/protocols/pbft"
	"bftkit/internal/types"
)

// silentLeader is a replica that drops its proposals: the faulty leader of
// X6's PoE row and of A3.
var silentLeader = byz.SilentPhases{Phases: []string{"propose"}}

// x6Faults breaks one replica in the way each optimistic protocol's
// assumption fears most (X6).
var x6Faults = map[string]map[types.NodeID]byz.Behavior{
	// A backup withholding its shares denies the all-n fast path.
	"sbft": {3: byz.SilentPhases{Phases: []string{"sign", "commit"}}},
	// A backup reporting wrong results denies the client 3f+1 matches.
	"zyzzyva": {3: byz.CorruptResults{}},
	// PoE only needs 2f+1 of 3f+1; a silent backup is absorbed. Break
	// the leader instead so the view-change path shows up.
	"poe": {0: silentLeader},
	// An active replica withholding its votes denies the active quorum.
	"cheapbft": {1: byz.SilentPhases{Phases: []string{"commit"}}},
}

// frontRunFactory equips the PBFT leader with the reordering adversary
// (X8); the fair protocols run unmodified.
func frontRunFactory(proto string) func(types.NodeID, core.Config) core.Protocol {
	if proto != "pbft" {
		return nil
	}
	return func(id types.NodeID, cfg core.Config) core.Protocol {
		if id == 0 {
			return pbft.NewWithOptions(cfg, pbft.Options{FrontRun: true})
		}
		return nil
	}
}
