package pbft

import (
	"slices"

	"bftkit/internal/core"
)

// NewLinearized returns a PBFT replica whose two all-to-all stages are
// collector stages: every vote goes to the leader, which broadcasts the
// certificate — the shape core.Linearize gives PBFT's PhaseTopos (design
// choice 1).
func NewLinearized(core.Config) core.Protocol {
	linear := slices.Clone(stages)
	for i := range linear {
		linear[i].Collect = true
	}
	return &PBFT{stages: linear}
}
