//go:build !race

package harness

import (
	"testing"
	"time"

	"bftkit/internal/core"
)

// TestAllocsSetTimer: arming a replica timer on the simulator costs the
// runtime's callback closure and the driver's cancel func, nothing more —
// the event and its handle are values. Not under the race detector,
// which allocates on its own.
func TestAllocsSetTimer(t *testing.T) {
	c := NewCluster(Options{Protocol: "pbft", N: 4})
	r := c.Replicas[0]
	id := core.TimerID{Name: "alloc-probe"}
	for i := 0; i < 64; i++ {
		r.SetTimer(id, time.Hour)
	}
	if got := testing.AllocsPerRun(1000, func() { r.SetTimer(id, time.Hour) }); got > 2 {
		t.Fatalf("Replica.SetTimer allocates %v times per call, want at most 2", got)
	}
}
