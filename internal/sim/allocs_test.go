//go:build !race

package sim

import (
	"testing"
	"time"

	"bftkit/internal/types"
)

// TestAllocsSendDeliver: a delivery is a value in the scheduler's heap, so
// once the heap has grown, sending a Sizer message and delivering it
// allocates nothing (no tracer, no interceptor). Not under the race
// detector, which allocates on its own.
func TestAllocsSendDeliver(t *testing.T) {
	s := NewScheduler(1)
	n := NewNetwork(s, DefaultLAN())
	h := HandlerFunc(func(types.NodeID, types.Message) {})
	n.Register(0, h)
	n.Register(1, h)
	var m types.Message = &sizedMsg{}
	for i := 0; i < 64; i++ {
		n.Send(0, 1, m)
	}
	s.RunUntilIdle(time.Second)
	if got := testing.AllocsPerRun(1000, func() {
		n.Send(0, 1, m)
		s.Step()
	}); got != 0 {
		t.Fatalf("Send → Step allocates %v times per message, want 0", got)
	}
}
