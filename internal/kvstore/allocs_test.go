//go:build !race

package kvstore

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
)

// TestAllocsCheckpoint: what a checkpoint does to the store — hash it,
// freeze it — allocates the sorted key list and the frozen pairs, not the
// state. On 1 024 keys of 4 KiB (4 MiB) that is under 64 KiB; a copy of
// even the 64 values written since the last checkpoint would be 256 KiB.
// Not under the race detector, which allocates on its own.
func TestAllocsCheckpoint(t *testing.T) {
	s := New()
	for i := 0; i < 1024; i++ {
		s.Apply(Put(fmt.Sprintf("key-%04d", i), bytes.Repeat([]byte{byte(i)}, 4096)))
	}
	s.Hash()
	for i := 0; i < 64; i++ {
		s.Apply(Put(fmt.Sprintf("key-%04d", i*16), bytes.Repeat([]byte{byte(i + 1)}, 4096)))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	hash, frozen := s.Hash(), s.Freeze()
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 128<<10 {
		t.Fatalf("hash + freeze of a 4 MiB store after 64 writes allocated %d KiB, want under 128", got>>10)
	}
	r := New()
	if err := r.Restore(frozen()); err != nil || r.Hash() != hash {
		t.Fatalf("the checkpoint does not restore to its own hash (err %v)", err)
	}
}
