package ledger

import (
	"testing"

	"bftkit/internal/types"
)

func req(seq uint64) *types.Request {
	return &types.Request{Client: types.ClientIDBase, ClientSeq: seq, Op: []byte{byte(seq)}}
}

func entry(seq types.SeqNum) *Entry {
	return &Entry{Seq: seq, Batch: types.NewBatch(req(uint64(seq)))}
}

func TestCommitAndExecuteInOrder(t *testing.T) {
	l := New()
	// Out-of-order commits park until the gap fills.
	if fresh, err := l.Commit(entry(2)); err != nil || !fresh {
		t.Fatalf("commit 2: %v %v", fresh, err)
	}
	if l.NextExecutable() != nil {
		t.Fatal("seq 2 must not be executable before seq 1")
	}
	if _, err := l.Commit(entry(1)); err != nil {
		t.Fatal(err)
	}
	if e := l.NextExecutable(); e == nil || e.Seq != 1 {
		t.Fatal("seq 1 must be executable")
	}
	if err := l.MarkExecuted(1); err != nil {
		t.Fatal(err)
	}
	if e := l.NextExecutable(); e == nil || e.Seq != 2 {
		t.Fatal("seq 2 must follow")
	}
	if err := l.MarkExecuted(3); err == nil {
		t.Fatal("out-of-order execution accepted")
	}
}

func TestDuplicateAndConflictingCommits(t *testing.T) {
	l := New()
	e := entry(1)
	if fresh, _ := l.Commit(e); !fresh {
		t.Fatal("first commit must be fresh")
	}
	if fresh, err := l.Commit(e); fresh || err != nil {
		t.Fatal("identical recommit must be a silent no-op")
	}
	conflicting := &Entry{Seq: 1, Batch: types.NewBatch(req(99))}
	if _, err := l.Commit(conflicting); err == nil {
		t.Fatal("conflicting commit must be detected — this is the safety tripwire")
	}
}

func TestCheckpointGC(t *testing.T) {
	l := New()
	for s := types.SeqNum(1); s <= 10; s++ {
		l.Commit(entry(s))
		l.MarkExecuted(s)
	}
	collected := l.SetStable(&Checkpoint{Seq: 5})
	if collected != 5 {
		t.Fatalf("collected %d entries, want 5", collected)
	}
	if l.LowWater() != 5 {
		t.Fatalf("low water %d", l.LowWater())
	}
	// Commits at or below the low-water mark are silently dropped.
	if fresh, err := l.Commit(entry(3)); fresh || err != nil {
		t.Fatal("stale commit must be dropped")
	}
	// A stale checkpoint must not regress the mark.
	if l.SetStable(&Checkpoint{Seq: 2}) != 0 {
		t.Fatal("stale checkpoint collected entries")
	}
}

func TestFastforward(t *testing.T) {
	l := New()
	l.Commit(entry(1))
	l.MarkExecuted(1)
	l.Commit(entry(9))
	l.Fastforward(8)
	if l.LastExecuted() != 8 || l.LowWater() != 8 {
		t.Fatalf("cursors %d/%d", l.LastExecuted(), l.LowWater())
	}
	if e := l.NextExecutable(); e == nil || e.Seq != 9 {
		t.Fatal("retained entry above the snapshot must stay executable")
	}
	// Fastforward never goes backwards.
	l.Fastforward(3)
	if l.LastExecuted() != 8 {
		t.Fatal("fastforward regressed")
	}
}

func TestCommittedAboveSorted(t *testing.T) {
	l := New()
	for _, s := range []types.SeqNum{5, 2, 9, 3} {
		l.Commit(entry(s))
	}
	got := l.CommittedAbove(2)
	want := []types.SeqNum{3, 5, 9}
	if len(got) != len(want) {
		t.Fatalf("got %d entries", len(got))
	}
	for i := range want {
		if got[i].Seq != want[i] {
			t.Fatalf("position %d: %d, want %d", i, got[i].Seq, want[i])
		}
	}
}

func TestOwnCheckpoints(t *testing.T) {
	l := New()
	l.AddOwnCheckpoint(&Checkpoint{Seq: 10})
	l.AddOwnCheckpoint(&Checkpoint{Seq: 20})
	if cp := l.LatestOwnCheckpoint(); cp == nil || cp.Seq != 20 {
		t.Fatal("latest checkpoint wrong")
	}
	if l.OwnCheckpoint(10) == nil {
		t.Fatal("lookup by seq failed")
	}
	l.SetStable(&Checkpoint{Seq: 20})
	if l.OwnCheckpoint(10) != nil {
		t.Fatal("stale own checkpoint survived GC")
	}
	if l.OwnCheckpoint(20) == nil {
		t.Fatal("the stable checkpoint itself must be retained")
	}
}
