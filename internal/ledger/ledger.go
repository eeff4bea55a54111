// Package ledger maintains a replica's ordered history: committed batches
// with their commit proofs, the execution cursor, and quorum-certified
// checkpoints that garbage-collect the log and let trailing ("in-dark")
// replicas catch up via state transfer — dimension P4 of the paper.
package ledger

import (
	"errors"
	"fmt"
	"sort"

	"bftkit/internal/types"
)

// Entry is one committed slot in the history.
type Entry struct {
	Seq   types.SeqNum
	View  types.View
	Batch *types.Batch
	Proof *types.CommitProof
}

// Checkpoint certifies the state after executing everything up to Seq.
type Checkpoint struct {
	Seq       types.SeqNum
	StateHash types.Digest
	// Snapshot serialises the application state frozen at Seq; set only
	// on the replica's own checkpoints, and called only when one of them
	// is served to a state transfer.
	Snapshot func() []byte
	// Voters are the replicas whose matching checkpoint messages made
	// this checkpoint stable (2f+1 for the classic protocols).
	Voters []types.NodeID
}

// ErrGapCommit reports an attempt to commit below the low-water mark.
var ErrGapCommit = errors.New("ledger: commit at or below low-water mark")

// Ledger is one replica's log. It is not goroutine-safe; the replica
// runtime serializes access.
type Ledger struct {
	entries map[types.SeqNum]*Entry

	lowWater     types.SeqNum // everything <= lowWater is garbage-collected
	lastExecuted types.SeqNum

	checkpoints map[types.SeqNum]*Checkpoint
	stable      *Checkpoint
}

// New returns an empty ledger.
func New() *Ledger {
	return &Ledger{
		entries:     make(map[types.SeqNum]*Entry),
		checkpoints: make(map[types.SeqNum]*Checkpoint),
	}
}

// LowWater returns the garbage-collection horizon.
func (l *Ledger) LowWater() types.SeqNum { return l.lowWater }

// LastExecuted returns the highest executed sequence number.
func (l *Ledger) LastExecuted() types.SeqNum { return l.lastExecuted }

// Len returns the number of retained (non-GC'd) entries.
func (l *Ledger) Len() int { return len(l.entries) }

// Commit records a committed batch at seq. It returns true if the entry
// is new, false if the slot was already committed (duplicate commits with
// a different digest indicate a protocol safety bug and panic loudly —
// the harness's safety audits depend on this never happening silently).
func (l *Ledger) Commit(e *Entry) (bool, error) {
	if e.Seq <= l.lowWater {
		// Already covered by a stable checkpoint; drop silently, this
		// is normal for late commit messages.
		return false, nil
	}
	if prev, ok := l.entries[e.Seq]; ok {
		if prev.Batch.Digest() != e.Batch.Digest() {
			return false, fmt.Errorf("ledger: conflicting commit at seq %d: %v vs %v",
				e.Seq, prev.Batch.Digest(), e.Batch.Digest())
		}
		return false, nil
	}
	l.entries[e.Seq] = e
	return true, nil
}

// Get returns the entry at seq, or nil.
func (l *Ledger) Get(seq types.SeqNum) *Entry { return l.entries[seq] }

// NextExecutable returns the entry at lastExecuted+1 if it has been
// committed, nil otherwise. The runtime loops on it to execute in order.
func (l *Ledger) NextExecutable() *Entry { return l.entries[l.lastExecuted+1] }

// MarkExecuted advances the execution cursor; seq must be exactly
// lastExecuted+1.
func (l *Ledger) MarkExecuted(seq types.SeqNum) error {
	if seq != l.lastExecuted+1 {
		return fmt.Errorf("ledger: out-of-order execution: %d after %d", seq, l.lastExecuted)
	}
	l.lastExecuted = seq
	return nil
}

// Fastforward jumps the cursors to seq after installing a state-transfer
// snapshot; entries at or below seq are discarded.
func (l *Ledger) Fastforward(seq types.SeqNum) {
	if seq <= l.lastExecuted {
		return
	}
	l.lastExecuted = seq
	if seq > l.lowWater {
		l.lowWater = seq
	}
	for s := range l.entries {
		if s <= seq {
			delete(l.entries, s)
		}
	}
}

// AddOwnCheckpoint records this replica's checkpoint (with snapshot) at
// seq so it can later serve state transfer.
func (l *Ledger) AddOwnCheckpoint(cp *Checkpoint) { l.checkpoints[cp.Seq] = cp }

// OwnCheckpoint returns this replica's checkpoint at seq, or nil.
func (l *Ledger) OwnCheckpoint(seq types.SeqNum) *Checkpoint { return l.checkpoints[seq] }

// LatestOwnCheckpoint returns the highest checkpoint recorded locally.
func (l *Ledger) LatestOwnCheckpoint() *Checkpoint {
	var best *Checkpoint
	for _, cp := range l.checkpoints {
		if best == nil || cp.Seq > best.Seq {
			best = cp
		}
	}
	return best
}

// SetStable installs a stable checkpoint: the log below it is
// garbage-collected and the low-water mark advances. Returns the number
// of entries collected.
func (l *Ledger) SetStable(cp *Checkpoint) int {
	if l.stable != nil && cp.Seq <= l.stable.Seq {
		return 0
	}
	l.stable = cp
	if cp.Seq > l.lowWater {
		l.lowWater = cp.Seq
	}
	collected := 0
	for s := range l.entries {
		if s <= cp.Seq {
			delete(l.entries, s)
			collected++
		}
	}
	for s := range l.checkpoints {
		if s < cp.Seq {
			delete(l.checkpoints, s)
		}
	}
	return collected
}

// Stable returns the current stable checkpoint, or nil.
func (l *Ledger) Stable() *Checkpoint { return l.stable }

// CommittedAbove returns all retained entries with seq > from, ascending.
// View changes use it to carry forward undecided-but-committed slots.
func (l *Ledger) CommittedAbove(from types.SeqNum) []*Entry {
	var out []*Entry
	for s, e := range l.entries {
		if s > from {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}
