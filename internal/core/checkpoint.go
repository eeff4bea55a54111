package core

import (
	"sort"

	"bftkit/internal/ledger"
	"bftkit/internal/types"
)

// CheckpointManager implements the paper's checkpointing stage (P4) as a
// reusable sub-protocol: periodically snapshot the application, exchange
// checkpoint messages, declare a checkpoint stable on 2f+1 matching
// votes, garbage-collect the log below it, and bring in-dark replicas up
// to date through state transfer. It is decentralized — no leader is
// involved — exactly as PBFT does it.
//
// Protocols embed a manager and delegate: call OnExecuted from their
// OnExecuted, and offer unrecognized messages to OnMessage (which reports
// whether it consumed them).
type CheckpointManager struct {
	env Env

	// votes tallies the claimed state hash per checkpoint.
	votes Tally[types.SeqNum, types.Digest]
	// expected remembers the hash of a stable checkpoint we are
	// fetching state for, so a malicious snapshot can be rejected.
	expected map[types.SeqNum]types.Digest
	fetching bool
	// fetchSeq/fetchTries drive fetch retries: the transport is lossy,
	// so a single FetchStateMsg (or its StateMsg response) can vanish in
	// reconnect churn. Every newer certified checkpoint re-requests,
	// rotating through the voters, until a snapshot lands — without
	// this an in-dark replica whose one fetch was dropped stays at its
	// boot state forever while the cluster commits past it.
	fetchSeq   types.SeqNum
	fetchTries int

	// StableCount counts checkpoints this replica has stabilized
	// (experiment X13 reads it).
	StableCount int

	// Fastforwarded, when set, is called after state transfer jumps the
	// ledger past slots this replica never saw (no OnExecuted fires for
	// them). Protocols whose progress variable is derived from executed
	// slots — tendermint's height — resync it here; without this a
	// caught-up replica keeps its stale height and becomes a proposer
	// that never proposes.
	Fastforwarded func(seq types.SeqNum)
}

// NewCheckpointManager returns a manager bound to env.
func NewCheckpointManager(env Env) *CheckpointManager {
	return &CheckpointManager{
		env:      env,
		votes:    NewTally[types.SeqNum, types.Digest](env.N()),
		expected: make(map[types.SeqNum]types.Digest),
	}
}

// Interval returns the configured checkpoint window (0 = disabled).
func (cm *CheckpointManager) Interval() uint64 { return cm.env.Config().CheckpointInterval }

// OnExecuted must be called after every executed slot. At each window
// boundary it hashes and freezes the application and broadcasts a
// checkpoint; the frozen state is serialised only if a peer fetches it.
func (cm *CheckpointManager) OnExecuted(seq types.SeqNum) {
	iv := cm.Interval()
	if iv == 0 || uint64(seq)%iv != 0 {
		return
	}
	hash := cm.env.App().Hash()
	cm.env.Ledger().AddOwnCheckpoint(&ledger.Checkpoint{
		Seq:       seq,
		StateHash: hash,
		Snapshot:  cm.env.App().Freeze(),
	})
	msg := &CheckpointMsg{Seq: seq, StateHash: hash, Replica: cm.env.ID()}
	msg.Sig = cm.env.Signer().Sign(msg.Digest())
	cm.recordVote(cm.env.ID(), seq, hash)
	cm.env.Broadcast(msg)
}

// OnMessage consumes checkpoint and state-transfer messages, returning
// true when the message was handled.
func (cm *CheckpointManager) OnMessage(from types.NodeID, m types.Message) bool {
	switch mm := m.(type) {
	case *CheckpointMsg:
		cm.onCheckpoint(from, mm)
		return true
	case *FetchStateMsg:
		cm.onFetch(from, mm)
		return true
	case *StateMsg:
		cm.onState(from, mm)
		return true
	}
	return false
}

func (cm *CheckpointManager) onCheckpoint(from types.NodeID, m *CheckpointMsg) {
	if m.Replica != from {
		return
	}
	if m.Seq <= cm.env.Ledger().LowWater() {
		return
	}
	if !cm.env.Verifier().VerifySig(from, m.Digest(), m.Sig) {
		return
	}
	cm.recordVote(from, m.Seq, m.StateHash)
}

// recordVote tallies a vote and acts once its hash holds a quorum. Only
// the hash just voted for can have gained a backer, so it is the only one
// checked — on every vote, not just the quorum-completing one: a replica
// that executes seq after the quorum formed stabilizes on its own vote.
func (cm *CheckpointManager) recordVote(from types.NodeID, seq types.SeqNum, hash types.Digest) {
	cm.votes.Add(seq, from, hash)
	voters := Backers(&cm.votes, seq, hash)
	if len(voters) < cm.env.Config().Quorum() {
		return
	}
	// Order the voters so downstream choices (fetch target, recorded
	// voter set) don't depend on arrival order.
	sort.Slice(voters, func(i, j int) bool { return voters[i] < voters[j] })
	led := cm.env.Ledger()
	if seq <= led.LowWater() {
		return
	}
	cp := &ledger.Checkpoint{Seq: seq, StateHash: hash, Voters: voters}
	if own := led.OwnCheckpoint(seq); own != nil && own.StateHash == hash {
		cp.Snapshot = own.Snapshot
	}
	if led.LastExecuted() < seq {
		// In-dark: the network moved past us (P4's second purpose).
		// Remember the certified hash and fetch the state from one
		// of the voters; each newer certified checkpoint retries
		// (rotating voters) in case the previous fetch was lost.
		cm.expected[seq] = hash
		if !cm.fetching || seq > cm.fetchSeq {
			cm.fetching = true
			cm.fetchSeq = seq
			var peers []types.NodeID
			for _, v := range voters {
				if v != cm.env.ID() {
					peers = append(peers, v)
				}
			}
			if len(peers) > 0 {
				cm.env.Send(peers[cm.fetchTries%len(peers)], &FetchStateMsg{Seq: seq})
				cm.fetchTries++
			}
		}
		return
	}
	led.SetStable(cp)
	cm.StableCount++
	// Drop vote state at and below the new low-water mark.
	cm.votes.Prune(func(s types.SeqNum) bool { return s <= seq })
}

func (cm *CheckpointManager) onFetch(from types.NodeID, m *FetchStateMsg) {
	led := cm.env.Ledger()
	cp := led.OwnCheckpoint(m.Seq)
	if cp == nil {
		if latest := led.LatestOwnCheckpoint(); latest != nil && latest.Seq >= m.Seq {
			cp = latest
		}
	}
	if cp == nil || cp.Snapshot == nil {
		return
	}
	cm.env.Send(from, &StateMsg{
		Seq:       cp.Seq,
		StateHash: cp.StateHash,
		Snapshot:  cp.Snapshot(),
		Entries:   led.CommittedAbove(cp.Seq),
	})
}

func (cm *CheckpointManager) onState(from types.NodeID, m *StateMsg) {
	cm.fetching = false
	led := cm.env.Ledger()
	if m.Seq <= led.LastExecuted() {
		return
	}
	// Only install snapshots whose hash was certified by a quorum.
	want, ok := cm.expected[m.Seq]
	if !ok || want != m.StateHash {
		return
	}
	cm.env.RollbackSpecAbove(led.LastExecuted())
	if err := cm.env.App().Restore(m.Snapshot); err != nil {
		cm.env.Logf("state transfer: bad snapshot from %v: %v", from, err)
		return
	}
	if got := cm.env.App().Hash(); got != m.StateHash {
		cm.env.Logf("state transfer: hash mismatch from %v", from)
		return
	}
	led.Fastforward(m.Seq)
	led.SetStable(&ledger.Checkpoint{Seq: m.Seq, StateHash: m.StateHash})
	cm.StableCount++
	for s := range cm.expected {
		if s <= m.Seq {
			delete(cm.expected, s)
		}
	}
	cm.env.Logf("state transfer: fast-forwarded to seq %d", m.Seq)
	if cm.Fastforwarded != nil {
		cm.Fastforwarded(m.Seq)
	}
	// Replay the retained suffix the sender shipped along.
	for _, e := range m.Entries {
		cm.env.Commit(e.View, e.Seq, e.Batch, e.Proof)
	}
}
