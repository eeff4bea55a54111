// Package raftlite implements a compact Raft-style crash-fault-tolerant
// protocol [153] as the CFT baseline the paper's introduction contrasts
// BFT protocols against: 2f+1 replicas, an elected leader appending to
// follower logs, and majority-acknowledged commitment. No message is
// authenticated beyond transport identity and no replica is assumed
// adversarial — which is exactly why it is cheaper than every BFT
// protocol in this repository (experiment X14's baseline row) and exactly
// why it is unusable in the paper's untrusted settings.
//
// Faithful to Raft's core: randomized election timeouts, term-scoped
// votes with the log-freshness restriction, AppendEntries consistency
// checks with backtracking, and commit only for current-term entries.
// Omitted: persistence and snapshotting (the simulator has no restarts;
// crashes are permanent).
package raftlite

import (
	"time"

	"bftkit/internal/core"
	"bftkit/internal/types"
)

// Timer names.
const (
	timerElection  = "election"
	timerHeartbeat = "heartbeat"
)

// Entry is one log slot.
type Entry struct {
	Term  uint64
	Batch *types.Batch
}

// AppendEntriesMsg replicates log entries (empty = heartbeat).
type AppendEntriesMsg struct {
	Term         uint64
	Leader       types.NodeID
	PrevIndex    types.SeqNum
	PrevTerm     uint64
	Entries      []Entry
	LeaderCommit types.SeqNum
}

// Kind implements types.Message.
func (*AppendEntriesMsg) Kind() string { return "APPEND-ENTRIES" }

// Slot implements obsv.Slotted: the first appended index (heartbeats
// stamp the slot after the last replicated one).
func (m *AppendEntriesMsg) Slot() (types.View, types.SeqNum) {
	return types.View(m.Term), m.PrevIndex + 1
}

// AppendRespMsg acknowledges (or rejects) an append.
type AppendRespMsg struct {
	Term    uint64
	Success bool
	// Match is the highest index known replicated on this follower.
	Match   types.SeqNum
	Replica types.NodeID
}

// Kind implements types.Message.
func (*AppendRespMsg) Kind() string { return "APPEND-RESP" }

// Slot implements obsv.Slotted.
func (m *AppendRespMsg) Slot() (types.View, types.SeqNum) { return types.View(m.Term), m.Match }

// RequestVoteMsg solicits an election vote.
type RequestVoteMsg struct {
	Term      uint64
	Candidate types.NodeID
	LastIndex types.SeqNum
	LastTerm  uint64
}

// Kind implements types.Message.
func (*RequestVoteMsg) Kind() string { return "REQUEST-VOTE" }

// VoteMsg grants or denies a vote.
type VoteMsg struct {
	Term    uint64
	Granted bool
	Replica types.NodeID
}

// Kind implements types.Message.
func (*VoteMsg) Kind() string { return "VOTE" }

type role int

const (
	follower role = iota
	candidate
	leader
)

// Raft is the protocol state machine for one replica.
type Raft struct {
	env core.Env

	term     uint64
	votedFor types.NodeID // -1 = none
	role     role
	leaderID types.NodeID

	log         []Entry // log[i] is the entry at index i+1
	commitIndex types.SeqNum

	// votes holds the granted election votes per term, by sender.
	votes      core.Tally[uint64, struct{}]
	nextIndex  map[types.NodeID]types.SeqNum
	matchIndex map[types.NodeID]types.SeqNum

	pending    []*types.Request
	pendingSet map[types.RequestKey]bool
	done       map[types.RequestKey]bool
}

// New returns a raftlite replica.
func New(cfg core.Config) core.Protocol { return &Raft{} }

func init() {
	core.Register(core.Registration{
		Name:       "raftlite",
		Profile:    core.RaftLiteProfile(),
		NewReplica: New,
	})
}

// Init implements core.Protocol.
func (r *Raft) Init(env core.Env) {
	r.env = env
	r.votedFor = -1
	r.leaderID = -1
	r.votes = core.NewTally[uint64, struct{}](env.N())
	r.nextIndex = make(map[types.NodeID]types.SeqNum)
	r.matchIndex = make(map[types.NodeID]types.SeqNum)
	r.pendingSet = make(map[types.RequestKey]bool)
	r.done = make(map[types.RequestKey]bool)
	r.resetElectionTimer()
}

// Term returns the current term (tests observe it).
func (r *Raft) Term() uint64 { return r.term }

// IsLeader reports whether this replica currently leads.
func (r *Raft) IsLeader() bool { return r.role == leader }

func (r *Raft) majority() int { return r.env.N()/2 + 1 }

func (r *Raft) lastIndex() types.SeqNum { return types.SeqNum(len(r.log)) }

func (r *Raft) termAt(idx types.SeqNum) uint64 {
	if idx == 0 || int(idx) > len(r.log) {
		return 0
	}
	return r.log[idx-1].Term
}

func (r *Raft) resetElectionTimer() {
	base := r.env.Config().ViewChangeTimeout
	jitter := time.Duration(r.env.Rand().Int63n(int64(base)))
	r.env.SetTimer(core.TimerID{Name: timerElection}, base+jitter)
}

// OnRequest implements core.Protocol.
func (r *Raft) OnRequest(req *types.Request) {
	if r.done[req.Key()] {
		return
	}
	key := req.Key()
	if r.pendingSet[key] {
		if r.role != leader && r.leaderID >= 0 {
			r.env.Send(r.leaderID, &core.ForwardMsg{Req: req})
		}
		return
	}
	r.pendingSet[key] = true
	if r.role != leader {
		if r.leaderID >= 0 {
			r.env.Send(r.leaderID, &core.ForwardMsg{Req: req})
		}
		// Remember it in case leadership lands here.
		r.pending = append(r.pending, req)
		return
	}
	r.appendToLog(req)
}

func (r *Raft) appendToLog(req *types.Request) {
	r.log = append(r.log, Entry{Term: r.term, Batch: types.NewBatch(req)})
	r.replicate()
}

// drainPending moves buffered requests into the log upon election.
func (r *Raft) drainPending() {
	for _, req := range r.pending {
		if r.pendingSet[req.Key()] && !r.done[req.Key()] && !r.inLog(req.Key()) {
			r.log = append(r.log, Entry{Term: r.term, Batch: types.NewBatch(req)})
		}
	}
	r.pending = nil
	r.replicate()
}

func (r *Raft) inLog(key types.RequestKey) bool {
	for _, e := range r.log {
		for _, req := range e.Batch.Requests {
			if req.Key() == key {
				return true
			}
		}
	}
	return false
}

// replicate sends AppendEntries to every follower from its nextIndex.
func (r *Raft) replicate() {
	if r.role != leader {
		return
	}
	for _, id := range r.env.Replicas() {
		if id == r.env.ID() {
			continue
		}
		next := r.nextIndex[id]
		if next == 0 {
			next = 1
		}
		prev := next - 1
		var entries []Entry
		if int(next) <= len(r.log) {
			entries = append(entries, r.log[next-1:]...)
		}
		r.env.Send(id, &AppendEntriesMsg{
			Term: r.term, Leader: r.env.ID(),
			PrevIndex: prev, PrevTerm: r.termAt(prev),
			Entries: entries, LeaderCommit: r.commitIndex,
		})
	}
	r.env.SetTimer(core.TimerID{Name: timerHeartbeat}, r.env.Config().ViewChangeTimeout/2)
}

// OnMessage implements core.Protocol.
func (r *Raft) OnMessage(from types.NodeID, m types.Message) {
	switch mm := m.(type) {
	case *core.ForwardMsg:
		r.OnRequest(mm.Req)
	case *AppendEntriesMsg:
		r.onAppend(from, mm)
	case *AppendRespMsg:
		r.onAppendResp(mm)
	case *RequestVoteMsg:
		r.onRequestVote(mm)
	case *VoteMsg:
		r.onVote(from, mm)
	}
}

func (r *Raft) stepDown(term uint64) {
	if term > r.term {
		r.term = term
		r.votedFor = -1
	}
	r.role = follower
	r.env.StopTimer(core.TimerID{Name: timerHeartbeat})
	r.resetElectionTimer()
}

func (r *Raft) onAppend(from types.NodeID, m *AppendEntriesMsg) {
	if m.Term < r.term {
		r.env.Send(from, &AppendRespMsg{Term: r.term, Success: false, Replica: r.env.ID()})
		return
	}
	if m.Term > r.term || r.role != follower {
		r.stepDown(m.Term)
	}
	r.leaderID = m.Leader
	r.resetElectionTimer()

	// Consistency check.
	if m.PrevIndex > r.lastIndex() || r.termAt(m.PrevIndex) != m.PrevTerm {
		r.env.Send(from, &AppendRespMsg{Term: r.term, Success: false,
			Match: r.commitIndex, Replica: r.env.ID()})
		return
	}
	// Append, truncating conflicts.
	for i, e := range m.Entries {
		idx := m.PrevIndex + types.SeqNum(i) + 1
		if int(idx) <= len(r.log) {
			if r.log[idx-1].Term != e.Term {
				r.log = r.log[:idx-1]
				r.log = append(r.log, e)
			}
		} else {
			r.log = append(r.log, e)
		}
	}
	if m.LeaderCommit > r.commitIndex {
		r.advanceCommit(min(m.LeaderCommit, r.lastIndex()))
	}
	r.env.Send(from, &AppendRespMsg{Term: r.term, Success: true,
		Match: m.PrevIndex + types.SeqNum(len(m.Entries)), Replica: r.env.ID()})
}

func (r *Raft) onAppendResp(m *AppendRespMsg) {
	if r.role != leader {
		return
	}
	if m.Term > r.term {
		r.stepDown(m.Term)
		return
	}
	if !m.Success {
		// Backtrack.
		if r.nextIndex[m.Replica] > 1 {
			r.nextIndex[m.Replica]--
		}
		return
	}
	if m.Match > r.matchIndex[m.Replica] {
		r.matchIndex[m.Replica] = m.Match
	}
	r.nextIndex[m.Replica] = m.Match + 1
	// Commit rule: a current-term entry replicated on a majority.
	for idx := r.commitIndex + 1; idx <= r.lastIndex(); idx++ {
		if r.termAt(idx) != r.term {
			continue
		}
		count := 1 // self
		for _, match := range r.matchIndex {
			if match >= idx {
				count++
			}
		}
		if count >= r.majority() {
			r.advanceCommit(idx)
		}
	}
}

func (r *Raft) advanceCommit(to types.SeqNum) {
	for idx := r.commitIndex + 1; idx <= to; idx++ {
		e := r.log[idx-1]
		proof := &types.CommitProof{View: types.View(e.Term), Seq: idx,
			Digest: e.Batch.Digest(), Special: "raft-majority"}
		r.env.Commit(types.View(e.Term), idx, e.Batch, proof)
	}
	r.commitIndex = to
	if r.role == leader {
		r.replicate() // propagate the commit index promptly
	}
}

func (r *Raft) onRequestVote(m *RequestVoteMsg) {
	if m.Term > r.term {
		r.stepDown(m.Term)
	}
	grant := false
	if m.Term == r.term && (r.votedFor == -1 || r.votedFor == m.Candidate) {
		// Election restriction: the candidate's log must be at least as
		// fresh as ours.
		upToDate := m.LastTerm > r.termAt(r.lastIndex()) ||
			(m.LastTerm == r.termAt(r.lastIndex()) && m.LastIndex >= r.lastIndex())
		if upToDate {
			grant = true
			r.votedFor = m.Candidate
			r.resetElectionTimer()
		}
	}
	r.env.Send(m.Candidate, &VoteMsg{Term: r.term, Granted: grant, Replica: r.env.ID()})
}

func (r *Raft) onVote(from types.NodeID, m *VoteMsg) {
	if m.Term > r.term {
		r.stepDown(m.Term)
		return
	}
	if r.role != candidate || m.Term != r.term || !m.Granted {
		return
	}
	if r.votes.Add(m.Term, from, struct{}{}) >= r.majority() {
		r.role = leader
		r.leaderID = r.env.ID()
		for _, id := range r.env.Replicas() {
			r.nextIndex[id] = r.lastIndex() + 1
			r.matchIndex[id] = 0
		}
		r.env.ViewChanged(types.View(r.term))
		r.drainPending()
	}
}

// OnTimer implements core.Protocol.
func (r *Raft) OnTimer(id core.TimerID) {
	switch id.Name {
	case timerElection:
		if r.role == leader {
			return
		}
		r.term++
		r.role = candidate
		r.votedFor = r.env.ID()
		r.votes.Prune(func(term uint64) bool { return term < r.term })
		r.votes.Add(r.term, r.env.ID(), struct{}{})
		r.env.Broadcast(&RequestVoteMsg{
			Term: r.term, Candidate: r.env.ID(),
			LastIndex: r.lastIndex(), LastTerm: r.termAt(r.lastIndex()),
		})
		r.resetElectionTimer()
		if r.votes.Count(r.term) >= r.majority() { // n == 1 degenerate case
			r.role = leader
			r.leaderID = r.env.ID()
			r.drainPending()
		}
	case timerHeartbeat:
		r.replicate()
	}
}

// OnExecuted implements core.Protocol.
func (r *Raft) OnExecuted(seq types.SeqNum, batch *types.Batch, results [][]byte) {
	for _, req := range batch.Requests {
		delete(r.pendingSet, req.Key())
		r.done[req.Key()] = true
	}
	core.ReplyExecuted(r.env, types.View(r.term), seq, batch, results, false)
}

func min(a, b types.SeqNum) types.SeqNum {
	if a < b {
		return a
	}
	return b
}
