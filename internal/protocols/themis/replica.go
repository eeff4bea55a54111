package themis

import (
	"bftkit/internal/core"
	"bftkit/internal/types"
)

// The two all-to-all voting stages (VoteMsg.Stage on the wire).
const (
	stagePrepare = "prepare"
	stageCommit  = "commit"
)

type slot = core.Slot[struct{}]

// Themis is the protocol state machine for one replica.
type Themis struct {
	env core.Env
	cm  *core.CheckpointManager

	// backlog holds the watch/done sets and the τ2 timer (Themis orders
	// from reports, not from the backlog's queue); vc is the view-change
	// stage, which owns the current view; Slots the ordering stage's
	// per-sequence state, with the profile's 3f+1 quorum that n = 4f+1
	// requires. All come from the core kit.
	backlog *core.Backlog
	vc      *core.ViewChange
	Slots   *core.Slots[struct{}]

	// preparedProof persists prepared slots across view changes (the
	// per-view slots are dropped on every install; losing prepared
	// state there allowed a committed slot to be overwritten).
	preparedProof map[types.SeqNum]*core.CarriedSlot

	// Preorder state.
	local   []*types.Request // local receive order, not yet reported
	rseq    uint64
	reports map[types.NodeID]*ReportMsg // latest unconsumed report per origin (leader)
	seen    map[types.RequestKey]bool
	seenReq map[types.RequestKey]*types.Request
	ordered map[types.RequestKey]bool // fed into a proposal already (leader)

	roundArmed bool
}

// New returns a Themis replica.
func New(cfg core.Config) core.Protocol { return &Themis{} }

func init() {
	core.Register(core.Registration{
		Name:       "themis",
		Profile:    core.ThemisProfile(),
		NewReplica: New,
		NewClient: func(cfg core.Config) core.ClientProtocol {
			return core.NewRequester(core.RequesterOpts{SendToAll: true})
		},
	})
}

// Init implements core.Protocol.
func (t *Themis) Init(env core.Env) {
	t.env = env
	t.cm = core.NewCheckpointManager(env)
	t.preparedProof = make(map[types.SeqNum]*core.CarriedSlot)
	t.reports = make(map[types.NodeID]*ReportMsg)
	t.seen = make(map[types.RequestKey]bool)
	t.seenReq = make(map[types.RequestKey]*types.Request)
	t.ordered = make(map[types.RequestKey]bool)
	t.backlog = core.NewBacklog(env, timerProgress)
	profile := core.ThemisProfile()
	t.vc = core.NewViewChange(env, t.backlog, timerVCRetry, profile.QuorumSize(env.F()), t.viewChangeHooks())
	t.Slots = core.NewSlots[struct{}](env, profile, t.backlog, t.vc, t.cm, stagePrepare, stageCommit)
}

// View returns the current view.
func (t *Themis) View() types.View { return t.vc.View() }

// OnRequest implements core.Protocol: record the local receive order and
// schedule the next report flush (τ6).
func (t *Themis) OnRequest(req *types.Request) {
	key := req.Key()
	if t.backlog.Done(key) || t.seen[key] {
		return
	}
	if !t.env.Verifier().VerifySig(req.Client, req.Digest(), req.Sig) {
		return
	}
	t.seen[key] = true
	t.seenReq[key] = req
	t.local = append(t.local, req)
	t.backlog.Watch(key)
	if !t.roundArmed {
		t.roundArmed = true
		t.env.SetTimer(core.TimerID{Name: timerRound}, 2*t.env.Config().BatchTimeout)
	}
}

// flushReport sends the local order to the leader.
func (t *Themis) flushReport() {
	t.roundArmed = false
	if len(t.local) == 0 {
		return
	}
	t.rseq++
	rep := &ReportMsg{Origin: t.env.ID(), RSeq: t.rseq, Reqs: t.local}
	rep.Sig = t.env.Signer().Sign(rep.SigDigest())
	t.local = nil
	if t.vc.Leading() {
		t.onReport(t.env.ID(), rep)
	} else {
		t.env.Send(t.vc.Leader(), rep)
	}
}

func (t *Themis) onReport(from types.NodeID, m *ReportMsg) {
	if !t.vc.MayPropose() {
		return
	}
	// Keep the newest report per origin; merge older unconsumed ones by
	// appending (positions concatenate, preserving each origin's order).
	if prev := t.reports[from]; prev != nil {
		m = &ReportMsg{Origin: from, RSeq: m.RSeq, Reqs: append(prev.Reqs, m.Reqs...), Sig: m.Sig}
	}
	t.reports[from] = m
	t.maybePropose()
}

// maybePropose fires once reports from n−f distinct origins cover at
// least one unordered request.
func (t *Themis) maybePropose() {
	if !t.vc.MayPropose() {
		return
	}
	if len(t.reports) < t.env.N()-t.env.F() {
		return
	}
	var reports []*ReportMsg
	for _, rep := range t.reports {
		reports = append(reports, rep)
	}
	skip := func(k types.RequestKey) bool {
		return t.ordered[k]
	}
	ordered := FairOrder(reports, skip)
	fresh := ordered[:0]
	for _, req := range ordered {
		if !t.backlog.Done(req.Key()) {
			fresh = append(fresh, req)
		}
	}
	if len(fresh) == 0 {
		return
	}
	for _, req := range fresh {
		t.ordered[req.Key()] = true
	}
	t.reports = make(map[types.NodeID]*ReportMsg)
	batch := types.NewBatch(fresh...)
	prop := &ProposalMsg{View: t.View(), Seq: t.Slots.Next(), Reports: reports, Batch: batch}
	prop.Sig = t.env.Signer().Sign(prop.SigDigest())
	t.env.Broadcast(prop)
	t.acceptProposal(t.env.ID(), prop, false)
}

// acceptProposal validates the fair order (unless reVerified, for
// new-view re-proposals whose reports were already checked) and votes.
func (t *Themis) acceptProposal(from types.NodeID, m *ProposalMsg, fromNewView bool) {
	if m.View != t.View() || t.vc.Active() {
		return
	}
	if !fromNewView && from != t.env.ID() && !t.fairlyOrdered(m) {
		return
	}
	sl := t.Slots.Accept(m.View, m.Seq, m.Batch.Digest(), m.Batch)
	if sl == nil {
		return
	}
	t.vote(stagePrepare, sl)
	t.checkPrepared(sl)
}

// fairlyOrdered verifies a proposal's report signatures and recomputes the
// fair order: the leader cannot reorder beyond its choice of reports.
func (t *Themis) fairlyOrdered(m *ProposalMsg) bool {
	if len(m.Reports) < t.env.N()-t.env.F() {
		return false
	}
	var origins core.Tally[types.SeqNum, struct{}] // one report per origin
	for _, rep := range m.Reports {
		if origins.Add(m.Seq, rep.Origin, struct{}{}) == 0 {
			return false
		}
		if !t.env.Verifier().VerifySig(rep.Origin, rep.SigDigest(), rep.Sig) {
			return false
		}
	}
	proposed := make(map[types.RequestKey]bool, m.Batch.Len())
	for _, req := range m.Batch.Requests {
		proposed[req.Key()] = true
	}
	want := FairOrder(m.Reports, func(k types.RequestKey) bool { return !proposed[k] })
	if len(want) != m.Batch.Len() {
		return false
	}
	for i, req := range want {
		if req.Key() != m.Batch.Requests[i].Key() {
			return false // the leader manipulated the order: reject
		}
	}
	return true
}

func (t *Themis) vote(stage string, sl *slot) {
	v := &VoteMsg{Stage: stage, View: t.View(), Seq: sl.Seq, Digest: sl.Digest, Replica: t.env.ID()}
	v.Sig = t.env.Signer().Sign(v.SigDigest())
	t.env.Broadcast(v)
	t.Slots.Vote(stage, v.View, v.Seq, t.env.ID(), v.Digest, nil)
}

// OnMessage implements core.Protocol.
func (t *Themis) OnMessage(from types.NodeID, m types.Message) {
	if t.cm.OnMessage(from, m) || t.vc.OnMessage(from, m) {
		return
	}
	switch mm := m.(type) {
	case *core.ForwardMsg:
		t.OnRequest(mm.Req)
	case *ReportMsg:
		if mm.Origin != from {
			return
		}
		if !t.env.Verifier().VerifySig(from, mm.SigDigest(), mm.Sig) {
			return
		}
		t.onReport(from, mm)
	case *ProposalMsg:
		if from != t.env.Config().LeaderOf(mm.View) {
			return
		}
		if !t.env.Verifier().VerifySig(from, mm.SigDigest(), mm.Sig) {
			return
		}
		t.acceptProposal(from, mm, false)
	case *VoteMsg:
		if mm.Replica != from || mm.View != t.View() || t.vc.Active() {
			return
		}
		if !t.env.Verifier().VerifySig(from, mm.SigDigest(), mm.Sig) {
			return
		}
		if sl := t.Slots.Vote(mm.Stage, mm.View, mm.Seq, from, mm.Digest, nil); sl != nil {
			t.checkPrepared(sl)
			t.checkCommitted(sl)
		}
	}
}

func (t *Themis) checkPrepared(sl *slot) {
	if !sl.Reached(stagePrepare, t.Slots.Quorum) {
		return
	}
	if prev := t.preparedProof[sl.Seq]; prev == nil || prev.View < t.View() {
		t.preparedProof[sl.Seq] = &core.CarriedSlot{View: t.View(), Seq: sl.Seq, Digest: sl.Digest, Batch: sl.Batch}
	}
	t.vote(stageCommit, sl)
	t.checkCommitted(sl)
}

func (t *Themis) checkCommitted(sl *slot) {
	if !sl.Past(stagePrepare) || !sl.Reached(stageCommit, t.Slots.Quorum) {
		return
	}
	proof := &types.CommitProof{View: t.View(), Seq: sl.Seq, Digest: sl.Digest, Voters: sl.Voters(stageCommit)}
	t.env.Commit(t.View(), sl.Seq, sl.Batch, proof)
}

// OnTimer implements core.Protocol.
func (t *Themis) OnTimer(id core.TimerID) {
	if id.Name == timerRound {
		t.flushReport()
	} else {
		t.vc.OnTimer(id)
	}
}

// OnExecuted implements core.Protocol.
func (t *Themis) OnExecuted(seq types.SeqNum, batch *types.Batch, results [][]byte) {
	for _, req := range batch.Requests {
		delete(t.seen, req.Key())
		delete(t.seenReq, req.Key())
		delete(t.ordered, req.Key())
	}
	delete(t.preparedProof, seq)
	t.Slots.Executed(seq, batch, results, true)
	t.maybePropose()
}
