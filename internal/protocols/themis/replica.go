package themis

import (
	"bftkit/internal/core"
	"bftkit/internal/types"
)

type slot struct {
	digest   types.Digest
	batch    *types.Batch
	proposed bool
	prepares map[types.NodeID]bool
	commits  map[types.NodeID]bool
	votedP   bool
	votedC   bool
	prepared bool
	done     bool
}

// Themis is the protocol state machine for one replica.
type Themis struct {
	env core.Env
	cm  *core.CheckpointManager

	// backlog holds the watch/done sets and the τ2 timer (Themis orders
	// from reports, not from the backlog's queue); vc is the view-change
	// skeleton, which owns the current view. Both come from the core kit.
	backlog *core.Backlog
	vc      *core.ViewChange[*ViewChangeMsg]

	nextSeq types.SeqNum
	slots   map[types.SeqNum]*slot
	// preparedProof persists prepared slots across view changes (the
	// per-view slots map is reset on every install; losing prepared
	// state there allowed a committed slot to be overwritten).
	preparedProof map[types.SeqNum]*PreparedSlot

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
	t.slots = make(map[types.SeqNum]*slot)
	t.preparedProof = make(map[types.SeqNum]*PreparedSlot)
	t.reports = make(map[types.NodeID]*ReportMsg)
	t.seen = make(map[types.RequestKey]bool)
	t.seenReq = make(map[types.RequestKey]*types.Request)
	t.ordered = make(map[types.RequestKey]bool)
	t.backlog = core.NewBacklog(env, timerProgress)
	t.vc = core.NewViewChange(env, t.backlog, timerVCRetry, t.quorum(),
		core.ViewChangeHooks[*ViewChangeMsg]{Build: t.buildViewChange, NewView: t.sendNewView})
}

// View returns the current view.
func (t *Themis) View() types.View { return t.vc.View() }

// quorum is 3f+1 (required by n = 4f+1).
func (t *Themis) quorum() int { return 3*t.env.F() + 1 }

func (t *Themis) slot(seq types.SeqNum) *slot {
	sl := t.slots[seq]
	if sl == nil {
		sl = &slot{prepares: make(map[types.NodeID]bool), commits: make(map[types.NodeID]bool)}
		t.slots[seq] = sl
	}
	return sl
}

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
	t.nextSeq++
	prop := &ProposalMsg{View: t.View(), Seq: t.nextSeq, Reports: reports, Batch: batch}
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
	sl := t.slot(m.Seq)
	if sl.proposed && sl.digest != m.Batch.Digest() {
		t.vc.Start(t.View() + 1)
		return
	}
	if !fromNewView && from != t.env.ID() {
		// Verify the report signatures and recompute the fair order:
		// the leader cannot reorder beyond its choice of reports.
		if len(m.Reports) < t.env.N()-t.env.F() {
			return
		}
		seenOrigin := make(map[types.NodeID]bool)
		for _, rep := range m.Reports {
			if seenOrigin[rep.Origin] {
				return
			}
			seenOrigin[rep.Origin] = true
			if !t.env.Verifier().VerifySig(rep.Origin, rep.SigDigest(), rep.Sig) {
				return
			}
		}
		proposed := make(map[types.RequestKey]bool, m.Batch.Len())
		for _, req := range m.Batch.Requests {
			proposed[req.Key()] = true
		}
		want := FairOrder(m.Reports, func(k types.RequestKey) bool { return !proposed[k] })
		if len(want) != m.Batch.Len() {
			return
		}
		for i, req := range want {
			if req.Key() != m.Batch.Requests[i].Key() {
				return // the leader manipulated the order: reject
			}
		}
	}
	sl.proposed = true
	sl.digest = m.Batch.Digest()
	sl.batch = m.Batch
	t.backlog.Proposed(m.Batch)
	if !sl.votedP {
		sl.votedP = true
		t.vote("prepare", m.Seq, sl)
	}
	t.checkPrepared(m.Seq, sl)
}

func (t *Themis) vote(stage string, seq types.SeqNum, sl *slot) {
	v := &VoteMsg{Stage: stage, View: t.View(), Seq: seq, Digest: sl.digest, Replica: t.env.ID()}
	v.Sig = t.env.Signer().Sign(v.SigDigest())
	t.env.Broadcast(v)
	if stage == "prepare" {
		sl.prepares[t.env.ID()] = true
	} else {
		sl.commits[t.env.ID()] = true
	}
}

// OnMessage implements core.Protocol.
func (t *Themis) OnMessage(from types.NodeID, m types.Message) {
	if t.cm.OnMessage(from, m) {
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
		sl := t.slot(mm.Seq)
		if sl.proposed && sl.digest != mm.Digest {
			return
		}
		if mm.Stage == "prepare" {
			sl.prepares[from] = true
			t.checkPrepared(mm.Seq, sl)
		} else {
			sl.commits[from] = true
			t.checkCommitted(mm.Seq, sl)
		}
	case *ViewChangeMsg:
		t.vc.OnViewChange(from, mm)
	case *NewViewMsg:
		t.onNewView(from, mm)
	}
}

func (t *Themis) checkPrepared(seq types.SeqNum, sl *slot) {
	if sl.prepared || !sl.proposed || len(sl.prepares) < t.quorum() {
		return
	}
	sl.prepared = true
	if prev := t.preparedProof[seq]; prev == nil || prev.View < t.View() {
		t.preparedProof[seq] = &PreparedSlot{View: t.View(), Seq: seq, Digest: sl.digest, Batch: sl.batch}
	}
	if !sl.votedC {
		sl.votedC = true
		t.vote("commit", seq, sl)
	}
	t.checkCommitted(seq, sl)
}

func (t *Themis) checkCommitted(seq types.SeqNum, sl *slot) {
	if sl.done || !sl.prepared || len(sl.commits) < t.quorum() {
		return
	}
	sl.done = true
	proof := &types.CommitProof{View: t.View(), Seq: seq, Digest: sl.digest}
	for id := range sl.commits {
		proof.Voters = append(proof.Voters, id)
	}
	t.env.Commit(t.View(), seq, sl.batch, proof)
}

// OnTimer implements core.Protocol.
func (t *Themis) OnTimer(id core.TimerID) {
	switch id.Name {
	case timerRound:
		t.flushReport()
	case timerProgress:
		if t.backlog.Expired(id) {
			t.vc.Start(t.View() + 1)
		}
	case timerVCRetry:
		t.vc.Retry(id)
	}
}

// OnExecuted implements core.Protocol.
func (t *Themis) OnExecuted(seq types.SeqNum, batch *types.Batch, results [][]byte) {
	t.backlog.Executed(batch)
	for _, req := range batch.Requests {
		delete(t.seen, req.Key())
		delete(t.seenReq, req.Key())
		delete(t.ordered, req.Key())
	}
	core.ReplyExecuted(t.env, t.View(), seq, batch, results)
	delete(t.slots, seq)
	delete(t.preparedProof, seq)
	if t.nextSeq < seq {
		t.nextSeq = seq
	}
	t.cm.OnExecuted(seq)
	t.backlog.Progress()
	t.maybePropose()
}
