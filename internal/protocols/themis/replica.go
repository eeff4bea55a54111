package themis

import (
	"maps"
	"slices"

	"bftkit/internal/core"
	"bftkit/internal/types"
)

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
	t.vc = core.NewViewChange(env, t.backlog, profile.QuorumSize(env.F()), t.viewChangeHooks())
	// PBFT-style all-to-all prepare and commit rounds at the 3f+1 quorum.
	t.Slots = core.NewSlots[struct{}](env, profile, t.backlog, t.vc, t.cm,
		core.StageSpec{Stage: core.StagePrepare, Voters: core.VotersAll, Quorum: profile.Quorum},
		core.StageSpec{Stage: core.StageCommit, Voters: core.VotersAll, Quorum: profile.Quorum})
	t.Slots.Closed = t.prepared
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
	if !core.VerifyRequest(t.env, req) {
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
	// In origin order, so that one seed sends one proposal.
	var reports []*ReportMsg
	var evidence []core.Evidence
	for _, origin := range slices.Sorted(maps.Keys(t.reports)) {
		reports = append(reports, t.reports[origin])
		evidence = append(evidence, t.reports[origin])
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
	t.Slots.Issue(core.NewProposal(t.env, t.View(), t.Slots.Next(), types.NewBatch(fresh...), evidence...))
}

// fairlyOrdered verifies the signatures of the reports a proposal carries
// and recomputes the fair order: the leader cannot reorder beyond its
// choice of reports.
func (t *Themis) fairlyOrdered(m *core.ProposeMsg) bool {
	if len(m.Evidence) < t.env.N()-t.env.F() {
		return false
	}
	var origins core.Tally[types.SeqNum, struct{}] // one report per origin
	reports := make([]*ReportMsg, 0, len(m.Evidence))
	for _, e := range m.Evidence {
		rep, ok := e.(*ReportMsg)
		if !ok || origins.Add(m.Seq, rep.Origin, struct{}{}) == 0 {
			return false
		}
		if !t.env.Verifier().VerifySig(rep.Origin, rep.SigDigest(), rep.Sig) {
			return false
		}
		reports = append(reports, rep)
	}
	proposed := make(map[types.RequestKey]bool, m.Batch.Len())
	for _, req := range m.Batch.Requests {
		proposed[req.Key()] = true
	}
	want := FairOrder(reports, func(k types.RequestKey) bool { return !proposed[k] })
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
	case *core.ProposeMsg:
		// A backup accepts the leader's proposal only in its fair order.
		if mm.Verify(t.env) && mm.View == t.View() && !t.vc.Active() && t.fairlyOrdered(mm) {
			t.Slots.Order(mm)
		}
	default:
		t.Slots.OnMessage(from, m)
	}
}

// prepared keeps a prepared slot for view changes.
func (t *Themis) prepared(sl *core.Slot[struct{}], stage core.Stage, _ *core.CertMsg) {
	if stage != core.StagePrepare {
		return
	}
	if prev := t.preparedProof[sl.Seq]; prev == nil || prev.View < t.View() {
		t.preparedProof[sl.Seq] = &core.CarriedSlot{View: t.View(), Seq: sl.Seq, Digest: sl.Digest, Batch: sl.Batch}
	}
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
	t.Slots.Executed(seq, batch, results)
	t.maybePropose()
}
