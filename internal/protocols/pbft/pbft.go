package pbft

import (
	"sort"
	"time"

	"bftkit/internal/core"
	"bftkit/internal/crypto"
	"bftkit/internal/types"
)

// Timer names (mapped to the paper's τ taxonomy).
const (
	timerBatch      = "batch"      // leader batch formation
	timerProgress   = "progress"   // τ2: trigger view change
	timerRejuvenate = "rejuvenate" // τ8: proactive recovery watchdog
	timerDelay      = "delay"      // attack injection only
)

// Options tunes a PBFT instance, including the Byzantine behaviors the
// experiments inject when this replica plays the adversary.
type Options struct {
	// EquivocateAsLeader makes a Byzantine leader send conflicting
	// pre-prepares to different halves of the backups.
	EquivocateAsLeader bool
	// SilentLeader makes a Byzantine leader drop client requests.
	SilentLeader bool
	// DelayAttack makes a Byzantine leader delay every proposal by the
	// given duration (staying just inside the view-change timeout —
	// the attack Prime was designed to bound, X14).
	DelayAttack time.Duration
	// RejuvenationInterval enables proactive recovery (τ8): the
	// replica periodically discards its volatile ordering state and
	// rebuilds from the log. Zero disables it.
	RejuvenationInterval time.Duration
	// FrontRun makes a Byzantine leader propose its backlog in reverse
	// arrival order (a front-running/reordering adversary for the
	// order-fairness experiments, Q1/X8).
	FrontRun bool
}

// slotExt is what a PBFT slot keeps beside the kit's state: the leader's
// signature on the pre-prepare, which stands in for the leader's prepare
// vote in view-change proofs.
type slotExt struct{ ppSig []byte }

// stages is PBFT's ordering stage (Figure 2): the backups' all-to-all
// prepares, which the pre-prepare completes as the leader's vote, then
// everyone's all-to-all commits, both at the profile's 2f+1.
var stages = []core.StageSpec{
	{Stage: core.StagePrepare, Voters: core.VotersBackups, Quorum: core.PBFTProfile().Quorum},
	{Stage: core.StageCommit, Voters: core.VotersAll, Quorum: core.PBFTProfile().Quorum},
}

// PBFT is the protocol state machine for one replica.
type PBFT struct {
	env    core.Env
	opts   Options
	stages []core.StageSpec
	cm     *core.CheckpointManager

	// backlog is the request intake and τ2 timer; vc the view-change
	// stage, which owns the current view; Slots the ordering stage's
	// per-sequence state (all from the core kit).
	backlog *core.Backlog
	vc      *core.ViewChange
	Slots   *core.Slots[slotExt]

	// delayed holds proposals the DelayAttack adversary is sitting on.
	delayed map[types.SeqNum]*core.ProposeMsg
	// preparedProof remembers, per sequence number, the
	// highest-view prepared certificate for view changes.
	preparedProof map[types.SeqNum]*core.CarriedSlot
	// commitCerts retains the 2f+1 commit signatures per executed slot
	// (until the checkpoint low-water mark passes it) so catch-up can
	// hand a single verifiable certificate to lagging replicas.
	commitCerts map[types.SeqNum]*crypto.Certificate

	// catchup collects committed-slot reports (the vote carries the
	// reported batch); a slot is adopted once f+1 peers agree on its
	// digest.
	catchup core.Tally[catchupKey, *types.Batch]

	// viewEvidence tracks, per peer, the highest view that peer has
	// demonstrated through an authenticated protocol message. A replica
	// that restarts after the cluster performed a view change boots at
	// view 0 and would otherwise reject every current-view message
	// forever — the NewViewMsg that moved the others was consumed long
	// ago. Once f+1 distinct peers show views above ours, at least one
	// honest replica reached its view through a certified view change,
	// so the (f+1)-th highest evidenced view is safe to adopt.
	viewEvidence map[types.NodeID]types.View

	batchArmed bool
}

// New returns a PBFT replica protocol with default options.
func New(cfg core.Config) core.Protocol { return NewWithOptions(cfg, Options{}) }

// NewWithOptions returns a PBFT replica protocol with explicit options.
func NewWithOptions(_ core.Config, opts Options) core.Protocol {
	return &PBFT{opts: opts, stages: stages}
}

func init() {
	core.Register(core.Registration{
		Name:       "pbft",
		Profile:    core.PBFTProfile(),
		NewReplica: New,
	})
	core.Register(core.Registration{
		Name:       "pbft-mac",
		Profile:    core.PBFTMACProfile(),
		NewReplica: New, // the runtime's Scheme drives MAC vs signature
	})
}

// Init implements core.Protocol.
func (p *PBFT) Init(env core.Env) {
	p.env = env
	p.cm = core.NewCheckpointManager(env)
	p.preparedProof = make(map[types.SeqNum]*core.CarriedSlot)
	p.commitCerts = make(map[types.SeqNum]*crypto.Certificate)
	p.backlog = core.NewBacklog(env, timerProgress)
	p.vc = core.NewViewChange(env, p.backlog, env.Config().Quorum(), p.viewChangeHooks())
	p.Slots = core.NewSlots[slotExt](env, core.PBFTProfile(), p.backlog, p.vc, p.cm, p.stages...)
	p.Slots.Closed = p.closed
	p.viewEvidence = make(map[types.NodeID]types.View)
	if p.opts.RejuvenationInterval > 0 {
		stagger := time.Duration(int(env.ID())+1) * p.opts.RejuvenationInterval / time.Duration(env.N())
		env.SetTimer(core.TimerID{Name: timerRejuvenate}, p.opts.RejuvenationInterval+stagger)
	}
}

// Leader returns the current view's leader.
func (p *PBFT) Leader() types.NodeID { return p.vc.Leader() }

// View returns the current view (tests observe it).
func (p *PBFT) View() types.View { return p.vc.View() }

// OnRequest implements core.Protocol.
func (p *PBFT) OnRequest(req *types.Request) {
	if p.backlog.Submit(req, p.Leader()) && !p.opts.SilentLeader {
		p.maybePropose()
	}
}

func (p *PBFT) maybePropose() {
	if !p.vc.MayPropose() {
		return
	}
	cfg := p.env.Config()
	if p.opts.FrontRun {
		// The front-running adversary deliberately holds requests to
		// build a backlog it can drain newest-first.
		if p.backlog.Len() > 0 && !p.batchArmed {
			p.batchArmed = true
			p.env.SetTimer(core.TimerID{Name: timerBatch}, 5*cfg.BatchTimeout)
		}
		return
	}
	if p.backlog.Len() >= cfg.BatchSize {
		p.proposeBatch()
		return
	}
	if p.backlog.Len() > 0 && !p.batchArmed {
		p.batchArmed = true
		p.env.SetTimer(core.TimerID{Name: timerBatch}, cfg.BatchTimeout)
	}
}

func (p *PBFT) proposeBatch() {
	cfg := p.env.Config()
	take := p.backlog.Take
	if p.opts.FrontRun {
		take = p.takeNewest
	}
	for {
		if uint64(p.Slots.NextSeq()) >= uint64(p.env.Ledger().LowWater())+cfg.HighWaterWindow {
			return // out of window; resume as checkpoints advance
		}
		reqs := take(cfg.BatchSize)
		if len(reqs) == 0 {
			return
		}
		p.sendPrePrepare(p.Slots.Next(), types.NewBatch(reqs...))
	}
}

// takeNewest is the FrontRun adversary's pick: it drains the backlog
// newest-first, inverting arrival order.
func (p *PBFT) takeNewest(k int) []*types.Request {
	var out []*types.Request
	pending := p.backlog.Pending()
	for i := len(pending) - 1; i >= 0 && len(out) < k; i-- {
		if p.backlog.Claim(pending[i]) {
			out = append(out, pending[i])
		}
	}
	return out
}

func (p *PBFT) sendPrePrepare(seq types.SeqNum, batch *types.Batch) {
	pp := core.NewProposal(p.env, p.View(), seq, batch)
	if p.opts.DelayAttack > 0 {
		// Hold the proposal back by the attack delay before letting the
		// backups see it.
		if p.delayed == nil {
			p.delayed = make(map[types.SeqNum]*core.ProposeMsg)
		}
		p.delayed[seq] = pp
		p.env.SetTimer(core.TimerID{Name: timerDelay, Seq: seq}, p.opts.DelayAttack)
	} else if p.opts.EquivocateAsLeader {
		p.equivocate(pp)
	} else {
		p.env.Broadcast(pp)
	}
	p.acceptPrePrepare(pp)
}

func (p *PBFT) equivocate(pp *core.ProposeMsg) {
	// Conflicting assignment: the second half of the backups see an
	// empty batch at the same sequence number.
	alt := core.NewProposal(p.env, pp.View, pp.Seq, types.NewBatch())
	for i, id := range p.env.Replicas() {
		if id == p.env.ID() {
			continue
		}
		if i%2 == 0 {
			p.env.Send(id, pp)
		} else {
			p.env.Send(id, alt)
		}
	}
}

// acceptPrePrepare runs the backup-side acceptance rules (also used by
// the leader to record its own proposal).
func (p *PBFT) acceptPrePrepare(pp *core.ProposeMsg) {
	if pp.View != p.View() || p.vc.Active() {
		// Callers have already authenticated the pre-prepare against
		// the leader of pp.View, so a future view counts as that
		// leader's evidence toward a view jump.
		if pp.View > p.View() {
			p.noteHigherView(pp.Leader, pp.View)
		}
		return
	}
	cfg := p.env.Config()
	if pp.Seq <= p.env.Ledger().LowWater() ||
		uint64(pp.Seq) > uint64(p.env.Ledger().LowWater())+cfg.HighWaterWindow {
		return
	}
	if pp.Seq <= p.env.Ledger().LastExecuted() {
		// Already executed: instead of re-voting, push the committed
		// slot (with its certificate) to the proposer so the rest of
		// the cluster converges on what was decided.
		if e := p.env.Ledger().Get(pp.Seq); e != nil {
			cs := core.CommittedEntry(e, p.commitCerts[e.Seq])
			p.env.Send(p.env.Config().LeaderOf(pp.View), &CommittedMsg{Replica: p.env.ID(), Entries: []core.CommittedSlot{cs}})
		}
		return
	}
	if sl := p.Slots.Accept(pp); sl != nil {
		sl.X.ppSig = pp.Sig
		p.Slots.Run(sl)
	}
}

// OnMessage implements core.Protocol.
func (p *PBFT) OnMessage(from types.NodeID, m types.Message) {
	if p.cm.OnMessage(from, m) || p.vc.OnMessage(from, m) {
		return
	}
	switch mm := m.(type) {
	case *core.ForwardMsg:
		p.OnRequest(mm.Req)
	case *core.ProposeMsg:
		if mm.Verify(p.env) {
			p.acceptPrePrepare(mm)
		}
	case *core.VoteMsg:
		if mm.View <= p.View() {
			p.Slots.OnMessage(from, mm)
		} else if mm.Verify(p.env, from) {
			p.noteHigherView(from, mm.View)
		}
	case *FetchCommittedMsg:
		p.onFetchCommitted(from, mm)
	case *CommittedMsg:
		p.onCommitted(from, mm)
	default:
		p.Slots.OnMessage(from, m)
	}
}

type catchupKey struct {
	Seq    types.SeqNum
	Digest types.Digest
}

// requestCatchup asks all peers for committed slots we are missing.
func (p *PBFT) requestCatchup() {
	p.env.Broadcast(&FetchCommittedMsg{From: p.env.Ledger().LastExecuted()})
}

func (p *PBFT) onFetchCommitted(from types.NodeID, m *FetchCommittedMsg) {
	led := p.env.Ledger()
	if led.LastExecuted() <= m.From {
		return
	}
	resp := &CommittedMsg{Replica: p.env.ID()}
	for _, e := range led.CommittedAbove(m.From) {
		if e.Seq > m.From+64 {
			break
		}
		resp.Entries = append(resp.Entries, core.CommittedEntry(e, p.commitCerts[e.Seq]))
	}
	// Prune certificates the stable checkpoint has made redundant.
	for seq := range p.commitCerts {
		if seq <= led.LowWater() {
			delete(p.commitCerts, seq)
		}
	}
	if len(resp.Entries) > 0 {
		p.env.Send(from, resp)
	}
}

// onCommitted adopts reported slots either on a valid 2f+1 commit
// certificate (one honest peer suffices) or once f+1 distinct peers agree
// on a digest — at least one of them is honest, so the slot really
// committed. MAC-mode deployments cannot transfer commit evidence, so
// only the second path adopts there.
func (p *PBFT) onCommitted(from types.NodeID, m *CommittedMsg) {
	for _, e := range m.Entries {
		if e.Batch == nil || e.Seq <= p.env.Ledger().LastExecuted() {
			continue
		}
		d := e.Batch.Digest()
		if core.VerifyCert(p.env, e.Cert, p.Slots.Quorum, core.StageCommit, e.View, e.Seq, d) {
			proof := &types.CommitProof{View: e.View, Seq: e.Seq, Digest: d, Special: "catch-up-cert",
				Voters: append([]types.NodeID(nil), e.Cert.Signers...)}
			p.keepCert(e.Seq, e.Cert)
			p.env.Commit(e.View, e.Seq, e.Batch, proof)
			p.dropCatchup(e.Seq)
			continue
		}
		k := catchupKey{e.Seq, d}
		if p.catchup.Add(k, from, e.Batch) >= p.env.F()+1 {
			votes := p.catchup.Votes(k)
			proof := &types.CommitProof{View: e.View, Seq: e.Seq, Digest: d, Special: "catch-up",
				Voters: core.Senders(votes)}
			p.env.Commit(e.View, e.Seq, votes[0].Val, proof)
			p.dropCatchup(e.Seq)
		}
	}
}

func (p *PBFT) dropCatchup(seq types.SeqNum) {
	p.catchup.Prune(func(k catchupKey) bool { return k.Seq == seq })
}

// closed keeps what a closed stage leaves for view changes and catch-up.
// A slot is prepared once the pre-prepare (the leader's vote) and prepares
// from 2f replicas are in — 2f+1 distinct replicas, the paper's prepared
// predicate — and its prepared certificate is the backups' prepare
// signatures plus the leader's pre-prepare signature. A commit keeps its
// commit certificate, which MAC-mode votes, carrying no signature, do not
// form.
func (p *PBFT) closed(sl *core.Slot[slotExt], stage core.Stage) {
	if stage == core.StageCommit {
		if cert := sl.Certificate(core.StageCommit); cert.Size() >= p.Slots.Quorum {
			p.keepCert(sl.Seq, cert)
		}
	} else if prev := p.preparedProof[sl.Seq]; prev == nil || prev.View < p.View() {
		p.preparedProof[sl.Seq] = &core.CarriedSlot{
			View: p.View(), Seq: sl.Seq, Digest: sl.Digest, Batch: sl.Batch,
			LeaderSig: sl.X.ppSig, Cert: sl.Certificate(core.StagePrepare),
		}
	}
}

// noteHigherView records signature-verified evidence that a peer
// operates at a view above ours and, once f+1 distinct peers do, jumps
// directly to the (f+1)-th highest evidenced view. This is the rejoin
// path for a replica that slept through view changes (crash + restart):
// it cannot replay the NewViewMsg that moved the cluster, but f+1
// distinct authenticated senders at higher views guarantee at least one
// honest replica reached its view through a certified view change.
func (p *PBFT) noteHigherView(from types.NodeID, v types.View) {
	if p.viewEvidence == nil {
		p.viewEvidence = make(map[types.NodeID]types.View)
	}
	if v <= p.viewEvidence[from] {
		return
	}
	p.viewEvidence[from] = v
	if len(p.viewEvidence) <= p.env.F() {
		return
	}
	views := make([]types.View, 0, len(p.viewEvidence))
	for _, ev := range p.viewEvidence {
		views = append(views, ev)
	}
	sort.Slice(views, func(i, j int) bool { return views[i] > views[j] })
	if target := views[p.env.F()]; target > p.View() {
		p.jumpToView(target)
	}
}

// jumpToView adopts view v without running our own view change — the
// same entered-view reset an installed new view gets from the kit — then pulls
// the committed slots we missed while dark.
func (p *PBFT) jumpToView(v types.View) {
	p.env.Logf("view sync: jumping from view %d to %d on f+1 higher-view evidence", p.View(), v)
	p.vc.Enter(v)
	p.requestCatchup()
	p.viewEvidence = make(map[types.NodeID]types.View)
}

// keepCert retains a slot's commit certificate for catch-up — but only
// the certificate of the commit that creates the ledger entry. A slot
// re-proposed across a view change can be decided again in a later view;
// that quorum signed the later view, and a certificate over it would not
// verify against the entry's view that catch-up reports, leaving a lagging
// peer unable to adopt the slot from this replica alone.
func (p *PBFT) keepCert(seq types.SeqNum, cert *crypto.Certificate) {
	if p.env.Ledger().Get(seq) == nil {
		p.commitCerts[seq] = cert
	}
}

// OnExecuted implements core.Protocol: reply to clients (the runtime
// caches the signed reply for retransmissions), service the checkpoint
// manager, and keep the progress timer honest.
func (p *PBFT) OnExecuted(seq types.SeqNum, batch *types.Batch, results [][]byte) {
	delete(p.preparedProof, seq)
	p.dropCatchup(seq)
	p.Slots.Executed(seq, batch, results)
	p.maybePropose()
}

// OnTimer implements core.Protocol.
func (p *PBFT) OnTimer(id core.TimerID) {
	switch id.Name {
	case timerBatch:
		p.batchArmed = false
		if p.backlog.Len() > 0 {
			p.proposeBatch()
		}
	case timerProgress:
		if p.backlog.Expired(id) {
			// A committed-but-gapped ledger means we may simply have
			// missed slots on a lossy network — fetch them — but the
			// gap can also be a slot nobody committed, which only a
			// view change can re-propose. Do both.
			led := p.env.Ledger()
			if led.Len() > 0 && led.NextExecutable() == nil {
				p.requestCatchup()
			}
			p.vc.Start(p.View() + 1)
		}
	case core.TimerRetry: // τ2: consecutive view changes
		if p.vc.RetryDue(id) {
			// Exponential backoff, capped: with message loss a view
			// change round may need several attempts, and an unbounded
			// timeout would effectively halt the replica.
			if p.vc.RetryAfter < 4*p.env.Config().ViewChangeTimeout {
				p.vc.RetryAfter *= 2
			}
			p.vc.Retry(id)
		}
	case timerDelay:
		// Attack injection: release the withheld proposal.
		if pp := p.delayed[id.Seq]; pp != nil && pp.View == p.View() {
			p.env.Broadcast(pp)
		}
		delete(p.delayed, id.Seq)
	case timerRejuvenate:
		p.rejuvenate()
	}
}

// rejuvenate implements proactive recovery (P5): discard volatile
// ordering state and continue from the durable log. In-flight slots are
// re-proposed by the leader or recovered through the next view change.
func (p *PBFT) rejuvenate() {
	p.Slots.Reset()
	p.vc.Forget()
	p.backlog.Progress()
	p.env.SetTimer(core.TimerID{Name: timerRejuvenate}, p.opts.RejuvenationInterval)
}
