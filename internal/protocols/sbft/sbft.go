// Package sbft implements an SBFT-style protocol [101]: PBFT linearized
// through a collector (design choice 1) with an optimistic fast path
// (design choice 6). The leader broadcasts a pre-prepare, replicas return
// signed shares to the leader (collector), and:
//
//   - fast path: if ALL 3f+1 shares arrive before the backup-failure
//     timer τ3 fires, the leader broadcasts a full-commit proof and
//     replicas commit immediately — two linear phases are skipped;
//   - slow path: when τ3 fires with at least a 2f+1 quorum, the leader
//     broadcasts a prepare proof, collects commit shares, and broadcasts
//     a commit proof — the linearized equivalent of PBFT's prepare and
//     commit phases.
//
// Quorum proofs are certificates that become constant-size under the
// threshold-signature model (DC 11). Waiting for all replicas costs
// responsiveness: fast-path latency depends on the slowest replica and on
// τ3, exactly the trade-off dimension E4 describes.
package sbft

import (
	"time"

	"bftkit/internal/core"
	"bftkit/internal/types"
)

// Timer names.
const (
	timerBatch    = "batch"
	timerFastPath = "fastpath" // τ3: detecting backup failures
	timerProgress = "progress" // τ2: trigger view change
)

// Options tunes an SBFT instance.
type Options struct {
	// SilentBackup makes this replica withhold its shares, forcing the
	// cluster onto the slow path (the DC6 fallback).
	SilentBackup bool
	// FastPathWait overrides τ3 (zero uses 4× the network batch
	// timeout, a pragmatic default for the simulator).
	FastPathWait time.Duration
}

// slotExt is what an SBFT slot keeps beside the kit's state.
type slotExt struct {
	prepareSent bool // collector: slow-path prepare proof sent
	commitSent  bool // collector: fast-commit or commit proof sent
	committed   bool
}

type slot = core.Slot[slotExt]

// SBFT is the protocol state machine for one replica.
type SBFT struct {
	env  core.Env
	opts Options
	cm   *core.CheckpointManager

	// backlog is the request intake and τ2 timer; vc the view-change
	// stage, which owns the current view; Slots the ordering stage's
	// per-sequence state (all from the core kit).
	backlog *core.Backlog
	vc      *core.ViewChange
	Slots   *core.Slots[slotExt]

	// preparedProof and commitCerts persist across view changes; the
	// per-view slots do not.
	preparedProof map[types.SeqNum]*core.CarriedSlot
	commitCerts   map[types.SeqNum]*core.CommittedSlot

	// FastCommits / SlowCommits count per-path decisions (experiments
	// X6 reads them).
	FastCommits int
	SlowCommits int
}

// New returns an SBFT replica with default options.
func New(cfg core.Config) core.Protocol { return NewWithOptions(cfg, Options{}) }

// NewWithOptions returns an SBFT replica with explicit options.
func NewWithOptions(_ core.Config, opts Options) core.Protocol {
	return &SBFT{opts: opts}
}

func init() {
	core.Register(core.Registration{
		Name:       "sbft",
		Profile:    core.SBFTProfile(),
		NewReplica: New,
	})
}

// Init implements core.Protocol.
func (s *SBFT) Init(env core.Env) {
	s.env = env
	s.cm = core.NewCheckpointManager(env)
	s.preparedProof = make(map[types.SeqNum]*core.CarriedSlot)
	s.commitCerts = make(map[types.SeqNum]*core.CommittedSlot)
	s.backlog = core.NewBacklog(env, timerProgress)
	s.vc = core.NewViewChange(env, s.backlog, env.Config().Quorum(), s.viewChangeHooks())
	// The two share stages the collector tallies, driven by hand (τ3's fork).
	profile := core.SBFTProfile()
	s.Slots = core.NewSlots[slotExt](env, profile, s.backlog, s.vc, s.cm,
		core.StageSpec{Stage: core.StageSign, Voters: core.VotersAll, Collect: true, Quorum: profile.Quorum},
		core.StageSpec{Stage: core.StageCommit, Voters: core.VotersAll, Collect: true, Quorum: profile.Quorum})
	if s.opts.FastPathWait == 0 {
		s.opts.FastPathWait = 4 * env.Config().BatchTimeout
	}
}

// View returns the current view.
func (s *SBFT) View() types.View { return s.vc.View() }

// OnRequest implements core.Protocol.
func (s *SBFT) OnRequest(req *types.Request) {
	if s.backlog.Submit(req, s.vc.Leader()) {
		s.maybePropose()
	}
}

func (s *SBFT) maybePropose() {
	s.Slots.Propose(func(pp *core.ProposeMsg) {
		s.env.Broadcast(pp)
		s.acceptPrePrepare(pp)
		// Arm τ3: if not all shares arrive in time, fall back.
		s.env.SetTimer(core.TimerID{Name: timerFastPath, Seq: pp.Seq, View: s.View()}, s.opts.FastPathWait)
	})
}

func (s *SBFT) acceptPrePrepare(pp *core.ProposeMsg) {
	if s.Slots.Accept(pp) != nil && !s.opts.SilentBackup {
		s.sendShare(core.StageSign, pp.View, pp.Seq, pp.Digest)
	}
}

// sendShare signs this replica's share for a stage and hands it to the
// collector.
func (s *SBFT) sendShare(stage core.Stage, v types.View, seq types.SeqNum, d types.Digest) {
	share := core.NewVote(s.env, stage, v, seq, d)
	if s.vc.Leading() {
		s.onShare(s.env.ID(), share)
	} else {
		s.env.Send(s.vc.Leader(), share)
	}
}

// OnMessage implements core.Protocol.
func (s *SBFT) OnMessage(from types.NodeID, m types.Message) {
	if s.cm.OnMessage(from, m) || s.vc.OnMessage(from, m) {
		return
	}
	switch mm := m.(type) {
	case *core.ForwardMsg:
		s.OnRequest(mm.Req)
	case *core.ProposeMsg:
		if mm.Verify(s.env) {
			s.acceptPrePrepare(mm)
		}
	case *core.VoteMsg:
		if mm.Verify(s.env, from) {
			s.onShare(from, mm)
		}
	case *core.CertMsg:
		if mm.Verify(s.env) {
			s.onProof(mm)
		}
	}
}

func (s *SBFT) onShare(from types.NodeID, m *core.VoteMsg) {
	if !s.vc.Leading() {
		return
	}
	sl := s.Slots.Vote(m.Stage, m.View, m.Seq, from, m.Digest, m.Sig)
	if sl == nil || sl.X.commitSent {
		return
	}
	switch {
	case m.Stage == core.StageSign && sl.Reached(core.StageSign, s.env.N()):
		// Fast path: everyone answered before τ3.
		s.env.StopTimer(core.TimerID{Name: timerFastPath, Seq: m.Seq, View: m.View})
		sl.X.commitSent = true
		s.sendProof(core.StageFastCommit, sl)
	case m.Stage == core.StageCommit && sl.Reached(core.StageCommit, s.Slots.Quorum):
		sl.X.commitSent = true
		s.sendProof(core.StageCommit, sl)
	}
}

// proofShares maps each of SBFT's proofs to the share stage its certificate
// holds, and how many shares that takes: all n sign shares for a fast
// commit, a quorum otherwise.
func (s *SBFT) proofShares(proof core.Stage) (core.Stage, int) {
	switch proof {
	case core.StageFastCommit:
		return core.StageSign, s.env.N()
	case core.StagePrepare:
		return core.StageSign, s.Slots.Quorum
	}
	return core.StageCommit, s.Slots.Quorum
}

// sendProof broadcasts the certificate over every share of the proof's
// share stage the collector holds for the slot's digest.
func (s *SBFT) sendProof(stage core.Stage, sl *slot) {
	shares, _ := s.proofShares(stage)
	proof := sl.Certify(stage, shares)
	s.env.Broadcast(proof)
	s.onProof(proof)
}

func (s *SBFT) onProof(m *core.CertMsg) {
	if m.View != s.View() || s.vc.Active() {
		return
	}
	// Without the batch a proof cannot be acted on; the batch arrives
	// through the new view or checkpoint catch-up.
	sl := s.Slots.Get(m.Seq)
	if sl == nil || sl.Batch == nil || sl.Digest != m.Digest || sl.X.committed {
		return
	}
	shares, need := s.proofShares(m.Stage)
	if !core.VerifyCert(s.env, m.Cert, need, shares, m.View, m.Seq, m.Digest) {
		return
	}
	switch m.Stage {
	case core.StageFastCommit, core.StageCommit:
		sl.X.committed = true
		if m.Stage == core.StageFastCommit {
			s.FastCommits++
		} else {
			s.SlowCommits++
		}
		// The proof certificate is transferable: retain it so view
		// changes can carry this decision to lagging replicas.
		s.commitCerts[m.Seq] = &core.CommittedSlot{
			View: m.View, Seq: m.Seq, Batch: sl.Batch, Cert: m.Cert,
			Voters: append([]types.NodeID(nil), m.Cert.Signers...),
		}
		proof := &types.CommitProof{View: m.View, Seq: m.Seq, Digest: m.Digest,
			Voters: append([]types.NodeID(nil), m.Cert.Signers...)}
		s.env.Commit(m.View, m.Seq, sl.Batch, proof)
	case core.StagePrepare:
		// Slow path round two: return a commit share.
		if prev := s.preparedProof[m.Seq]; prev == nil || prev.View < m.View {
			s.preparedProof[m.Seq] = &core.CarriedSlot{
				View: m.View, Seq: m.Seq, Digest: m.Digest, Batch: sl.Batch, Cert: m.Cert,
			}
		}
		if !s.opts.SilentBackup {
			s.sendShare(core.StageCommit, m.View, m.Seq, m.Digest)
		}
	}
}

// OnTimer implements core.Protocol.
func (s *SBFT) OnTimer(id core.TimerID) {
	switch id.Name {
	case timerFastPath:
		// τ3 fired: some backup is slow or silent; take the slow path
		// with whatever quorum arrived.
		if !s.vc.Leading() || id.View != s.View() {
			return
		}
		sl := s.Slots.Get(id.Seq)
		if sl == nil || sl.X.committed || sl.X.commitSent || sl.X.prepareSent {
			return
		}
		if sl.Count(core.StageSign) >= s.Slots.Quorum {
			sl.X.prepareSent = true
			s.sendProof(core.StagePrepare, sl)
		} else {
			// Not even a quorum: re-arm and hope the network delivers;
			// the backups' progress timers bound this wait.
			s.env.SetTimer(core.TimerID{Name: timerFastPath, Seq: id.Seq, View: id.View}, s.opts.FastPathWait)
		}
	default:
		s.vc.OnTimer(id)
	}
}

// OnExecuted implements core.Protocol.
func (s *SBFT) OnExecuted(seq types.SeqNum, batch *types.Batch, results [][]byte) {
	delete(s.preparedProof, seq)
	for cs := range s.commitCerts {
		if cs <= s.env.Ledger().LowWater() {
			delete(s.commitCerts, cs)
		}
	}
	s.Slots.Executed(seq, batch, results)
	s.maybePropose()
}
