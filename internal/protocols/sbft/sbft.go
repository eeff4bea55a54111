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
	"bftkit/internal/crypto"
	"bftkit/internal/types"
)

// Timer names.
const (
	timerBatch    = "batch"
	timerFastPath = "fastpath" // τ3: detecting backup failures
	timerProgress = "progress" // τ2: trigger view change
	timerVCRetry  = "vc-retry"
)

// PrePrepareMsg is the leader's proposal (phase 1, linear).
type PrePrepareMsg struct {
	View   types.View
	Seq    types.SeqNum
	Digest types.Digest
	Batch  *types.Batch
	Sig    []byte
}

// Kind implements types.Message.
func (*PrePrepareMsg) Kind() string { return "SBFT-PRE-PREPARE" }

// Slot implements obsv.Slotted.
func (m *PrePrepareMsg) Slot() (types.View, types.SeqNum) { return m.View, m.Seq }

// SigDigest is the signed content.
func (m *PrePrepareMsg) SigDigest() types.Digest {
	var h types.Hasher
	h.Str("sbft-preprepare").U64(uint64(m.View)).U64(uint64(m.Seq)).Digest(m.Digest)
	return h.Sum()
}

// SigClaims implements crypto.SigClaimer: the leader's signature, which
// receivers verify against the sender.
func (m *PrePrepareMsg) SigClaims(from types.NodeID) []crypto.SigClaim {
	return []crypto.SigClaim{{Signer: from, Digest: m.SigDigest(), Sig: m.Sig}}
}

// shareDigest is what replicas sign when accepting an assignment.
func shareDigest(stage string, v types.View, seq types.SeqNum, d types.Digest) types.Digest {
	var h types.Hasher
	h.Str("sbft-share").Str(stage).U64(uint64(v)).U64(uint64(seq)).Digest(d)
	return h.Sum()
}

// ShareMsg carries one replica's signed share to the collector (phase 2,
// linear). Stage is "sign" (first round) or "commit" (slow path round).
type ShareMsg struct {
	Stage   string
	View    types.View
	Seq     types.SeqNum
	Digest  types.Digest
	Replica types.NodeID
	Sig     []byte
}

// Kind implements types.Message.
func (m *ShareMsg) Kind() string { return "SBFT-SHARE-" + m.Stage }

// Slot implements obsv.Slotted.
func (m *ShareMsg) Slot() (types.View, types.SeqNum) { return m.View, m.Seq }

// SigClaims implements crypto.SigClaimer: the share signature, which
// the collector verifies against the sender.
func (m *ShareMsg) SigClaims(from types.NodeID) []crypto.SigClaim {
	return []crypto.SigClaim{{Signer: from, Digest: shareDigest(m.Stage, m.View, m.Seq, m.Digest), Sig: m.Sig}}
}

// ProofMsg broadcasts a collector certificate. Stage is "prepare" (slow
// path, 2f+1 sign shares), "commit" (slow path, 2f+1 commit shares) or
// "fast-commit" (fast path, all 3f+1 sign shares).
type ProofMsg struct {
	Stage  string
	View   types.View
	Seq    types.SeqNum
	Digest types.Digest
	Cert   *crypto.Certificate
	Sig    []byte
}

// Kind implements types.Message.
func (m *ProofMsg) Kind() string { return "SBFT-PROOF-" + m.Stage }

// Slot implements obsv.Slotted.
func (m *ProofMsg) Slot() (types.View, types.SeqNum) { return m.View, m.Seq }

// EncodedSize implements sim.Sizer so the threshold model holds.
func (m *ProofMsg) EncodedSize() int {
	size := 64 + crypto.SigSize
	if m.Cert != nil {
		size += m.Cert.EncodedSize()
	}
	return size
}

// SigDigest is the signed content.
func (m *ProofMsg) SigDigest() types.Digest {
	var h types.Hasher
	h.Str("sbft-proof").Str(m.Stage).U64(uint64(m.View)).U64(uint64(m.Seq)).Digest(m.Digest)
	return h.Sum()
}

// SigClaims implements crypto.SigClaimer: the collector's signature,
// which receivers verify against the sender.
func (m *ProofMsg) SigClaims(from types.NodeID) []crypto.SigClaim {
	return []crypto.SigClaim{{Signer: from, Digest: m.SigDigest(), Sig: m.Sig}}
}

// Options tunes an SBFT instance.
type Options struct {
	// SilentBackup makes this replica withhold its shares, forcing the
	// cluster onto the slow path (the DC6 fallback).
	SilentBackup bool
	// FastPathWait overrides τ3 (zero uses 4× the network batch
	// timeout, a pragmatic default for the simulator).
	FastPathWait time.Duration
}

// The two share stages the collector tallies (ShareMsg.Stage on the wire).
const (
	stageSign   = "sign"
	stageCommit = "commit"
)

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
	s.vc = core.NewViewChange(env, s.backlog, timerVCRetry, env.Config().Quorum(), s.viewChangeHooks())
	s.Slots = core.NewSlots[slotExt](env, core.SBFTProfile(), s.backlog, s.vc, s.cm, stageSign, stageCommit)
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
	s.Slots.Propose(func(seq types.SeqNum, batch *types.Batch) {
		pp := &PrePrepareMsg{View: s.View(), Seq: seq, Digest: batch.Digest(), Batch: batch}
		pp.Sig = s.env.Signer().Sign(pp.SigDigest())
		s.env.Broadcast(pp)
		s.acceptPrePrepare(pp)
		// Arm τ3: if not all shares arrive in time, fall back.
		s.env.SetTimer(core.TimerID{Name: timerFastPath, Seq: seq, View: s.View()}, s.opts.FastPathWait)
	})
}

func (s *SBFT) acceptPrePrepare(pp *PrePrepareMsg) {
	if s.Slots.Accept(pp.View, pp.Seq, pp.Digest, pp.Batch) != nil && !s.opts.SilentBackup {
		s.sendShare(stageSign, pp.View, pp.Seq, pp.Digest)
	}
}

// sendShare signs this replica's share for a stage and hands it to the
// collector.
func (s *SBFT) sendShare(stage string, v types.View, seq types.SeqNum, d types.Digest) {
	share := &ShareMsg{Stage: stage, View: v, Seq: seq, Digest: d,
		Replica: s.env.ID(), Sig: s.env.Signer().Sign(shareDigest(stage, v, seq, d))}
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
	case *PrePrepareMsg:
		if from != s.env.Config().LeaderOf(mm.View) {
			return
		}
		if !s.env.Verifier().VerifySig(from, mm.SigDigest(), mm.Sig) {
			return
		}
		s.acceptPrePrepare(mm)
	case *ShareMsg:
		if mm.Replica != from {
			return
		}
		sd := shareDigest(mm.Stage, mm.View, mm.Seq, mm.Digest)
		if !s.env.Verifier().VerifySig(from, sd, mm.Sig) {
			return
		}
		s.onShare(from, mm)
	case *ProofMsg:
		if from != s.env.Config().LeaderOf(mm.View) {
			return
		}
		if !s.env.Verifier().VerifySig(from, mm.SigDigest(), mm.Sig) {
			return
		}
		s.onProof(mm)
	}
}

func (s *SBFT) onShare(from types.NodeID, m *ShareMsg) {
	if !s.vc.Leading() {
		return
	}
	sl := s.Slots.Vote(m.Stage, m.View, m.Seq, from, m.Digest, m.Sig)
	if sl == nil || sl.X.commitSent {
		return
	}
	switch {
	case m.Stage == stageSign && sl.Reached(stageSign, s.env.N()):
		// Fast path: everyone answered before τ3.
		s.env.StopTimer(core.TimerID{Name: timerFastPath, Seq: m.Seq, View: m.View})
		sl.X.commitSent = true
		s.sendProof("fast-commit", sl, stageSign)
	case m.Stage == stageCommit && sl.Reached(stageCommit, s.Slots.Quorum):
		sl.X.commitSent = true
		s.sendProof("commit", sl, stageCommit)
	}
}

// sendProof broadcasts the certificate over every share of shareStage the
// collector holds for the slot's digest.
func (s *SBFT) sendProof(stage string, sl *slot, shareStage string) {
	cert := sl.Certificate(shareStage, shareDigest(shareStage, s.View(), sl.Seq, sl.Digest))
	cert.Threshold = s.env.Scheme() == crypto.SchemeThreshold
	proof := &ProofMsg{Stage: stage, View: s.View(), Seq: sl.Seq, Digest: sl.Digest, Cert: cert}
	proof.Sig = s.env.Signer().Sign(proof.SigDigest())
	s.env.Broadcast(proof)
	s.onProof(proof)
}

func (s *SBFT) onProof(m *ProofMsg) {
	if m.View != s.View() || s.vc.Active() {
		return
	}
	// Without the batch a proof cannot be acted on; the batch arrives
	// through the new view or checkpoint catch-up.
	sl := s.Slots.Get(m.Seq)
	if sl == nil || sl.Batch == nil || sl.Digest != m.Digest || sl.X.committed {
		return
	}
	need := s.Slots.Quorum
	shareStage := stageCommit
	switch m.Stage {
	case "fast-commit":
		need = s.env.N()
		shareStage = stageSign
	case "prepare":
		shareStage = stageSign
	}
	want := shareDigest(shareStage, m.View, m.Seq, m.Digest)
	if m.Cert == nil || m.Cert.Digest != want || m.Cert.Verify(s.env.Verifier(), need) != nil {
		return
	}
	switch m.Stage {
	case "fast-commit", "commit":
		sl.X.committed = true
		if m.Stage == "fast-commit" {
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
	case "prepare":
		// Slow path round two: return a commit share.
		if prev := s.preparedProof[m.Seq]; prev == nil || prev.View < m.View {
			s.preparedProof[m.Seq] = &core.CarriedSlot{
				View: m.View, Seq: m.Seq, Digest: m.Digest, Batch: sl.Batch, Cert: m.Cert,
			}
		}
		if !s.opts.SilentBackup {
			s.sendShare(stageCommit, m.View, m.Seq, m.Digest)
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
		if sl.Count(stageSign) >= s.Slots.Quorum {
			sl.X.prepareSent = true
			s.sendProof("prepare", sl, stageSign)
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
	s.Slots.Executed(seq, batch, results, true)
	s.maybePropose()
}
