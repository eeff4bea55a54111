// Package sbft implements an SBFT-style protocol [101]: PBFT linearized
// through a collector (design choice 1) with an optimistic fast path
// (design choice 6). The leader broadcasts a pre-prepare, replicas return
// signed shares to the leader (collector), and:
//
//   - fast path: if ALL n shares arrive before the backup-failure timer
//     τ3 fires, the leader broadcasts a full-commit proof and replicas
//     commit immediately — two linear phases are skipped;
//   - slow path: when τ3 fires with at least a 2f+1 quorum, the leader
//     broadcasts a prepare proof, collects commit shares, and broadcasts
//     a commit proof.
//
// Both are core.Slots' stage runner, τ3 the sign stage's FastWait. Proofs
// are certificates, constant-size under threshold signatures (DC 11).
// Fast-path latency depends on the slowest replica and on τ3: the
// responsiveness trade-off of dimension E4.
package sbft

import (
	"maps"
	"slices"

	"bftkit/internal/core"
	"bftkit/internal/types"
)

const timerProgress = "progress" // τ2: triggers a view change

// SBFT is the protocol state machine for one replica.
type SBFT struct {
	env core.Env
	cm  *core.CheckpointManager

	// The core kit: request intake and τ2, view change, ordering.
	backlog *core.Backlog
	vc      *core.ViewChange
	Slots   *core.Slots[struct{}]

	// Certificates kept across views.
	preparedProof map[types.SeqNum]*core.CarriedSlot
	commitCerts   map[types.SeqNum]*core.CommittedSlot

	// FastCommits / SlowCommits count per-path decisions (X6 reads them).
	FastCommits int
	SlowCommits int
}

// New returns an SBFT replica.
func New(core.Config) core.Protocol { return &SBFT{} }

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
	// Sign shares to the collector, with the fast path and τ3 = 4× the
	// batch timeout; then, on the slow path, commit shares.
	profile := core.SBFTProfile()
	s.Slots = core.NewSlots[struct{}](env, profile, s.backlog, s.vc, s.cm,
		core.StageSpec{Stage: core.StageSign, Voters: core.VotersAll, Collect: true, Quorum: profile.Quorum,
			FastWait: 4 * env.Config().BatchTimeout},
		core.StageSpec{Stage: core.StageCommit, Voters: core.VotersAll, Collect: true, Quorum: profile.Quorum})
	s.Slots.Closed = s.prepared
	s.Slots.Committed = s.committed
}

// OnRequest implements core.Protocol.
func (s *SBFT) OnRequest(req *types.Request) {
	if s.backlog.Submit(req, s.vc.Leader()) {
		s.maybePropose()
	}
}

func (s *SBFT) maybePropose() { s.Slots.Propose() }

// OnMessage implements core.Protocol.
func (s *SBFT) OnMessage(from types.NodeID, m types.Message) {
	if s.cm.OnMessage(from, m) || s.vc.OnMessage(from, m) || s.Slots.OnMessage(from, m) {
		return
	}
	if mm, ok := m.(*core.ForwardMsg); ok {
		s.OnRequest(mm.Req)
	}
}

// prepared keeps the slow path's prepare certificate (a quorum of sign
// shares) for the next view change.
func (s *SBFT) prepared(sl *core.Slot[struct{}], stage core.Stage, cm *core.CertMsg) {
	if prev := s.preparedProof[sl.Seq]; stage == core.StageSign && (prev == nil || prev.View < cm.View) {
		s.preparedProof[sl.Seq] = &core.CarriedSlot{View: cm.View, Seq: sl.Seq, Digest: sl.Digest, Batch: sl.Batch, Cert: cm.Cert}
	}
}

// committed counts the path a decision took (a fast commit leaves the
// commit stage open) and retains its certificate, which is transferable:
// view changes carry it to lagging replicas.
func (s *SBFT) committed(sl *core.Slot[struct{}], proof *types.CommitProof) {
	if sl.Past(core.StageCommit) {
		s.SlowCommits++
	} else {
		s.FastCommits++
	}
	cert := sl.Cert()
	s.commitCerts[sl.Seq] = &core.CommittedSlot{View: proof.View, Seq: sl.Seq, Batch: sl.Batch, Cert: cert,
		Voters: slices.Clone(cert.Signers)}
}

// OnTimer implements core.Protocol.
func (s *SBFT) OnTimer(id core.TimerID) {
	if !s.Slots.OnTimer(id) {
		s.vc.OnTimer(id)
	}
}

// OnExecuted implements core.Protocol.
func (s *SBFT) OnExecuted(seq types.SeqNum, batch *types.Batch, results [][]byte) {
	delete(s.preparedProof, seq)
	maps.DeleteFunc(s.commitCerts, func(cs types.SeqNum, _ *core.CommittedSlot) bool { return cs <= s.env.Ledger().LowWater() })
	s.Slots.Executed(seq, batch, results)
	s.maybePropose()
}
