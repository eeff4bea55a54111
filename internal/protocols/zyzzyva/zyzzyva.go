// Package zyzzyva implements Zyzzyva-style speculative BFT [120], design
// choice 8: the leader's order-request is the only ordering phase;
// replicas execute speculatively and answer the client directly, and the
// client is responsible for verifying agreement — 3f+1 matching
// speculative replies complete a request on the fast path. With fewer
// matches the client turns repairer (dimension P6): it assembles a commit
// certificate from 2f+1 matching replies and drives replicas to local
// commit. Replicas otherwise commit lazily at checkpoints by exchanging
// history digests.
//
// Zyzzyva5 (design choice 10) runs the same code with 5f+1 replicas and a
// 4f+1 fast quorum, keeping the fast path alive with up to f faulty
// replicas.
//
// Rollback: a speculative slot that loses a view change is undone through
// the runtime's undo log and re-executed in the decided order; committed
// slots always survive by the f+1-intersection argument on view-change
// quorums.
package zyzzyva

import (
	"bftkit/internal/core"
	"bftkit/internal/crypto"
	"bftkit/internal/types"
)

// Timer names.
const (
	timerProgress   = "progress"    // τ2 on replicas
	timerClientWait = "client-wait" // τ1 on clients
)

// CommitMsg is the repairer client's commit certificate: 2f+1 matching
// speculative replies prove the slot's position in the history.
type CommitMsg struct {
	Client    types.NodeID
	ClientSeq uint64
	Seq       types.SeqNum
	View      types.View
	History   types.Digest
	Result    []byte
	Cert      *crypto.Certificate
}

// Kind implements types.Message.
func (*CommitMsg) Kind() string { return "ZYZ-COMMIT" }

// Slot implements obsv.Slotted.
func (m *CommitMsg) Slot() (types.View, types.SeqNum) { return m.View, m.Seq }

// RequestRef implements obsv.Keyed.
func (m *CommitMsg) RequestRef() types.RequestKey {
	return types.RequestKey{Client: m.Client, ClientSeq: m.ClientSeq}
}

// SigDigest implements core.Evidence: what a view-change sender signs when
// it relays the certificate.
func (m *CommitMsg) SigDigest() types.Digest {
	var h types.Hasher
	h.Str("zyz-commit").U64(uint64(m.Client)).U64(m.ClientSeq).U64(uint64(m.Seq)).U64(uint64(m.View)).
		Digest(m.History).Bytes(m.Result)
	m.Cert.HashInto(&h)
	return h.Sum()
}

// LocalCommitMsg acknowledges a commit certificate.
type LocalCommitMsg struct {
	Seq       types.SeqNum
	Client    types.NodeID
	ClientSeq uint64
	Replica   types.NodeID
}

// Kind implements types.Message.
func (*LocalCommitMsg) Kind() string { return "LOCAL-COMMIT" }

// Slot implements obsv.Slotted.
func (m *LocalCommitMsg) Slot() (types.View, types.SeqNum) { return 0, m.Seq }

// RequestRef implements obsv.Keyed.
func (m *LocalCommitMsg) RequestRef() types.RequestKey {
	return types.RequestKey{Client: m.Client, ClientSeq: m.ClientSeq}
}

// Options tunes a Zyzzyva replica.
type Options struct {
	// Five selects the Zyzzyva5 thresholds (n−f fast path).
	Five bool
	// SilentLeader drops client requests (attack injection).
	SilentLeader bool
	// CorruptBackup makes this backup return wrong results to clients,
	// which must still complete via the commit-certificate path.
	CorruptBackup bool
}

// Zyzzyva is the replica state machine.
type Zyzzyva struct {
	env  core.Env
	opts Options

	// backlog is the request intake and τ2 timer; vc the view-change
	// stage, which owns the current view; Slots holds the assigned
	// order-requests above the commit point — Zyzzyva has no voting stage,
	// the client counts — and executes them speculatively (all from the
	// core kit).
	backlog *core.Backlog
	vc      *core.ViewChange
	Slots   *core.Slots[struct{}]

	// clientCerts retains verified client commit certificates per slot
	// until the slot executes well below the spec horizon.
	clientCerts map[types.SeqNum]*CommitMsg
}

// New returns a Zyzzyva replica.
func New(cfg core.Config) core.Protocol { return NewWithOptions(cfg, Options{}) }

// NewWithOptions returns a replica with explicit options.
func NewWithOptions(_ core.Config, opts Options) core.Protocol {
	return &Zyzzyva{opts: opts}
}

func init() {
	core.Register(core.Registration{
		Name:       "zyzzyva",
		Profile:    core.ZyzzyvaProfile(),
		NewReplica: New,
		NewClient: func(cfg core.Config) core.ClientProtocol {
			return NewClient(cfg.N, 2*cfg.F+1)
		},
	})
	core.Register(core.Registration{
		Name:    "zyzzyva5",
		Profile: core.Zyzzyva5Profile(),
		NewReplica: func(cfg core.Config) core.Protocol {
			return NewWithOptions(cfg, Options{Five: true})
		},
		NewClient: func(cfg core.Config) core.ClientProtocol {
			return NewClient(cfg.N-cfg.F, 3*cfg.F+1)
		},
	})
}

// corruptReplies is a CorruptBackup replica's environment: its speculative
// replies carry a wrong result.
type corruptReplies struct{ core.Env }

func (e corruptReplies) Reply(r *types.Reply) {
	if r.Speculative {
		r.Result = []byte("corrupt")
	}
	e.Env.Reply(r)
}

// Init implements core.Protocol.
func (z *Zyzzyva) Init(env core.Env) {
	if z.opts.CorruptBackup {
		env = corruptReplies{env}
	}
	z.env = env
	z.clientCerts = make(map[types.SeqNum]*CommitMsg)
	z.backlog = core.NewBacklog(env, timerProgress)
	// The commit quorum is the profile's: 2f+1, or 3f+1 for Zyzzyva5.
	profile := core.ZyzzyvaProfile()
	if z.opts.Five {
		profile = core.Zyzzyva5Profile()
	}
	z.vc = core.NewViewChange(env, z.backlog, profile.QuorumSize(env.F()), z.viewChangeHooks())
	z.Slots = core.NewSlots[struct{}](env, profile, z.backlog, z.vc, nil)
}

// View returns the current view.
func (z *Zyzzyva) View() types.View { return z.vc.View() }

// OnRequest implements core.Protocol.
func (z *Zyzzyva) OnRequest(req *types.Request) {
	if z.backlog.Submit(req, z.vc.Leader()) && !z.opts.SilentLeader {
		z.maybePropose()
	}
}

func (z *Zyzzyva) maybePropose() { z.Slots.Propose(z.Slots.Issue) }

// OnMessage implements core.Protocol.
func (z *Zyzzyva) OnMessage(from types.NodeID, m types.Message) {
	if z.vc.OnMessage(from, m) || z.Slots.OnMessage(from, m) {
		return
	}
	switch mm := m.(type) {
	case *core.ForwardMsg:
		z.OnRequest(mm.Req)
	case *CommitMsg:
		z.onCommitCert(from, mm)
	}
}

// onCommitCert handles the repairer client's certificate: 2f+1 matching
// signed speculative replies commit the prefix.
func (z *Zyzzyva) onCommitCert(from types.NodeID, m *CommitMsg) {
	if !z.verifyClientCert(m) {
		return
	}
	z.clientCerts[m.Seq] = m
	// Commit our prefix if we hold the same speculative history.
	z.Slots.CommitSpeculated(m.Seq, m.Cert.Signers)
	z.env.Send(from, &LocalCommitMsg{Seq: m.Seq, Client: m.Client, ClientSeq: m.ClientSeq, Replica: z.env.ID()})
}

// verifyClientCert checks a client commit certificate: 2f+1 distinct
// valid signatures over exactly the matching reply digest.
func (z *Zyzzyva) verifyClientCert(m *CommitMsg) bool {
	if m == nil || m.Cert == nil {
		return false
	}
	probe := &types.Reply{
		Client: m.Client, ClientSeq: m.ClientSeq, Seq: m.Seq, View: m.View,
		Result: m.Result, Speculative: true, History: m.History,
	}
	return m.Cert.Digest == probe.Digest() && m.Cert.Verify(z.env.Verifier(), z.Slots.Quorum) == nil
}

// OnTimer implements core.Protocol.
func (z *Zyzzyva) OnTimer(id core.TimerID) {
	z.vc.OnTimer(id)
}

// OnExecuted implements core.Protocol: commit-path execution (promoted
// speculative slots or re-executed decided batches).
func (z *Zyzzyva) OnExecuted(seq types.SeqNum, batch *types.Batch, results [][]byte) {
	for cs := range z.clientCerts {
		if cs+64 < seq {
			delete(z.clientCerts, cs)
		}
	}
	// Committed (non-speculative) replies: they let clients finish with
	// f+1 matches when the fast path fell apart (e.g. after a view change
	// re-executed the slot).
	z.Slots.Executed(seq, batch, results)
	z.maybePropose()
}
