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
	timerBatch      = "batch"
	timerProgress   = "progress" // τ2 on replicas
	timerVCRetry    = "vc-retry"
	timerClientWait = "client-wait" // τ1 on clients
)

// OrderReqMsg is the leader's speculative assignment (the single phase).
type OrderReqMsg struct {
	View   types.View
	Seq    types.SeqNum
	Digest types.Digest
	Batch  *types.Batch
	Sig    []byte
}

// Kind implements types.Message.
func (*OrderReqMsg) Kind() string { return "ORDER-REQ" }

// Slot implements obsv.Slotted.
func (m *OrderReqMsg) Slot() (types.View, types.SeqNum) { return m.View, m.Seq }

// SigDigest is the signed content.
func (m *OrderReqMsg) SigDigest() types.Digest {
	var h types.Hasher
	h.Str("zyz-orderreq").U64(uint64(m.View)).U64(uint64(m.Seq)).Digest(m.Digest)
	return h.Sum()
}

// SigClaims implements crypto.SigClaimer: the leader's signature, which
// receivers verify against the sender.
func (m *OrderReqMsg) SigClaims(from types.NodeID) []crypto.SigClaim {
	return []crypto.SigClaim{{Signer: from, Digest: m.SigDigest(), Sig: m.Sig}}
}

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

// CheckpointMsg carries a replica's history digest at a sequence number;
// 2f+1 matching digests commit the prefix (Zyzzyva's lazy commitment).
type CheckpointMsg struct {
	Seq     types.SeqNum
	History types.Digest
	Replica types.NodeID
	Sig     []byte
}

// Kind implements types.Message.
func (*CheckpointMsg) Kind() string { return "ZYZ-CHECKPOINT" }

// SigDigest is the signed content.
func (m *CheckpointMsg) SigDigest() types.Digest {
	var h types.Hasher
	h.Str("zyz-cp").U64(uint64(m.Seq)).Digest(m.History).U64(uint64(m.Replica))
	return h.Sum()
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

// slotExt marks a slot as speculatively executed; assigned slots without
// the mark wait for the order-requests before them.
type slotExt struct{ executed bool }

// Zyzzyva is the replica state machine.
type Zyzzyva struct {
	env  core.Env
	opts Options

	// backlog is the request intake and τ2 timer; vc the view-change
	// stage, which owns the current view; Slots holds the assigned
	// order-requests above the commit point — Zyzzyva has no voting stage,
	// the client counts — and whether each was speculatively executed
	// (all from the core kit).
	backlog *core.Backlog
	vc      *core.ViewChange
	Slots   *core.Slots[slotExt]

	// clientCerts retains verified client commit certificates per slot
	// until the slot executes well below the spec horizon.
	clientCerts map[types.SeqNum]*CommitMsg

	// cpVotes tallies history digests per checkpoint window.
	cpVotes core.Tally[types.SeqNum, types.Digest]
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

// Init implements core.Protocol.
func (z *Zyzzyva) Init(env core.Env) {
	z.env = env
	z.clientCerts = make(map[types.SeqNum]*CommitMsg)
	z.backlog = core.NewBacklog(env, timerProgress)
	// The commit quorum is the profile's: 2f+1, or 3f+1 for Zyzzyva5.
	profile := core.ZyzzyvaProfile()
	if z.opts.Five {
		profile = core.Zyzzyva5Profile()
	}
	z.vc = core.NewViewChange(env, z.backlog, timerVCRetry, profile.QuorumSize(env.F()), z.viewChangeHooks())
	z.Slots = core.NewSlots[slotExt](env, profile, z.backlog, z.vc, nil)
}

// View returns the current view.
func (z *Zyzzyva) View() types.View { return z.vc.View() }

// OnRequest implements core.Protocol.
func (z *Zyzzyva) OnRequest(req *types.Request) {
	if z.backlog.Submit(req, z.vc.Leader()) && !z.opts.SilentLeader {
		z.maybePropose()
	}
}

func (z *Zyzzyva) maybePropose() {
	z.Slots.Propose(func(seq types.SeqNum, batch *types.Batch) {
		or := &OrderReqMsg{View: z.View(), Seq: seq, Digest: batch.Digest(), Batch: batch}
		or.Sig = z.env.Signer().Sign(or.SigDigest())
		z.env.Broadcast(or)
		z.acceptOrderReq(or)
	})
}

// acceptOrderReq speculatively executes contiguous assignments and
// answers clients directly (Figure "spec response" path).
func (z *Zyzzyva) acceptOrderReq(or *OrderReqMsg) {
	if z.Slots.Accept(or.View, or.Seq, or.Digest, or.Batch) == nil {
		return
	}
	for {
		next := z.Slots.Get(z.specTip() + 1)
		if next == nil || next.Batch == nil || !z.execSpeculative(next) {
			return
		}
	}
}

func (z *Zyzzyva) specTip() types.SeqNum {
	tip := z.env.Ledger().LastExecuted()
	for sl := range z.Slots.All() {
		if sl.X.executed && sl.Seq > tip {
			tip = sl.Seq
		}
	}
	return tip
}

func (z *Zyzzyva) execSpeculative(sl *core.Slot[slotExt]) bool {
	results := z.env.SpecExecute(sl.Seq, sl.Batch)
	if results == nil {
		return false
	}
	sl.X.executed = true
	for i, req := range sl.Batch.Requests {
		res := results[i]
		if z.opts.CorruptBackup {
			res = []byte("corrupt")
		}
		z.env.Reply(&types.Reply{
			Client:      req.Client,
			ClientSeq:   req.ClientSeq,
			View:        z.View(),
			Seq:         sl.Seq,
			Result:      res,
			Speculative: true,
			History:     z.env.HistoryDigest(),
		})
	}
	z.backlog.Progress() // the leader is making progress
	// Lazy commitment: exchange history digests at checkpoint windows.
	iv := z.env.Config().CheckpointInterval
	if iv > 0 && uint64(sl.Seq)%iv == 0 {
		cp := &CheckpointMsg{Seq: sl.Seq, History: z.env.HistoryDigest(), Replica: z.env.ID()}
		cp.Sig = z.env.Signer().Sign(cp.SigDigest())
		z.env.Broadcast(cp)
		z.recordCheckpoint(z.env.ID(), cp)
	}
	return true
}

// commitPrefix durably commits every speculative slot up to seq.
func (z *Zyzzyva) commitPrefix(seq types.SeqNum, voters []types.NodeID) {
	for s := z.env.Ledger().LastExecuted() + 1; s <= seq; s++ {
		sl := z.Slots.Get(s)
		if sl == nil || !sl.X.executed {
			return
		}
		proof := &types.CommitProof{View: z.View(), Seq: s, Digest: sl.Digest,
			Voters: append([]types.NodeID(nil), voters...)}
		z.env.Commit(z.View(), s, sl.Batch, proof)
	}
}

func (z *Zyzzyva) recordCheckpoint(from types.NodeID, m *CheckpointMsg) {
	z.cpVotes.Add(m.Seq, from, m.History)
	// Only a quorum on our own history commits anything, so that is the
	// one value worth counting — on every vote, since our speculative tip
	// may reach m.Seq after the quorum formed.
	if voters := core.Backers(&z.cpVotes, m.Seq, z.historyAt(m.Seq)); len(voters) >= z.Slots.Quorum {
		z.commitPrefix(m.Seq, voters)
		z.cpVotes.Delete(m.Seq)
	}
}

// historyAt returns our history digest if our speculative tip is exactly
// seq (the only point at which we can compare).
func (z *Zyzzyva) historyAt(seq types.SeqNum) types.Digest {
	if z.specTip() >= seq {
		return z.env.HistoryDigest() // approximation: tips beyond seq share the prefix
	}
	return types.Digest{0xff}
}

// OnMessage implements core.Protocol.
func (z *Zyzzyva) OnMessage(from types.NodeID, m types.Message) {
	if z.vc.OnMessage(from, m) {
		return
	}
	switch mm := m.(type) {
	case *core.ForwardMsg:
		z.OnRequest(mm.Req)
	case *OrderReqMsg:
		if from != z.env.Config().LeaderOf(mm.View) {
			return
		}
		if !z.env.Verifier().VerifySig(from, mm.SigDigest(), mm.Sig) {
			return
		}
		z.acceptOrderReq(mm)
	case *CommitMsg:
		z.onCommitCert(from, mm)
	case *CheckpointMsg:
		if mm.Replica != from {
			return
		}
		if !z.env.Verifier().VerifySig(from, mm.SigDigest(), mm.Sig) {
			return
		}
		z.recordCheckpoint(from, mm)
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
	if z.specTip() >= m.Seq {
		z.commitPrefix(m.Seq, m.Cert.Signers)
	}
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
	z.Slots.Executed(seq, batch, results, true)
	z.maybePropose()
}
