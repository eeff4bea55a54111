// Package hotstuff implements chained HotStuff [189] and its two-phase
// descendant HotStuff-2 [134]: the archetypes of design choices 1 and 3.
// Every phase is linear — replicas vote to a collector (the next leader)
// which aggregates a quorum certificate (QC), so message complexity is
// O(n) per view, paid for with more phases than PBFT. The leader rotates
// every view; there is no separate view-change stage — a new leader picks
// up from the highest QC it knows (DC3). View synchronization is a
// Pacemaker built from timeout messages (τ5).
//
// Commit rules: classic HotStuff commits a block once it heads a
// three-chain of consecutive views (prepare/precommit/commit QCs in the
// chained reading); HotStuff-2 commits on a two-chain, which is safe
// because a leader taking over after a timeout waits Δ before proposing
// (exactly the DC4 trade-off re-appearing one level up).
package hotstuff

import (
	"bftkit/internal/core"
	"bftkit/internal/crypto"
	"bftkit/internal/types"
)

// Timer names.
const (
	timerView  = "view"  // τ5: pacemaker view timer
	timerBatch = "batch" // leader batch formation
	timerDelta = "delta" // HotStuff-2: Δ wait after a timeout-based takeover
)

// QC is a quorum certificate over one block at one view.
type QC struct {
	Block  types.Digest
	View   types.View
	Height types.SeqNum
	Cert   *crypto.Certificate
}

// voteDigest is the content replicas sign when voting for a block.
func voteDigest(block types.Digest, v types.View, h types.SeqNum) types.Digest {
	var hh types.Hasher
	hh.Str("hs-vote").Digest(block).U64(uint64(v)).U64(uint64(h))
	return hh.Sum()
}

// Verify checks the QC carries a quorum of valid vote signatures.
func (qc *QC) Verify(verifier *crypto.Verifier, quorum int) bool {
	if qc == nil || qc.Cert == nil {
		return false
	}
	want := voteDigest(qc.Block, qc.View, qc.Height)
	if qc.Cert.Digest != want {
		return false
	}
	return qc.Cert.Verify(verifier, quorum) == nil
}

// Block is one node of the block chain ("node" in the HotStuff paper).
type Block struct {
	View    types.View
	Height  types.SeqNum
	Parent  types.Digest
	Batch   *types.Batch
	Justify *QC // QC for the parent
}

// Digest identifies the block.
func (b *Block) Digest() types.Digest {
	var h types.Hasher
	h.Str("hs-block").U64(uint64(b.View)).U64(uint64(b.Height)).Digest(b.Parent).Digest(b.Batch.Digest())
	return h.Sum()
}

// ProposalMsg carries a leader's block.
type ProposalMsg struct {
	Block *Block
	Sig   []byte
}

// Kind implements types.Message.
func (*ProposalMsg) Kind() string { return "HS-PROPOSAL" }

// Slot implements obsv.Slotted.
func (m *ProposalMsg) Slot() (types.View, types.SeqNum) {
	if m.Block == nil {
		return 0, 0
	}
	return m.Block.View, m.Block.Height
}

// EncodedSize implements sim.Sizer: a proposal carries one block, one
// certificate (constant-size under the threshold model) and a signature.
func (m *ProposalMsg) EncodedSize() int {
	size := 64 + crypto.SigSize
	if m.Block != nil {
		for _, r := range m.Block.Batch.Requests {
			size += len(r.Op) + 48 + len(r.Sig)
		}
		if m.Block.Justify != nil && m.Block.Justify.Cert != nil {
			size += m.Block.Justify.Cert.EncodedSize()
		}
	}
	return size
}

// SigDigest is the signed content.
func (m *ProposalMsg) SigDigest() types.Digest {
	var h types.Hasher
	h.Str("hs-proposal").Digest(m.Block.Digest())
	return h.Sum()
}

// SigClaims implements crypto.SigClaimer: the leader's signature, which
// receivers verify against the sender.
func (m *ProposalMsg) SigClaims(from types.NodeID) []crypto.SigClaim {
	return []crypto.SigClaim{{Signer: from, Digest: m.SigDigest(), Sig: m.Sig}}
}

// VoteMsg is a replica's vote for a block, sent to the next leader.
type VoteMsg struct {
	Block   types.Digest
	View    types.View
	Height  types.SeqNum
	Replica types.NodeID
	Sig     []byte
}

// Kind implements types.Message.
func (*VoteMsg) Kind() string { return "HS-VOTE" }

// Slot implements obsv.Slotted.
func (m *VoteMsg) Slot() (types.View, types.SeqNum) { return m.View, m.Height }

// SigClaims implements crypto.SigClaimer: the voter's signature over the
// vote digest, which the next leader verifies against the sender.
func (m *VoteMsg) SigClaims(from types.NodeID) []crypto.SigClaim {
	return []crypto.SigClaim{{Signer: from, Digest: voteDigest(m.Block, m.View, m.Height), Sig: m.Sig}}
}

// TimeoutMsg is the pacemaker's view-synchronization message (τ5).
type TimeoutMsg struct {
	View    types.View
	HighQC  *QC
	Replica types.NodeID
	Sig     []byte
}

// Kind implements types.Message.
func (*TimeoutMsg) Kind() string { return "HS-TIMEOUT" }

// SigDigest is the signed content.
func (m *TimeoutMsg) SigDigest() types.Digest {
	var h types.Hasher
	h.Str("hs-timeout").U64(uint64(m.View)).U64(uint64(m.Replica))
	return h.Sum()
}

// QCMsg disseminates a freshly formed quorum certificate when its
// aggregator has no block to propose: without it the pipeline's tail QC
// would be known only to the aggregator and the other replicas would
// never reach the commit rule for the last blocks.
type QCMsg struct {
	QC *QC
}

// Kind implements types.Message.
func (*QCMsg) Kind() string { return "HS-QC" }

// FetchBlockMsg requests a missing ancestor block.
type FetchBlockMsg struct {
	Block types.Digest
}

// Kind implements types.Message.
func (*FetchBlockMsg) Kind() string { return "HS-FETCH" }

// BlockMsg answers a fetch.
type BlockMsg struct {
	Block *Block
}

// Kind implements types.Message.
func (*BlockMsg) Kind() string { return "HS-BLOCK" }

// Options tunes a HotStuff instance.
type Options struct {
	// TwoPhase enables the HotStuff-2 commit rule (two-chain) with the
	// Δ wait after timeout-based leader changes.
	TwoPhase bool
	// SilentLeader drops proposals when this replica leads (attack
	// injection).
	SilentLeader bool
	// PlainRoundRobin disables the leader-reputation demotion — the
	// ablation showing why chained HotStuff needs it (a crashed
	// replica then starves the three-chain commit rule at n=4).
	PlainRoundRobin bool
	// EquivocateAsLeader proposes two conflicting blocks per led view;
	// the vote-once rule must keep at most one QC per view.
	EquivocateAsLeader bool
}

// HotStuff is the protocol state machine for one replica.
type HotStuff struct {
	env  core.Env
	opts Options
	cm   *core.CheckpointManager

	view      types.View
	voted     map[types.View]bool
	blocks    map[types.Digest]*Block
	highQC    *QC
	lockedQC  *QC
	committed types.SeqNum

	// votes collected by this replica in its role as next leader, keyed
	// by block; each vote carries the voter's signature.
	votes core.Tally[types.Digest, []byte]
	// timeouts per view for the pacemaker.
	timeouts core.Tally[types.View, struct{}]

	mempool []*types.Request
	memSet  map[types.RequestKey]bool
	done    map[types.RequestKey]bool

	proposedInView map[types.View]bool
	// demoted implements DiemBFT-style leader reputation: a replica
	// whose view timed out with a quorum of timeout messages is skipped
	// by the rotation for demotionWindow views. Without it, chained
	// HotStuff at n=4 cannot commit past one crashed replica — a
	// three-chain of consecutive views plus its final QC collector
	// touches four distinct leaders.
	demoted map[types.NodeID]types.View
	// tcReady marks views entered through a timeout quorum, where the
	// leader may propose from a stale highQC (otherwise it must hold
	// the QC of the immediately preceding view to avoid forking).
	tcReady   map[types.View]bool
	deltaHold bool // HotStuff-2: waiting Δ before proposing
	genesis   types.Digest
}

// New returns a three-phase (classic) HotStuff replica.
func New(cfg core.Config) core.Protocol { return NewWithOptions(cfg, Options{}) }

// NewTwoPhase returns a HotStuff-2 replica.
func NewTwoPhase(cfg core.Config) core.Protocol {
	return NewWithOptions(cfg, Options{TwoPhase: true})
}

// NewWithOptions returns a HotStuff replica with explicit options.
func NewWithOptions(_ core.Config, opts Options) core.Protocol {
	return &HotStuff{opts: opts}
}

func init() {
	core.Register(core.Registration{
		Name:       "hotstuff",
		Profile:    core.HotStuffProfile(),
		NewReplica: New,
		NewClient: func(cfg core.Config) core.ClientProtocol {
			return core.NewRequester(core.RequesterOpts{SendToAll: true})
		},
	})
	core.Register(core.Registration{
		Name:       "hotstuff2",
		Profile:    core.HotStuff2Profile(),
		NewReplica: NewTwoPhase,
		NewClient: func(cfg core.Config) core.ClientProtocol {
			return core.NewRequester(core.RequesterOpts{SendToAll: true})
		},
	})
}

// Init implements core.Protocol.
func (hs *HotStuff) Init(env core.Env) {
	hs.env = env
	hs.cm = core.NewCheckpointManager(env)
	hs.voted = make(map[types.View]bool)
	hs.blocks = make(map[types.Digest]*Block)
	hs.memSet = make(map[types.RequestKey]bool)
	hs.done = make(map[types.RequestKey]bool)
	hs.proposedInView = make(map[types.View]bool)
	hs.demoted = make(map[types.NodeID]types.View)
	hs.tcReady = make(map[types.View]bool)
	hs.view = 1

	// Genesis block anchors the chain; every replica derives the same one.
	gen := &Block{View: 0, Height: 0, Batch: types.NewBatch()}
	hs.genesis = gen.Digest()
	hs.blocks[hs.genesis] = gen
	genCert := &crypto.Certificate{Digest: voteDigest(hs.genesis, 0, 0)}
	hs.highQC = &QC{Block: hs.genesis, View: 0, Height: 0, Cert: genCert}
	hs.lockedQC = hs.highQC
}

// View returns the current pacemaker view.
func (hs *HotStuff) View() types.View { return hs.view }

// demotionWindow is how many views a timed-out leader sits out.
const demotionWindow = 64

func (hs *HotStuff) leaderOf(v types.View) types.NodeID {
	n := uint64(hs.env.N())
	if hs.opts.PlainRoundRobin {
		return types.NodeID(uint64(v) % n)
	}
	for i := uint64(0); i < n; i++ {
		cand := types.NodeID((uint64(v) + i) % n)
		if dv, bad := hs.demoted[cand]; bad && v > dv && v <= dv+demotionWindow {
			continue
		}
		return cand
	}
	return types.NodeID(uint64(v) % n)
}

// OnRequest implements core.Protocol: mempool admission.
func (hs *HotStuff) OnRequest(req *types.Request) {
	if hs.done[req.Key()] {
		return
	}
	if !hs.env.Verifier().VerifySig(req.Client, req.Digest(), req.Sig) {
		return
	}
	key := req.Key()
	if hs.memSet[key] {
		return
	}
	hs.memSet[key] = true
	hs.mempool = append(hs.mempool, req)
	if hs.leaderOf(hs.view) == hs.env.ID() {
		if len(hs.mempool) >= hs.env.Config().BatchSize {
			hs.maybePropose()
		} else {
			hs.env.SetTimer(core.TimerID{Name: timerBatch, View: hs.view}, hs.env.Config().BatchTimeout)
		}
	}
	hs.armViewTimer()
}

func (hs *HotStuff) armViewTimer() {
	hs.env.SetTimer(core.TimerID{Name: timerView, View: hs.view}, hs.env.Config().ViewChangeTimeout)
}

func (hs *HotStuff) takeBatch() *types.Batch {
	var reqs []*types.Request
	live := hs.mempool[:0]
	max := hs.env.Config().BatchSize
	for _, req := range hs.mempool {
		if hs.done[req.Key()] {
			delete(hs.memSet, req.Key())
			continue
		}
		live = append(live, req)
		if len(reqs) < max && !hs.inChain(req.Key()) {
			reqs = append(reqs, req)
		}
	}
	hs.mempool = live
	return types.NewBatch(reqs...)
}

// uncommittedWork reports whether the uncommitted suffix of the chain
// still holds client requests. Only then are empty "carrier" blocks worth
// proposing to drive the commit rule forward; otherwise the pipeline may
// rest (an idle chain tip above the commit point is fine).
func (hs *HotStuff) uncommittedWork() bool {
	b := hs.blocks[hs.highQC.Block]
	for b != nil && b.Height > hs.committed {
		if b.Batch.Len() > 0 {
			return true
		}
		b = hs.blocks[b.Parent]
	}
	return false
}

// inChain reports whether the request already sits in the uncommitted
// suffix of the chain (avoid double-proposing across the pipeline).
func (hs *HotStuff) inChain(key types.RequestKey) bool {
	b := hs.blocks[hs.highQC.Block]
	for b != nil && b.Height > hs.committed {
		for _, r := range b.Batch.Requests {
			if r.Key() == key {
				return true
			}
		}
		b = hs.blocks[b.Parent]
	}
	return false
}

// maybePropose lets the current leader extend the chain: when it holds
// work (mempool) or the pipeline has uncommitted blocks that need carrier
// blocks to reach their commit rule.
func (hs *HotStuff) maybePropose() {
	if hs.opts.SilentLeader || hs.deltaHold {
		return
	}
	if hs.leaderOf(hs.view) != hs.env.ID() || hs.proposedInView[hs.view] {
		return
	}
	// Only propose on a fresh QC (the chained happy path) or after a
	// timeout quorum; proposing early would fork the chain and break
	// the consecutive-view commit rule.
	if hs.highQC.View+1 != hs.view && !hs.tcReady[hs.view] {
		return
	}
	parent := hs.blocks[hs.highQC.Block]
	if parent == nil {
		return
	}
	batch := hs.takeBatch()
	if batch.Len() == 0 && !hs.uncommittedWork() {
		return // nothing to order and nothing to flush
	}
	block := &Block{
		View:    hs.view,
		Height:  parent.Height + 1,
		Parent:  hs.highQC.Block,
		Batch:   batch,
		Justify: hs.highQC,
	}
	hs.proposedInView[hs.view] = true
	prop := &ProposalMsg{Block: block}
	prop.Sig = hs.env.Signer().Sign(prop.SigDigest())
	if hs.opts.EquivocateAsLeader {
		alt := &Block{View: block.View, Height: block.Height, Parent: block.Parent,
			Batch: types.NewBatch(), Justify: block.Justify}
		altProp := &ProposalMsg{Block: alt}
		altProp.Sig = hs.env.Signer().Sign(altProp.SigDigest())
		for i, id := range hs.env.Replicas() {
			if id == hs.env.ID() {
				continue
			}
			if i%2 == 0 {
				hs.env.Send(id, prop)
			} else {
				hs.env.Send(id, altProp)
			}
		}
		hs.onProposal(hs.env.ID(), prop)
		return
	}
	hs.env.Broadcast(prop)
	hs.onProposal(hs.env.ID(), prop)
}

// OnMessage implements core.Protocol.
func (hs *HotStuff) OnMessage(from types.NodeID, m types.Message) {
	if hs.cm.OnMessage(from, m) {
		return
	}
	switch mm := m.(type) {
	case *core.ForwardMsg:
		hs.OnRequest(mm.Req)
	case *ProposalMsg:
		if from != hs.leaderOf(mm.Block.View) {
			return
		}
		if !hs.env.Verifier().VerifySig(from, mm.SigDigest(), mm.Sig) {
			return
		}
		hs.onProposal(from, mm)
	case *VoteMsg:
		if mm.Replica != from {
			return
		}
		if !hs.env.Verifier().VerifySig(from, voteDigest(mm.Block, mm.View, mm.Height), mm.Sig) {
			return
		}
		hs.onVote(mm)
	case *TimeoutMsg:
		if mm.Replica != from {
			return
		}
		if !hs.env.Verifier().VerifySig(from, mm.SigDigest(), mm.Sig) {
			return
		}
		hs.onTimeout(mm)
	case *QCMsg:
		if mm.QC != nil && mm.QC.Verify(hs.env.Verifier(), hs.env.Config().Quorum()) {
			hs.updateHighQC(mm.QC)
			hs.commitChain(mm.QC)
			hs.enterView(mm.QC.View + 1)
		}
	case *FetchBlockMsg:
		if b := hs.blocks[mm.Block]; b != nil {
			hs.env.Send(from, &BlockMsg{Block: b})
		}
	case *BlockMsg:
		hs.storeBlock(mm.Block)
		hs.commitChain(hs.highQC)
	}
}

func (hs *HotStuff) storeBlock(b *Block) {
	if b == nil {
		return
	}
	d := b.Digest()
	if _, ok := hs.blocks[d]; !ok {
		hs.blocks[d] = b
	}
}

func (hs *HotStuff) onProposal(from types.NodeID, m *ProposalMsg) {
	b := m.Block
	// The justify QC must be genuine (the genesis QC is vacuous).
	if b.Justify == nil {
		return
	}
	if b.Justify.Block != hs.genesis && !b.Justify.Verify(hs.env.Verifier(), hs.env.Config().Quorum()) {
		return
	}
	if b.Parent != b.Justify.Block {
		return
	}
	hs.storeBlock(b)
	hs.updateHighQC(b.Justify)

	// Safety rule (safeNode): extend the locked block, or carry a QC
	// newer than the lock.
	if !hs.extendsLocked(b) && b.Justify.View <= hs.lockedQC.View {
		return
	}
	if b.View < hs.view || hs.voted[b.View] {
		return
	}
	// Adopt the proposal's view (pacemaker fast-forward).
	hs.view = b.View
	hs.voted[b.View] = true
	hs.env.ViewChanged(hs.view)

	// Lock and commit rules over the justified chain.
	hs.updateLocks(b)
	hs.commitChain(b.Justify)

	vd := voteDigest(b.Digest(), b.View, b.Height)
	vote := &VoteMsg{Block: b.Digest(), View: b.View, Height: b.Height, Replica: hs.env.ID()}
	vote.Sig = hs.env.Signer().Sign(vd)
	next := hs.leaderOf(b.View + 1)
	if next == hs.env.ID() {
		hs.onVote(vote)
	} else {
		hs.env.Send(next, vote)
	}
	hs.enterView(b.View + 1)
}

func (hs *HotStuff) extendsLocked(b *Block) bool {
	locked := hs.lockedQC.Block
	cur := b.Parent
	for {
		if cur == locked {
			return true
		}
		pb := hs.blocks[cur]
		if pb == nil || pb.Height == 0 {
			return cur == locked
		}
		cur = pb.Parent
	}
}

func (hs *HotStuff) updateHighQC(qc *QC) {
	if qc != nil && qc.View > hs.highQC.View {
		hs.highQC = qc
	}
}

// updateLocks advances the locked QC: classic HotStuff locks on the
// grandparent QC (two-chain head), HotStuff-2 locks on the parent QC.
func (hs *HotStuff) updateLocks(b *Block) {
	if hs.opts.TwoPhase {
		if b.Justify.View > hs.lockedQC.View {
			hs.lockedQC = b.Justify
		}
		return
	}
	parent := hs.blocks[b.Justify.Block]
	if parent == nil || parent.Justify == nil {
		return
	}
	if parent.Justify.View > hs.lockedQC.View {
		hs.lockedQC = parent.Justify
	}
}

// commitChain applies the commit rule at the head QC: a two-chain
// (HotStuff-2) or three-chain (HotStuff) of consecutive views commits the
// tail block and all its uncommitted ancestors, in order.
func (hs *HotStuff) commitChain(qc *QC) {
	if qc == nil {
		return
	}
	b1 := hs.blocks[qc.Block] // has a QC
	if b1 == nil {
		hs.fetch(qc.Block)
		return
	}
	var target *Block
	if hs.opts.TwoPhase {
		// QC(b1) plus b1.justify = QC(parent) with consecutive views
		// commits the parent.
		parent := hs.blocks[b1.Parent]
		if parent == nil {
			hs.fetch(b1.Parent)
			return
		}
		if b1.Justify != nil && b1.Justify.Block == b1.Parent && b1.View == b1.Justify.View+1 {
			target = parent
		}
	} else {
		parent := hs.blocks[b1.Parent]
		if parent == nil {
			hs.fetch(b1.Parent)
			return
		}
		grand := hs.blocks[parent.Parent]
		if grand == nil {
			hs.fetch(parent.Parent)
			return
		}
		if b1.Justify != nil && parent.Justify != nil &&
			b1.Justify.Block == b1.Parent && parent.Justify.Block == parent.Parent &&
			b1.View == parent.View+1 && parent.View == grand.View+1 {
			target = grand
		}
	}
	if target == nil || target.Height <= hs.committed {
		return
	}
	// Collect the uncommitted ancestors of target, oldest first.
	var chain []*Block
	for b := target; b != nil && b.Height > hs.committed; b = hs.blocks[b.Parent] {
		chain = append(chain, b)
		if b.Height == 0 {
			break
		}
	}
	for i := len(chain) - 1; i >= 0; i-- {
		blk := chain[i]
		proof := &types.CommitProof{View: blk.View, Seq: blk.Height, Digest: blk.Batch.Digest()}
		if qc.Cert != nil {
			proof.Voters = append(proof.Voters, qc.Cert.Signers...)
		}
		hs.committed = blk.Height
		hs.env.Commit(blk.View, blk.Height, blk.Batch, proof)
	}
}

func (hs *HotStuff) fetch(d types.Digest) {
	if d == hs.genesis || d.IsZero() {
		return
	}
	// Ask the current leader first; any replica can answer.
	hs.env.Send(hs.leaderOf(hs.view), &FetchBlockMsg{Block: d})
}

func (hs *HotStuff) onVote(v *VoteMsg) {
	hs.votes.Add(v.Block, v.Replica, v.Sig)
	if hs.votes.Count(v.Block) < hs.env.Config().Quorum() {
		return
	}
	cert := &crypto.Certificate{
		Digest:    voteDigest(v.Block, v.View, v.Height),
		Threshold: hs.env.Scheme() == crypto.SchemeThreshold,
	}
	for _, vote := range hs.votes.Votes(v.Block) {
		cert.Add(vote.From, vote.Val)
	}
	qc := &QC{Block: v.Block, View: v.View, Height: v.Height, Cert: cert}
	hs.updateHighQC(qc)
	hs.commitChain(qc)
	// As leader of the next view, extend immediately (responsiveness).
	if hs.view <= v.View+1 {
		hs.enterView(v.View + 1)
		hs.maybePropose()
	}
	if !hs.proposedInView[v.View+1] {
		// No block to chain on top: disseminate the bare QC so every
		// replica still reaches the commit rule for the pipeline tail.
		hs.env.Broadcast(&QCMsg{QC: qc})
	}
}

func (hs *HotStuff) enterView(v types.View) {
	if v < hs.view {
		return
	}
	hs.view = v
	hs.armViewTimer()
}

func (hs *HotStuff) onTimeout(m *TimeoutMsg) {
	if m.View < hs.view {
		return
	}
	if m.HighQC != nil && m.HighQC.Block != hs.genesis &&
		m.HighQC.Verify(hs.env.Verifier(), hs.env.Config().Quorum()) {
		hs.updateHighQC(m.HighQC)
	}
	hs.timeouts.Add(m.View, m.Replica, struct{}{})
	if hs.timeouts.Count(m.View) < hs.env.Config().Quorum() && m.View > hs.view {
		// View synchronization: timeouts from f+1 distinct replicas for
		// views beyond ours prove at least one honest replica has moved
		// on. Without jumping, pacemakers scattered across views by
		// pre-GST loss deadlock — each straggler rebroadcasts a timeout
		// for its own view, which the replicas ahead discard, so no view
		// ever collects a same-view quorum. Jump to the lowest such view
		// and add our own timeout so a full quorum can form there.
		// (Nobody is excluded from the count: -1 is no replica's ID.)
		if ahead, lowest := core.Ahead(&hs.timeouts, hs.view, -1); ahead > hs.env.Config().F {
			hs.view = lowest
			hs.env.ViewChanged(hs.view)
			hs.armViewTimer()
			tm := &TimeoutMsg{View: hs.view, HighQC: hs.highQC, Replica: hs.env.ID()}
			tm.Sig = hs.env.Signer().Sign(tm.SigDigest())
			hs.env.Broadcast(tm)
			hs.onTimeout(tm) // our own timeout may complete the quorum
			return
		}
	}
	if hs.timeouts.Count(m.View) >= hs.env.Config().Quorum() {
		hs.timeouts.Delete(m.View)
		next := m.View + 1
		if next > hs.view {
			hs.view = next
			hs.tcReady[next] = true
			hs.env.ViewChanged(hs.view)
			hs.armViewTimer()
			if hs.leaderOf(next) == hs.env.ID() {
				if hs.opts.TwoPhase {
					// HotStuff-2: a timeout takeover waits Δ so any
					// hidden lock from the previous view surfaces.
					hs.deltaHold = true
					hs.env.SetTimer(core.TimerID{Name: timerDelta, View: next}, hs.env.Config().Delta)
				} else {
					hs.maybePropose()
				}
			}
		}
	}
}

// OnTimer implements core.Protocol.
func (hs *HotStuff) OnTimer(id core.TimerID) {
	switch id.Name {
	case timerBatch:
		if id.View == hs.view {
			hs.maybePropose()
		}
	case timerDelta:
		if id.View == hs.view {
			hs.deltaHold = false
			hs.maybePropose()
		}
	case timerView:
		if id.View != hs.view {
			return
		}
		hs.pruneMempool()
		if len(hs.mempool) == 0 && !hs.uncommittedWork() {
			return // idle: no work, nothing stuck
		}
		// Leader reputation: demote the node this replica can blame for
		// the stall. If a proposal arrived and was voted for, the view
		// died at its vote collector — the next view's leader swallowed
		// the QC — so the collector is demoted. If no proposal ever
		// arrived, the view's own leader is demoted. Blaming the
		// collector matters with a vote-withholding Byzantine replica:
		// its led views look healthy (it proposes from the QCs it
		// collects), so timed-out-view blame lands on the honest leaders
		// it starves, concentrating leadership on the attacker.
		blame := hs.leaderOf(id.View)
		if hs.voted[id.View] {
			blame = hs.leaderOf(id.View + 1)
		}
		if prev, ok := hs.demoted[blame]; !ok || id.View > prev {
			hs.demoted[blame] = id.View
		}
		tm := &TimeoutMsg{View: hs.view, HighQC: hs.highQC, Replica: hs.env.ID()}
		tm.Sig = hs.env.Signer().Sign(tm.SigDigest())
		hs.env.Broadcast(tm)
		hs.onTimeout(tm)
		hs.armViewTimer()
	}
}

// pruneMempool drops executed requests from the buffer so idle checks
// see the true backlog.
func (hs *HotStuff) pruneMempool() {
	live := hs.mempool[:0]
	for _, req := range hs.mempool {
		if hs.memSet[req.Key()] && !hs.done[req.Key()] {
			live = append(live, req)
		} else {
			delete(hs.memSet, req.Key())
		}
	}
	hs.mempool = live
}

// OnExecuted implements core.Protocol.
func (hs *HotStuff) OnExecuted(seq types.SeqNum, batch *types.Batch, results [][]byte) {
	for _, req := range batch.Requests {
		delete(hs.memSet, req.Key())
		hs.done[req.Key()] = true
	}
	core.ReplyExecuted(hs.env, types.View(seq), seq, batch, results, false)
	hs.cm.OnExecuted(seq)
	// Garbage-collect old vote/timeout/view state.
	for d, b := range hs.blocks {
		if b.Height != 0 && b.Height+64 < hs.committed {
			delete(hs.blocks, d)
			hs.votes.Delete(d)
		}
	}
	for v := range hs.voted {
		if v+256 < hs.view {
			delete(hs.voted, v)
			delete(hs.proposedInView, v)
			delete(hs.tcReady, v)
		}
	}
}
