// Package chainrepl implements a Chain-style protocol in the spirit of
// Aliph/Chain [31]: the chain communication topology of dimension E2.
// Replicas form a pipeline; the head orders client requests and each
// replica forwards down the chain, so every replica sends and receives
// exactly one message per slot — the minimal per-node load of any
// topology, bought with n sequential hops of latency and the optimistic
// assumptions that replicas and clients are honest (a2, a5).
//
// The tail closes a slot: it broadcasts a signed commit notice (and the
// client's reply), which all replicas adopt. When the chain stalls (a
// crashed member), the client's timeout triggers a PANIC broadcast; the
// replicas then reconfigure: view v excludes replica (v−1) mod n from the
// chain, so repeated panics rotate the exclusion until the dead member is
// out — the Abstract framework's "switch to the next instance",
// compressed. Byzantine members are outside this fallback's scope (Chain
// switches to a full BFT protocol for that; our deployments pair it with
// PBFT in the examples), which is exactly the optimism/fragility
// trade-off the paper assigns to chain topologies.
package chainrepl

import (
	"bftkit/internal/core"
	"bftkit/internal/crypto"
	"bftkit/internal/types"
)

// Timer names.
const (
	timerProgress = "progress"
)

// ChainMsg carries a slot down the chain, accumulating MAC evidence.
type ChainMsg struct {
	View   types.View
	Seq    types.SeqNum
	Digest types.Digest
	Batch  *types.Batch
	// Hops records the replicas the message passed through, in order,
	// each vouching with a MAC/signature over the slot digest.
	Hops []Hop
}

// Hop is one replica's endorsement of a slot.
type Hop struct {
	Replica types.NodeID
	Sig     []byte
}

// Kind implements types.Message.
func (*ChainMsg) Kind() string { return "CHAIN" }

// Slot implements obsv.Slotted.
func (m *ChainMsg) Slot() (types.View, types.SeqNum) { return m.View, m.Seq }

func slotDigest(v types.View, seq types.SeqNum, d types.Digest) types.Digest {
	var h types.Hasher
	h.Str("chain-slot").U64(uint64(v)).U64(uint64(seq)).Digest(d)
	return h.Sum()
}

// SigClaims implements crypto.SigClaimer: one claim per hop, each a named
// replica's endorsement of the slot digest — receivers verify every hop
// against hop.Replica, not the sender.
func (m *ChainMsg) SigClaims(types.NodeID) []crypto.SigClaim {
	sd := slotDigest(m.View, m.Seq, m.Digest)
	claims := make([]crypto.SigClaim, 0, len(m.Hops))
	for _, hop := range m.Hops {
		claims = append(claims, crypto.SigClaim{Signer: hop.Replica, Digest: sd, Sig: hop.Sig})
	}
	return claims
}

// CommitNoticeMsg is the tail's signed commit announcement.
type CommitNoticeMsg struct {
	View   types.View
	Seq    types.SeqNum
	Digest types.Digest
	Batch  *types.Batch
	Tail   types.NodeID
	Sig    []byte
}

// Kind implements types.Message.
func (*CommitNoticeMsg) Kind() string { return "CHAIN-COMMIT" }

// Slot implements obsv.Slotted.
func (m *CommitNoticeMsg) Slot() (types.View, types.SeqNum) { return m.View, m.Seq }

// SigDigest is the signed content.
func (m *CommitNoticeMsg) SigDigest() types.Digest {
	var h types.Hasher
	h.Str("chain-commit").U64(uint64(m.View)).U64(uint64(m.Seq)).Digest(m.Digest)
	return h.Sum()
}

// SigClaims implements crypto.SigClaimer: the named tail's signature —
// receivers verify against m.Tail, not the sender.
func (m *CommitNoticeMsg) SigClaims(types.NodeID) []crypto.SigClaim {
	return []crypto.SigClaim{{Signer: m.Tail, Digest: m.SigDigest(), Sig: m.Sig}}
}

// PanicMsg is the client's alarm that the chain stalled.
type PanicMsg struct {
	Client types.NodeID
	Sig    []byte
}

// Kind implements types.Message.
func (*PanicMsg) Kind() string { return "CHAIN-PANIC" }

// ReconfigMsg installs the next chain configuration; replicas adopt it
// when f+1 distinct members demand the same view.
type ReconfigMsg struct {
	NewView types.View
	// LastExec lets the next head resume sequence numbering above the
	// highest execution point any member reached, so reconfigurations
	// never leave gaps in the slot space.
	LastExec types.SeqNum
	Replica  types.NodeID
	Sig      []byte
}

// Kind implements types.Message.
func (*ReconfigMsg) Kind() string { return "CHAIN-RECONFIG" }

// FetchChainMsg asks a peer for committed slots above From (gap repair
// after a reconfiguration).
type FetchChainMsg struct {
	From types.SeqNum
}

// Kind implements types.Message.
func (*FetchChainMsg) Kind() string { return "CHAIN-FETCH" }

// ChainEntriesMsg answers a FetchChainMsg. Under the chain's honest-
// replica assumption (a2) entries are adopted from a single responder.
type ChainEntriesMsg struct {
	Entries []ChainEntry
}

// ChainEntry is one committed slot.
type ChainEntry struct {
	View  types.View
	Seq   types.SeqNum
	Batch *types.Batch
}

// Kind implements types.Message.
func (*ChainEntriesMsg) Kind() string { return "CHAIN-ENTRIES" }

// SigDigest is the signed content.
func (m *ReconfigMsg) SigDigest() types.Digest {
	var h types.Hasher
	h.Str("chain-reconfig").U64(uint64(m.NewView)).U64(uint64(m.LastExec)).U64(uint64(m.Replica))
	return h.Sum()
}

// Chain is the protocol state machine for one replica.
type Chain struct {
	env core.Env

	view    types.View
	nextSeq types.SeqNum

	// backlog is the kit's request intake, without a τ2 timer: the
	// client drives fault detection here.
	backlog *core.Backlog
	replies map[types.RequestKey]*types.Reply

	reconfigVotes core.Tally[types.View, struct{}]
	reconfigExec  map[types.View]types.SeqNum
}

// New returns a Chain replica.
func New(cfg core.Config) core.Protocol { return &Chain{} }

func init() {
	core.Register(core.Registration{
		Name:       "chain",
		Profile:    core.ChainProfile(),
		NewReplica: New,
		NewClient: func(cfg core.Config) core.ClientProtocol {
			return NewClient()
		},
	})
}

// Init implements core.Protocol.
func (c *Chain) Init(env core.Env) {
	c.env = env
	c.backlog = core.NewBacklog(env, "")
	c.replies = make(map[types.RequestKey]*types.Reply)
	c.reconfigExec = make(map[types.View]types.SeqNum)
}

// View returns the current chain configuration number.
func (c *Chain) View() types.View { return c.view }

// ChainFor returns the pipeline order of view v: all replicas in ring
// order starting after the excluded one. View 0 excludes nobody; view
// v > 0 excludes replica (v−1) mod n.
func (c *Chain) ChainFor(v types.View) []types.NodeID {
	n := c.env.N()
	var out []types.NodeID
	if v == 0 {
		for i := 0; i < n; i++ {
			out = append(out, types.NodeID(i))
		}
		return out
	}
	excluded := types.NodeID(uint64(v-1) % uint64(n))
	for i := 0; i < n; i++ {
		id := types.NodeID((uint64(excluded) + 1 + uint64(i)) % uint64(n))
		if id != excluded {
			out = append(out, id)
		}
	}
	return out
}

// Head returns the current chain head.
func (c *Chain) Head() types.NodeID { return c.ChainFor(c.view)[0] }

// Tail returns the current chain tail.
func (c *Chain) Tail() types.NodeID {
	chain := c.ChainFor(c.view)
	return chain[len(chain)-1]
}

// successor returns the next replica after id in the current chain, or
// -1 if id is the tail or not in the chain.
func (c *Chain) successor(id types.NodeID) types.NodeID {
	chain := c.ChainFor(c.view)
	for i, x := range chain {
		if x == id {
			if i+1 < len(chain) {
				return chain[i+1]
			}
			return -1
		}
	}
	return -1
}

// OnRequest implements core.Protocol: the head orders; everyone else
// forwards to the head.
func (c *Chain) OnRequest(req *types.Request) {
	if c.backlog.Done(req.Key()) {
		// Retransmission of an executed request: replicas that were not
		// in the reply suffix when it executed have nothing in the
		// runtime's reply cache, so answer from the protocol's own.
		// This matters after a reconfiguration moved the suffix — the
		// new suffix must be able to satisfy the client's f+1 quorum.
		if rep := c.replies[req.Key()]; rep != nil && c.inReplySuffix() {
			c.env.Reply(rep)
		}
		return
	}
	if c.backlog.Submit(req, c.Head()) {
		c.maybePropose()
	}
}

func (c *Chain) maybePropose() {
	if c.Head() != c.env.ID() {
		return
	}
	for {
		reqs := c.backlog.Take(c.env.Config().BatchSize)
		if len(reqs) == 0 {
			return
		}
		batch := types.NewBatch(reqs...)
		c.nextSeq++
		m := &ChainMsg{View: c.view, Seq: c.nextSeq, Digest: batch.Digest(), Batch: batch}
		c.processChainMsg(m)
	}
}

// processChainMsg appends this replica's endorsement and forwards (or
// closes the slot at the tail).
func (c *Chain) processChainMsg(m *ChainMsg) {
	if m.View != c.view {
		return
	}
	if m.Batch.Digest() != m.Digest {
		return
	}
	// A slot this replica already committed must not be endorsed again.
	// After a reconfiguration whose f+1 quorum missed the one member that
	// saw the old tail's commit notice, the new head re-numbers from a
	// stale execution point and re-proposes an already-taken sequence;
	// endorsing it would fork the chain. Push the committed entries back
	// instead so the laggards repair and the next reconfiguration rebases
	// above them.
	if ent := c.env.Ledger().Get(m.Seq); ent != nil {
		if ent.Batch.Digest() != m.Digest {
			c.shareCommitted(ent.Seq - 1)
		}
		return
	}
	sd := slotDigest(m.View, m.Seq, m.Digest)
	m.Hops = append(m.Hops, Hop{Replica: c.env.ID(), Sig: c.env.Signer().Sign(sd)})
	c.backlog.Proposed(m.Batch)
	next := c.successor(c.env.ID())
	if next >= 0 {
		c.env.Send(next, m)
		return
	}
	// Tail: the slot traversed every member — commit and announce.
	notice := &CommitNoticeMsg{View: m.View, Seq: m.Seq, Digest: m.Digest, Batch: m.Batch, Tail: c.env.ID()}
	notice.Sig = c.env.Signer().Sign(notice.SigDigest())
	c.env.Broadcast(notice)
	c.adoptCommit(notice)
}

func (c *Chain) adoptCommit(m *CommitNoticeMsg) {
	if ent := c.env.Ledger().Get(m.Seq); ent != nil {
		if ent.Batch.Digest() != m.Digest {
			c.shareCommitted(m.Seq - 1)
		}
		return
	}
	proof := &types.CommitProof{View: m.View, Seq: m.Seq, Digest: m.Digest,
		Special: "chain-tail-notice", Voters: []types.NodeID{m.Tail}}
	c.env.Commit(m.View, m.Seq, m.Batch, proof)
}

// shareCommitted broadcasts this replica's committed entries above from:
// the repair path for peers whose reconfiguration rebased below a slot
// this replica knows to be committed.
func (c *Chain) shareCommitted(from types.SeqNum) {
	if lw := c.env.Ledger().LowWater(); from < lw {
		from = lw
	}
	entries := c.env.Ledger().CommittedAbove(from)
	if len(entries) == 0 {
		return
	}
	resp := &ChainEntriesMsg{}
	for _, e := range entries {
		resp.Entries = append(resp.Entries, ChainEntry{View: e.View, Seq: e.Seq, Batch: e.Batch})
	}
	c.env.Broadcast(resp)
}

// OnMessage implements core.Protocol.
func (c *Chain) OnMessage(from types.NodeID, m types.Message) {
	switch mm := m.(type) {
	case *core.ForwardMsg:
		c.OnRequest(mm.Req)
	case *ChainMsg:
		// Must arrive from our predecessor with valid hop endorsements.
		if c.successor(from) != c.env.ID() {
			return
		}
		sd := slotDigest(mm.View, mm.Seq, mm.Digest)
		for _, hop := range mm.Hops {
			if !c.env.Verifier().VerifySig(hop.Replica, sd, hop.Sig) {
				return
			}
		}
		c.processChainMsg(mm)
	case *CommitNoticeMsg:
		if mm.Tail != c.Tail() && from != mm.Tail {
			return
		}
		if !c.env.Verifier().VerifySig(mm.Tail, mm.SigDigest(), mm.Sig) {
			return
		}
		c.adoptCommit(mm)
	case *FetchChainMsg:
		led := c.env.Ledger()
		if led.LastExecuted() <= mm.From {
			return
		}
		resp := &ChainEntriesMsg{}
		for _, e := range led.CommittedAbove(mm.From) {
			resp.Entries = append(resp.Entries, ChainEntry{View: e.View, Seq: e.Seq, Batch: e.Batch})
		}
		if len(resp.Entries) > 0 {
			c.env.Send(from, resp)
		}
	case *ChainEntriesMsg:
		// Adopted under the chain's honest-member assumption (a2); a
		// Byzantine peer would force the switch to a full BFT protocol
		// anyway (the Abstract fallback, out of scope here). Entries
		// conflicting with slots already committed here are skipped — the
		// cross-replica audit, not a ledger overwrite, is where such a
		// fork surfaces.
		for _, e := range mm.Entries {
			if ent := c.env.Ledger().Get(e.Seq); ent != nil {
				continue
			}
			proof := &types.CommitProof{View: e.View, Seq: e.Seq, Digest: e.Batch.Digest(),
				Special: "chain-catchup"}
			c.env.Commit(e.View, e.Seq, e.Batch, proof)
		}
	case *PanicMsg:
		// A stalled client: demand the next configuration.
		c.demandReconfig(c.view + 1)
	case *ReconfigMsg:
		if mm.Replica != from {
			return
		}
		if !c.env.Verifier().VerifySig(from, mm.SigDigest(), mm.Sig) {
			return
		}
		c.onReconfig(mm)
	}
}

func (c *Chain) demandReconfig(v types.View) {
	if v <= c.view {
		return
	}
	rm := &ReconfigMsg{NewView: v, LastExec: c.env.Ledger().LastExecuted(), Replica: c.env.ID()}
	rm.Sig = c.env.Signer().Sign(rm.SigDigest())
	c.env.Broadcast(rm)
	c.onReconfig(rm)
}

func (c *Chain) onReconfig(m *ReconfigMsg) {
	if m.NewView <= c.view {
		return
	}
	c.reconfigVotes.Add(m.NewView, m.Replica, struct{}{})
	if m.LastExec > c.reconfigExec[m.NewView] {
		c.reconfigExec[m.NewView] = m.LastExec
	}
	if c.reconfigVotes.Count(m.NewView) < c.env.F()+1 {
		return
	}
	c.view = m.NewView
	c.backlog.EnterView(c.view)
	// The new head numbers slots above the highest reported execution
	// point, and members behind it repair the gap by fetching.
	base := c.reconfigExec[m.NewView]
	if own := c.env.Ledger().LastExecuted(); own > base {
		base = own
	}
	c.nextSeq = base
	if c.env.Ledger().LastExecuted() < base {
		c.env.Broadcast(&FetchChainMsg{From: c.env.Ledger().LastExecuted()})
	}
	c.reconfigVotes.Prune(func(v types.View) bool { return v <= c.view })
	for v := range c.reconfigExec {
		if v <= c.view {
			delete(c.reconfigExec, v)
		}
	}
	c.env.ViewChanged(c.view)
	c.maybePropose()
}

// OnTimer implements core.Protocol (the chain replica has no timers; the
// client drives fault detection, P6's repairer role).
func (c *Chain) OnTimer(id core.TimerID) {}

// inReplySuffix reports whether this replica is one of the last f+1
// members of the current chain — the segment whose replies the client
// cross-checks (Aliph: each suffix member authenticates the result, so
// f+1 matching replies pin it to at least one honest replica).
func (c *Chain) inReplySuffix() bool {
	chain := c.ChainFor(c.view)
	suffix := c.env.Config().F + 1
	for i, id := range chain {
		if id == c.env.ID() {
			return i >= len(chain)-suffix
		}
	}
	return false
}

// OnExecuted implements core.Protocol: the last f+1 chain members each
// reply, and the client accepts a result only on f+1 signed matches. A
// single-tail reply would let one corrupt tail hand clients wrong
// results with no honest replica in the loop (P6).
func (c *Chain) OnExecuted(seq types.SeqNum, batch *types.Batch, results [][]byte) {
	c.backlog.Executed(batch)
	for i, req := range batch.Requests {
		rep := &types.Reply{
			Client:    req.Client,
			ClientSeq: req.ClientSeq,
			View:      c.view,
			Seq:       seq,
			Result:    results[i],
		}
		// Cache on every replica, not just the current suffix: a later
		// reconfiguration may rotate this replica into the suffix and a
		// retransmitting client will need its vote.
		c.replies[req.Key()] = rep
		if c.inReplySuffix() {
			c.env.Reply(rep)
		}
	}
	if c.nextSeq < seq {
		c.nextSeq = seq
	}
	c.maybePropose()
}

// Client is the chain client: send to the head, accept a result once
// f+1 distinct chain members have signed it (the reply suffix), panic on
// timeout (repairer role).
type Client struct {
	env      core.ClientEnv
	view     types.View
	pending  map[uint64]*types.Request
	votes    core.Tally[replyKey, struct{}]
	panicked map[uint64]int
}

// replyKey groups signed replies by request and result content.
type replyKey struct {
	ClientSeq uint64
	Result    string
}

// NewClient returns a chain client.
func NewClient() *Client {
	return &Client{
		pending:  make(map[uint64]*types.Request),
		panicked: make(map[uint64]int),
	}
}

// Init implements core.ClientProtocol.
func (c *Client) Init(env core.ClientEnv) { c.env = env }

func (c *Client) headFor(v types.View) types.NodeID {
	n := c.env.N()
	if v == 0 {
		return 0
	}
	excluded := uint64(v-1) % uint64(n)
	return types.NodeID((excluded + 1) % uint64(n))
}

// Submit implements core.ClientProtocol.
func (c *Client) Submit(req *types.Request) {
	c.pending[req.ClientSeq] = req
	c.env.Send(c.headFor(c.view), &core.RequestMsg{Req: req})
	c.env.SetTimer(core.TimerID{Name: "chain-wait", Seq: types.SeqNum(req.ClientSeq)},
		c.env.Config().RequestTimeout)
}

// OnMessage implements core.ClientProtocol.
func (c *Client) OnMessage(from types.NodeID, m types.Message) {
	rm, ok := m.(*core.ReplyMsg)
	if !ok {
		return
	}
	rep := rm.R
	req := c.pending[rep.ClientSeq]
	if req == nil {
		return
	}
	if !c.env.Verifier().VerifySig(rep.Replica, rep.Digest(), rep.Sig) {
		return
	}
	if rep.View > c.view {
		c.view = rep.View
	}
	// One corrupt suffix member (the tail included) must not be able to
	// pass off a wrong result, so count signed matching replies until
	// f+1 distinct replicas agree.
	k := replyKey{rep.ClientSeq, string(rep.Result)}
	c.votes.Add(k, rep.Replica, struct{}{})
	if c.votes.Count(k) < c.env.F()+1 {
		return
	}
	c.env.StopTimer(core.TimerID{Name: "chain-wait", Seq: types.SeqNum(rep.ClientSeq)})
	delete(c.pending, rep.ClientSeq)
	c.votes.Prune(func(k replyKey) bool { return k.ClientSeq == rep.ClientSeq })
	delete(c.panicked, rep.ClientSeq)
	c.env.Done(req, rep.Result)
}

// OnTimer implements core.ClientProtocol: the repairer path — panic to
// every replica, bump the presumed view, and retry at the next head.
func (c *Client) OnTimer(id core.TimerID) {
	req := c.pending[uint64(id.Seq)]
	if req == nil {
		return
	}
	c.panicked[uint64(id.Seq)]++
	c.env.BroadcastReplicas(&PanicMsg{Client: c.env.ID()})
	c.view++
	c.env.BroadcastReplicas(&core.RequestMsg{Req: req})
	c.env.SetTimer(id, c.env.Config().RequestTimeout)
}
