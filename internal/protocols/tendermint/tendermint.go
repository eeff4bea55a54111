// Package tendermint implements a Tendermint-style BFT protocol
// [52, 53, 124]: rotating proposers (one per height and round), prevote
// and precommit voting phases with value locking, and the non-responsive
// Δ wait of design choice 4 — a new height's proposer waits a predefined
// synchrony bound before proposing so it is guaranteed to have seen the
// previous height's decision from all slow-but-correct replicas. The
// protocol uses the paper's timers τ4 (quorum construction: propose,
// prevote, precommit timeouts) and τ5 (view synchronization: the Δ wait).
//
// Transactions are disseminated mempool-style: clients broadcast to all
// replicas, every replica admits them into its core.Backlog, and the
// proposer of the moment batches from its own backlog.
package tendermint

import (
	"cmp"
	"slices"
	"sort"
	"time"

	"bftkit/internal/core"
	"bftkit/internal/crypto"
	"bftkit/internal/types"
)

// Vote types.
const (
	votePrevote   = "PREVOTE"
	votePrecommit = "PRECOMMIT"
)

// Timer names.
const (
	timerPropose   = "propose"    // τ4: waiting for a proposal
	timerPrevote   = "prevote"    // τ4: waiting for 2f+1 prevotes
	timerPrecommit = "precommit"  // τ4: waiting for 2f+1 precommits
	timerNewHeight = "new-height" // τ5: the Δ wait (DC4)
	timerBatch     = "batch"
	timerCatchup   = "catchup" // re-fetch window for decision transfer
)

// ProposalMsg carries the proposer's batch for (height, round).
type ProposalMsg struct {
	Height types.SeqNum
	Round  uint32
	Digest types.Digest
	Batch  *types.Batch
	Sig    []byte
}

// Kind implements types.Message.
func (*ProposalMsg) Kind() string { return "PROPOSAL" }

// Slot implements obsv.Slotted; Tendermint's round plays the view role.
func (m *ProposalMsg) Slot() (types.View, types.SeqNum) { return types.View(m.Round), m.Height }

// SigDigest is the signed content.
func (m *ProposalMsg) SigDigest() types.Digest {
	var h types.Hasher
	h.Str("tm-proposal").U64(uint64(m.Height)).U64(uint64(m.Round)).Digest(m.Digest)
	return h.Sum()
}

// AppendSigClaims implements crypto.SigClaimer: the proposer's signature,
// which receivers verify against the sender.
func (m *ProposalMsg) AppendSigClaims(dst []crypto.SigClaim, from types.NodeID) []crypto.SigClaim {
	return append(dst, crypto.SigClaim{Signer: from, Digest: m.SigDigest(), Sig: m.Sig})
}

// VoteMsg is a prevote or precommit. A zero digest votes nil.
type VoteMsg struct {
	Type    string
	Height  types.SeqNum
	Round   uint32
	Digest  types.Digest
	Replica types.NodeID
	Sig     []byte
}

// Kind implements types.Message.
func (m *VoteMsg) Kind() string { return m.Type }

// Slot implements obsv.Slotted.
func (m *VoteMsg) Slot() (types.View, types.SeqNum) { return types.View(m.Round), m.Height }

// SigDigest is the signed content.
func (m *VoteMsg) SigDigest() types.Digest {
	var h types.Hasher
	h.Str("tm-vote").Str(m.Type).U64(uint64(m.Height)).U64(uint64(m.Round)).
		Digest(m.Digest).U64(uint64(m.Replica))
	return h.Sum()
}

// AppendSigClaims implements crypto.SigClaimer: the voter's signature, which
// receivers verify against the sender.
func (m *VoteMsg) AppendSigClaims(dst []crypto.SigClaim, from types.NodeID) []crypto.SigClaim {
	return append(dst, crypto.SigClaim{Signer: from, Digest: m.SigDigest(), Sig: m.Sig})
}

// FetchProposalMsg asks a peer to re-send the batch behind a decided
// digest (catch-up when the original proposal was lost).
type FetchProposalMsg struct {
	Height types.SeqNum
	Round  uint32
}

// Kind implements types.Message.
func (*FetchProposalMsg) Kind() string { return "FETCH-PROPOSAL" }

// FetchDecisionMsg asks peers for the decisions of every height above
// From. Votes are sent once and never retransmitted, so a replica whose
// precommit quorum was lost to the pre-GST network can be stranded at an
// old height while the rest of the cluster moves on — and with fewer
// than 2f+1 replicas left at that height, no quorum can ever re-form
// there. Height catch-up is therefore a liveness requirement, not an
// optimization.
type FetchDecisionMsg struct {
	From types.SeqNum
}

// Kind implements types.Message.
func (*FetchDecisionMsg) Kind() string { return "FETCH-DECISION" }

// DecisionMsg transfers one decided height: the batch plus the 2f+1
// precommit signatures that decided it. The receiver re-verifies every
// signature, so a Byzantine sender cannot forge a decision.
type DecisionMsg struct {
	Height types.SeqNum
	Round  uint32
	Batch  *types.Batch
	Voters []types.NodeID
	Sigs   [][]byte
}

// Kind implements types.Message.
func (*DecisionMsg) Kind() string { return "DECISION" }

// Slot implements obsv.Slotted.
func (m *DecisionMsg) Slot() (types.View, types.SeqNum) { return types.View(m.Round), m.Height }

type hrKey struct {
	H types.SeqNum
	R uint32
}

type roundState struct {
	batch   *types.Batch
	digest  types.Digest
	hasProp bool
	// Votes are tallied per voted digest (the zero digest is a nil vote).
	prevotes core.Tally[types.Digest, struct{}]
	// precommits keep the vote signatures, not just membership: the
	// 2f+1 precommits for the decided digest double as the transferable
	// decision certificate for height catch-up.
	precommits core.Tally[types.Digest, []byte]
	sentPV     bool
	sentPC     bool
	// proposeArmed: τ4's propose timeout runs or ran in this round. It
	// is armed once per round, so arrivals cannot push it out.
	proposeArmed bool
}

// decision retains one decided height's certificate so laggards can be
// caught up; pruned at the checkpoint low-water mark.
type decision struct {
	round uint32
	batch *types.Batch
	votes []core.Vote[[]byte] // the deciding precommits, in arrival order
}

// Options tunes a Tendermint instance.
type Options struct {
	// SkipDeltaWait enables the HotStuff-2-style optimization noted in
	// DC4: a proposer that was part of the previous height's precommit
	// quorum proposes immediately instead of waiting Δ.
	SkipDeltaWait bool
}

// Tendermint is the protocol state machine for one replica.
type Tendermint struct {
	env  core.Env
	opts Options
	cm   *core.CheckpointManager

	height types.SeqNum
	round  uint32
	states map[hrKey]*roundState
	// peerRounds holds, per round of the current height, the peers that
	// showed activity there; f+1 peers at or above a round trigger the
	// round catch-up jump (Tendermint's round synchronization).
	peerRounds core.Tally[uint32, struct{}]
	// peerHeights holds, per height above ours, the peers that showed
	// activity there; f+1 peers above ours mean the cluster decided
	// heights we missed, triggering decision catch-up.
	peerHeights core.Tally[types.SeqNum, struct{}]
	// decisions retains decided heights' certificates for catch-up.
	decisions map[types.SeqNum]*decision
	// fetchingFrom is the height the last decision fetch started from;
	// re-fetching is gated on either progress or the catch-up timer.
	fetchingFrom types.SeqNum
	fetching     bool

	lockedDigest types.Digest
	lockedBatch  *types.Batch
	locked       bool

	// backlog is the request intake; clients send to every replica, so
	// nothing is forwarded and no τ2 timer runs (the round timers are τ4).
	backlog *core.Backlog

	// sawQuorumPrev records that this replica observed the full
	// precommit quorum for the previous height (the DC4 optimization).
	sawQuorumPrev bool
	// deltaDone gates the proposer's first proposal of a height: it
	// becomes true only after the Δ wait (or immediately under the
	// SkipDeltaWait optimization).
	deltaDone bool
}

// New returns a Tendermint replica with default options.
func New(cfg core.Config) core.Protocol { return NewWithOptions(cfg, Options{}) }

// NewWithOptions returns a Tendermint replica with explicit options.
func NewWithOptions(_ core.Config, opts Options) core.Protocol {
	return &Tendermint{opts: opts}
}

func init() {
	core.Register(core.Registration{
		Name:       "tendermint",
		Profile:    core.TendermintProfile(),
		NewReplica: New,
		NewClient: func(cfg core.Config) core.ClientProtocol {
			return core.NewRequester(core.RequesterOpts{SendToAll: true})
		},
	})
}

// Init implements core.Protocol.
func (t *Tendermint) Init(env core.Env) {
	t.env = env
	t.cm = core.NewCheckpointManager(env)
	t.cm.Fastforwarded = func(seq types.SeqNum) {
		if seq >= t.height {
			t.enterHeight(seq + 1)
		}
	}
	t.states = make(map[hrKey]*roundState)
	t.decisions = make(map[types.SeqNum]*decision)
	t.backlog = core.NewBacklog(env, "")
	t.height = 1
	t.deltaDone = true // the first height has no prior decision to wait for
}

// Height returns the current consensus height (tests observe it).
func (t *Tendermint) Height() types.SeqNum { return t.height }

// Round returns the current round within the height.
func (t *Tendermint) Round() uint32 { return t.round }

func (t *Tendermint) proposer(h types.SeqNum, r uint32) types.NodeID {
	return types.NodeID((uint64(h) + uint64(r)) % uint64(t.env.N()))
}

func (t *Tendermint) state(h types.SeqNum, r uint32) *roundState {
	k := hrKey{h, r}
	st := t.states[k]
	if st == nil {
		st = &roundState{}
		t.states[k] = st
	}
	return st
}

// OnRequest implements core.Protocol: backlog admission. A
// retransmission of a queued request kicks too: the round may be stuck.
func (t *Tendermint) OnRequest(req *types.Request) {
	if queued, _ := t.backlog.Admit(req); queued {
		t.kick()
	}
}

// kick starts the current round's machinery when there is work to do.
func (t *Tendermint) kick() {
	st := t.state(t.height, t.round)
	if st.hasProp {
		return
	}
	if t.proposer(t.height, t.round) == t.env.ID() {
		t.env.SetTimer(core.TimerID{Name: timerBatch, Seq: t.height}, t.env.Config().BatchTimeout)
	} else if t.backlog.Len() > 0 {
		// There is known work; if no proposal shows up, advance (τ4).
		t.armProposeTimeout()
	}
}

func (t *Tendermint) armProposeTimeout() {
	st := t.state(t.height, t.round)
	if st.proposeArmed {
		return
	}
	st.proposeArmed = true
	d := t.env.Config().ViewChangeTimeout + time.Duration(t.round)*t.env.Config().ViewChangeTimeout/2
	t.env.SetTimer(core.TimerID{Name: timerPropose, View: types.View(t.round), Seq: t.height}, d)
}

func (t *Tendermint) takeBatch() *types.Batch {
	if t.locked {
		return t.lockedBatch
	}
	pending := t.backlog.Pending()
	if k := min(len(pending), t.env.Config().BatchSize); k > 0 {
		return types.NewBatch(slices.Clone(pending[:k])...)
	}
	return nil
}

func (t *Tendermint) propose() {
	if t.round == 0 && !t.deltaDone {
		return // DC4: the Δ wait has not elapsed yet
	}
	st := t.state(t.height, t.round)
	if st.hasProp {
		return
	}
	batch := t.takeBatch()
	if batch == nil {
		return
	}
	prop := &ProposalMsg{Height: t.height, Round: t.round, Digest: batch.Digest(), Batch: batch}
	prop.Sig = t.env.Signer().Sign(prop.SigDigest())
	t.env.Broadcast(prop)
	t.acceptProposal(prop)
}

func (t *Tendermint) acceptProposal(m *ProposalMsg) {
	if m.Height != t.height || m.Round != t.round {
		// Keep proposals for future rounds/heights of this height so
		// catch-up commits can find the batch.
		if m.Height >= t.height && m.Batch.Digest() == m.Digest {
			st := t.state(m.Height, m.Round)
			if !st.hasProp {
				st.hasProp = true
				st.batch = m.Batch
				st.digest = m.Digest
			}
			t.maybeCommit(m.Height, m.Round)
		}
		return
	}
	if m.Batch.Digest() != m.Digest {
		return
	}
	st := t.state(m.Height, m.Round)
	if st.hasProp {
		return
	}
	st.hasProp = true
	st.batch = m.Batch
	st.digest = m.Digest
	t.env.StopTimer(core.TimerID{Name: timerPropose, View: types.View(t.round), Seq: t.height})

	// Prevote: the proposal unless we are locked on a different value
	// (Tendermint's locking rule preserves safety across rounds).
	vote := m.Digest
	if t.locked && t.lockedDigest != m.Digest {
		vote = types.ZeroDigest
	}
	t.sendVote(votePrevote, vote, st)
	t.env.SetTimer(core.TimerID{Name: timerPrevote, View: types.View(t.round), Seq: t.height},
		t.env.Config().ViewChangeTimeout)
}

func (t *Tendermint) sendVote(typ string, digest types.Digest, st *roundState) {
	if typ == votePrevote {
		if st.sentPV {
			return
		}
		st.sentPV = true
	} else {
		if st.sentPC {
			return
		}
		st.sentPC = true
	}
	v := &VoteMsg{Type: typ, Height: t.height, Round: t.round, Digest: digest, Replica: t.env.ID()}
	v.Sig = t.env.Signer().Sign(v.SigDigest())
	t.env.Broadcast(v)
	t.recordVote(t.env.ID(), v)
}

// OnMessage implements core.Protocol.
func (t *Tendermint) OnMessage(from types.NodeID, m types.Message) {
	if t.cm.OnMessage(from, m) {
		return
	}
	switch mm := m.(type) {
	case *core.ForwardMsg:
		t.OnRequest(mm.Req)
	case *ProposalMsg:
		if from != t.proposer(mm.Height, mm.Round) {
			return
		}
		if !t.env.Verifier().VerifySig(from, mm.SigDigest(), mm.Sig) {
			return
		}
		t.noteHeight(from, mm.Height)
		t.noteRound(from, mm.Height, mm.Round)
		t.acceptProposal(mm)
	case *VoteMsg:
		if mm.Replica != from {
			return
		}
		if !t.env.Verifier().VerifySig(from, mm.SigDigest(), mm.Sig) {
			return
		}
		t.noteHeight(from, mm.Height)
		t.noteRound(from, mm.Height, mm.Round)
		t.recordVote(from, mm)
	case *FetchProposalMsg:
		st := t.states[hrKey{mm.Height, mm.Round}]
		if st != nil && st.hasProp {
			prop := &ProposalMsg{Height: mm.Height, Round: mm.Round, Digest: st.digest, Batch: st.batch}
			prop.Sig = t.env.Signer().Sign(prop.SigDigest())
			t.env.Send(from, prop)
		}
	case *FetchDecisionMsg:
		t.onFetchDecision(from, mm)
	case *DecisionMsg:
		t.onDecision(mm)
	}
}

func (t *Tendermint) onFetchDecision(from types.NodeID, m *FetchDecisionMsg) {
	for h := m.From + 1; h <= m.From+32; h++ {
		d := t.decisions[h]
		if d == nil {
			return
		}
		resp := &DecisionMsg{Height: h, Round: d.round, Batch: d.batch}
		// The certificate is served in voter order, whatever order the
		// precommits arrived in.
		for _, v := range slices.SortedFunc(slices.Values(d.votes), byVoter) {
			resp.Voters = append(resp.Voters, v.From)
			resp.Sigs = append(resp.Sigs, v.Val)
		}
		t.env.Send(from, resp)
	}
}

func byVoter(a, b core.Vote[[]byte]) int { return cmp.Compare(a.From, b.From) }

// onDecision adopts a decided height after re-verifying its 2f+1
// precommit signatures, feeding them through the normal vote path so
// maybeCommit's ordinary decision rule fires.
func (t *Tendermint) onDecision(m *DecisionMsg) {
	if m.Batch == nil || m.Height < t.height || len(m.Voters) != len(m.Sigs) {
		return
	}
	d := m.Batch.Digest()
	votes := make([]*VoteMsg, 0, len(m.Voters))
	for i, id := range m.Voters {
		v := &VoteMsg{Type: votePrecommit, Height: m.Height, Round: m.Round,
			Digest: d, Replica: id, Sig: m.Sigs[i]}
		// One voter is one vote: a voter named twice is a forged quorum.
		if slices.Contains(m.Voters[:i], id) || !t.env.Verifier().VerifySig(id, v.SigDigest(), v.Sig) {
			return
		}
		votes = append(votes, v)
	}
	if len(votes) < t.env.Config().Quorum() {
		return
	}
	st := t.state(m.Height, m.Round)
	if !st.hasProp {
		st.hasProp = true
		st.batch = m.Batch
		st.digest = d
	}
	for _, v := range votes {
		t.recordVote(v.Replica, v)
	}
}

// noteHeight tracks peer heights; once f+1 peers demonstrate activity
// above our height the cluster has decided heights we missed, and no
// quorum may remain at ours — fetch the decisions.
func (t *Tendermint) noteHeight(from types.NodeID, h types.SeqNum) {
	if h <= t.height {
		return
	}
	t.peerHeights.Add(h, from, struct{}{})
	if ahead, _ := core.Ahead(&t.peerHeights, t.height, -1); ahead < t.env.F()+1 {
		return
	}
	if t.fetching && t.fetchingFrom >= t.height {
		return // a fetch for this height is already in flight
	}
	t.fetching = true
	t.fetchingFrom = t.height
	t.env.Broadcast(&FetchDecisionMsg{From: t.env.Ledger().LastExecuted()})
	// Loss can eat the fetch or its response; keep a re-fetch window
	// armed until the height advances.
	t.env.SetTimer(core.TimerID{Name: timerCatchup}, t.env.Config().ViewChangeTimeout)
}

// noteRound implements round catch-up: when f+1 peers demonstrate
// activity in a round above ours (at our height), we jump to it — solo
// timeout cascades would otherwise let replicas drift apart.
func (t *Tendermint) noteRound(from types.NodeID, h types.SeqNum, r uint32) {
	if h != t.height {
		return
	}
	t.peerRounds.Add(r, from, struct{}{})
	if r <= t.round {
		return
	}
	if ahead, _ := core.Ahead(&t.peerRounds, r-1, -1); ahead < t.env.F()+1 {
		return
	}
	t.stopRoundTimers()
	t.round = r
	t.env.ViewChanged(types.View(uint64(t.height)*1000 + uint64(t.round)))
	st := t.state(t.height, t.round)
	if t.proposer(t.height, t.round) == t.env.ID() {
		if !st.hasProp {
			t.propose()
		}
	} else if t.backlog.Len() > 0 || t.locked {
		t.armProposeTimeout()
	}
}

func (t *Tendermint) recordVote(from types.NodeID, v *VoteMsg) {
	if v.Height < t.height {
		return // decided height
	}
	st := t.state(v.Height, v.Round)
	if v.Type == votePrevote {
		st.prevotes.Add(v.Digest, from, struct{}{})
	} else {
		st.precommits.Add(v.Digest, from, v.Sig)
	}
	if v.Height == t.height && v.Round == t.round {
		t.advanceStep(st)
	}
	if v.Type == votePrecommit {
		t.maybeCommit(v.Height, v.Round)
	}
}

// advanceStep applies the prevote→precommit transition for the current
// round once quorums form.
func (t *Tendermint) advanceStep(st *roundState) {
	quorum := t.env.Config().Quorum()
	for digest, voters := range st.prevotes.All() {
		if digest.IsZero() || len(voters) < quorum || st.sentPC {
			continue
		}
		if !st.hasProp || st.digest != digest {
			continue // can't lock a value we don't hold
		}
		// 2f+1 prevotes for the proposal: lock it and precommit.
		t.locked = true
		t.lockedDigest = digest
		t.lockedBatch = st.batch
		t.sendVote(votePrecommit, digest, st)
		t.env.StopTimer(core.TimerID{Name: timerPrevote, View: types.View(t.round), Seq: t.height})
		t.env.SetTimer(core.TimerID{Name: timerPrecommit, View: types.View(t.round), Seq: t.height},
			t.env.Config().ViewChangeTimeout)
	}
	// 2f+1 nil precommits: the round is dead, advance.
	if st.precommits.Count(types.ZeroDigest) >= quorum {
		t.nextRound()
	}
}

// maybeCommit fires when 2f+1 precommits exist for a non-nil digest at
// (h, r) — the decision rule, independent of our current round.
func (t *Tendermint) maybeCommit(h types.SeqNum, r uint32) {
	if h < t.height {
		return
	}
	st := t.states[hrKey{h, r}]
	if st == nil {
		return
	}
	quorum := t.env.Config().Quorum()
	for digest, voters := range st.precommits.All() {
		if digest.IsZero() || len(voters) < quorum {
			continue
		}
		if !st.hasProp || st.digest != digest {
			// Decided but we never saw the batch: fetch it from the
			// lowest-ID precommitter (fixed choice — map order must not
			// leak into the message stream), then recheck on arrival.
			target := types.NodeID(-1)
			for _, id := range core.Senders(voters) {
				if id != t.env.ID() && (target < 0 || id < target) {
					target = id
				}
			}
			if target >= 0 {
				t.env.Send(target, &FetchProposalMsg{Height: h, Round: r})
			}
			return
		}
		if h != t.height {
			return // commit strictly in height order; earlier height pending
		}
		proof := &types.CommitProof{View: types.View(r), Seq: h, Digest: digest, Voters: core.Senders(voters)}
		// Retain the signed quorum: it is the transferable certificate
		// that lets stranded replicas adopt this decision later.
		t.decisions[h] = &decision{round: r, batch: st.batch, votes: voters}
		t.sawQuorumPrev = true
		// Commit executes synchronously; OnExecuted advances the height.
		t.env.Commit(types.View(r), h, st.batch, proof)
		return
	}
}

func (t *Tendermint) enterHeight(h types.SeqNum) {
	// Drop per-round state of decided heights.
	for k := range t.states {
		if k.H < h {
			delete(t.states, k)
		}
	}
	t.stopRoundTimers()
	t.height = h
	t.round = 0
	t.peerRounds = core.Tally[uint32, struct{}]{}
	t.peerHeights.Prune(func(ph types.SeqNum) bool { return ph <= h })
	t.locked = false
	t.lockedBatch = nil
	t.lockedDigest = types.ZeroDigest
	t.env.ViewChanged(types.View(h)) // rotation event for the metrics

	if t.fetching && h > t.fetchingFrom {
		t.fetching = false
		t.env.StopTimer(core.TimerID{Name: timerCatchup})
	}
	low := t.env.Ledger().LowWater()
	for s := range t.decisions {
		if s <= low {
			delete(t.decisions, s)
		}
	}

	// Decision transfer or early votes may already hold a quorum at this
	// height; drain it (in round order, for determinism) before acting
	// as proposer here.
	var rounds []uint32
	for k := range t.states {
		if k.H == h {
			rounds = append(rounds, k.R)
		}
	}
	sort.Slice(rounds, func(i, j int) bool { return rounds[i] < rounds[j] })
	for _, r := range rounds {
		t.maybeCommit(h, r)
		if t.height != h {
			return // committed; the recursive enterHeight finished the setup
		}
	}

	if t.proposer(h, 0) == t.env.ID() {
		// DC4: wait Δ so every slow-but-correct replica's precommit
		// for h−1 has arrived — unless we saw the full quorum ourselves
		// and the optimization is enabled.
		if t.opts.SkipDeltaWait && t.sawQuorumPrev {
			t.deltaDone = true
			t.env.SetTimer(core.TimerID{Name: timerNewHeight, Seq: h}, t.env.Config().BatchTimeout)
		} else {
			t.deltaDone = false
			t.env.SetTimer(core.TimerID{Name: timerNewHeight, Seq: h}, t.env.Config().Delta)
		}
	} else {
		t.deltaDone = true
	}
	t.sawQuorumPrev = false
	t.kick()
}

func (t *Tendermint) nextRound() {
	t.stopRoundTimers()
	t.round++
	t.env.ViewChanged(types.View(uint64(t.height)*1000 + uint64(t.round)))
	st := t.state(t.height, t.round)
	if t.proposer(t.height, t.round) == t.env.ID() {
		if !st.hasProp {
			t.propose()
		}
	} else if t.backlog.Len() > 0 || t.locked {
		t.armProposeTimeout()
	}
}

func (t *Tendermint) stopRoundTimers() {
	for _, name := range []string{timerPropose, timerPrevote, timerPrecommit} {
		t.env.StopTimer(core.TimerID{Name: name, View: types.View(t.round), Seq: t.height})
	}
}

// OnTimer implements core.Protocol.
func (t *Tendermint) OnTimer(id core.TimerID) {
	switch id.Name {
	case timerBatch:
		if id.Seq == t.height && t.proposer(t.height, t.round) == t.env.ID() {
			t.propose()
		}
	case timerNewHeight:
		if id.Seq == t.height && t.proposer(t.height, t.round) == t.env.ID() {
			t.deltaDone = true
			if t.backlog.Len() > 0 || t.locked {
				t.propose()
			}
		}
	case timerPropose:
		if id.Seq == t.height && id.View == types.View(t.round) {
			st := t.state(t.height, t.round)
			t.sendVote(votePrevote, types.ZeroDigest, st) // prevote nil
			t.env.SetTimer(core.TimerID{Name: timerPrevote, View: types.View(t.round), Seq: t.height},
				t.env.Config().ViewChangeTimeout)
		}
	case timerPrevote:
		if id.Seq == t.height && id.View == types.View(t.round) {
			st := t.state(t.height, t.round)
			t.sendVote(votePrecommit, types.ZeroDigest, st) // precommit nil
			t.env.SetTimer(core.TimerID{Name: timerPrecommit, View: types.View(t.round), Seq: t.height},
				t.env.Config().ViewChangeTimeout)
		}
	case timerPrecommit:
		if id.Seq == t.height && id.View == types.View(t.round) {
			t.nextRound()
		}
	case timerCatchup:
		if !t.fetching {
			return
		}
		// The fetch or its response was lost; retry until the height
		// advances past the point the fetch started from.
		t.env.Broadcast(&FetchDecisionMsg{From: t.env.Ledger().LastExecuted()})
		t.env.SetTimer(core.TimerID{Name: timerCatchup}, t.env.Config().ViewChangeTimeout)
	}
}

// OnExecuted implements core.Protocol. It fires both for our own
// commits and for slots adopted through checkpoint state transfer;
// either way everything through seq is decided, so the consensus height
// must follow — a replica whose ledger was caught up by state transfer
// but whose height stayed behind would be a proposer that never
// proposes, stalling every round assigned to it.
func (t *Tendermint) OnExecuted(seq types.SeqNum, batch *types.Batch, results [][]byte) {
	if seq >= t.height {
		t.enterHeight(seq + 1)
	}
	t.backlog.Executed(batch)
	core.ReplyExecuted(t.env, types.View(seq), seq, batch, results, false)
	t.cm.OnExecuted(seq)
}
