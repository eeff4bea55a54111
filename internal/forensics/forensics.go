// Package forensics is the accountability tier of the testbed: an
// auditor that watches the delivery stream of a running cluster and
// turns retained signature claims plus traffic statistics into (a)
// cryptographically verifiable misbehavior proofs and (b) suspicion
// scores for behaviors that signatures cannot pin down.
//
// The auditor taps message delivery (sim.Network.SetTap on the
// simulator, a handler wrapper on real TCP), extracts each message's
// signature claims (crypto.SigClaimer, or a vote's own signature), and
// keeps a bounded evidence table keyed by (signer, kind, view, seq).
// Conflicting validly-signed digests at one key become equivocation
// proofs; invalid claims become forged-sig proofs blaming the transport
// sender; excessive identical deliveries become replay proofs;
// conflicting signed replies for one request become divergent-result
// proofs. Withholding and delaying leave no signature trail — the
// classic omission-fault attribution gap — so they are scored, never
// proved: per-time-bucket traffic and delivery lag against honest-peer
// baselines, with guards that keep crashes, partitions, and delay spikes
// from indicting honest replicas.
package forensics

import (
	"sync"
	"time"

	"bftkit/internal/core"
	"bftkit/internal/crypto"
	"bftkit/internal/obsv"
	"bftkit/internal/types"
)

// Defaults; every one is overridable through Options.
const (
	// DefaultReplayThreshold is the per-receiver delivery count of one
	// identical claim beyond which the auditor calls replay. The
	// simulator duplicates at most one extra copy per send, and honest
	// retransmission paths (checkpoints, view changes, state transfer)
	// are excluded from replay tracking entirely, so the bound only has
	// to clear protocol-level re-sends of ordering traffic.
	DefaultReplayThreshold = 8
	// DefaultReplayWindow is the minimum span the repeats must cover:
	// a burst inside one delivery tick (duplication, fan-out) is not a
	// replay campaign.
	DefaultReplayWindow = 50 * time.Millisecond
	// DefaultMaxTracked bounds every evidence table (slots, replay
	// counters, reply groups, lag groups); oldest entries fall off
	// first, so long runs audit a sliding window.
	DefaultMaxTracked = 1 << 14
	// DefaultMaxProofs caps retained proofs per (culprit, kind): the
	// first few convict, the rest are repetition.
	DefaultMaxProofs = 4
	// DefaultAccuseThreshold is the suspicion score at or above which a
	// replica is formally accused. Scores are fractions of run octiles
	// (see score.go), so 0.75 demands misbehavior across at least 6 of
	// 8 buckets — windowed faults (a partition, a delay spike) cannot
	// reach it.
	DefaultAccuseThreshold = 0.75
	// DefaultLagFloor is the absolute per-message delivery lag below
	// which a replica is never considered slow; the effective floor
	// adapts upward on jittery networks (see score.go).
	DefaultLagFloor = 2 * time.Millisecond

	// scoreBuckets is the octile count scores are computed over, and
	// binWidth the raw accumulation grain they are resampled from.
	scoreBuckets = 8
	binWidth     = 20 * time.Millisecond
)

// Options configures an Auditor.
type Options struct {
	// N is the replica count; replicas are 0..N-1. Required.
	N int
	// F is the fault threshold (divergent-result proofs need f+1
	// matching references). Required.
	F int
	// Keys verifies signature claims. Required — the auditor is a
	// public-key-only party and never touches an Authority, so its
	// verifications do not perturb the run's crypto cost accounting.
	Keys crypto.KeyRing
	// Tracer, when set, receives live proof counters and suspicion
	// gauges for the Prometheus surface.
	Tracer *obsv.Tracer

	ReplayThreshold int
	ReplayWindow    time.Duration
	MaxTracked      int
	MaxProofs       int
	AccuseThreshold float64
	LagFloor        time.Duration

	// AsymmetricRoles marks a deployment whose protocol gives replicas
	// structurally unequal traffic roles: an active-replica reduction
	// keeps f spares passive (CheapBFT — and the benched set rotates
	// across views), a tree topology concentrates relaying in interior
	// nodes (Kauri), a chain pipelines through hops (chained
	// replication). The peer-median traffic baseline cannot distinguish
	// a benched or starved replica from a withholder there, so
	// withholding evidence is still scored but never escalates to a
	// formal accusation; only delay evidence and proofs accuse.
	AsymmetricRoles bool

	// LocalNode, when non-nil, is the replica at whose vantage this
	// auditor runs (a node-local deployment tapping only its own inbound
	// stream, like bftnode -forensics). That replica's own sends never
	// traverse its inbound path, so it is structurally unobservable:
	// it is excluded from omission scoring and from the peer-traffic
	// baseline, or the auditor would frame its host as a withholder.
	// Cluster-wide auditors (harness, chaos) observe every node's
	// inbound stream and leave this nil.
	LocalNode *types.NodeID
}

func (o *Options) fill() {
	if o.ReplayThreshold == 0 {
		o.ReplayThreshold = DefaultReplayThreshold
	}
	if o.ReplayWindow == 0 {
		o.ReplayWindow = DefaultReplayWindow
	}
	if o.MaxTracked == 0 {
		o.MaxTracked = DefaultMaxTracked
	}
	if o.MaxProofs == 0 {
		o.MaxProofs = DefaultMaxProofs
	}
	if o.AccuseThreshold == 0 {
		o.AccuseThreshold = DefaultAccuseThreshold
	}
	if o.LagFloor == 0 {
		o.LagFloor = DefaultLagFloor
	}
}

// replyCarrier is implemented by core.ReplyMsg (structurally, like
// obsv.Slotted): it exposes the signed reply a message delivers.
type replyCarrier interface {
	ReplyPayload() *types.Reply
}

// slotKey identifies one replica's claim slot: what equivocation
// conflicts on.
type slotKey struct {
	signer types.NodeID
	kind   string
	view   types.View
	seq    types.SeqNum
}

// slotClaim is the first valid claim retained for a slotKey.
type slotClaim struct {
	ev      Evidence
	flagged bool
}

// claimKey identifies one exact (signer, digest, signature) claim
// delivered to one receiver — the unit replay is counted on.
type claimKey struct {
	id types.Digest
	to types.NodeID
}

// replayState tracks repeated deliveries of one claim to one receiver.
type replayState struct {
	ev      Evidence
	count   int
	flagged bool
}

// replyEv retains one replica's first signed reply for a request.
type replyEv struct {
	reply types.Reply
	at    time.Duration
}

// lagGroup collects first-delivery times of one (kind, view, seq)
// broadcast at one receiver, per sender: the peer baseline delay
// scoring compares against.
type lagGroup struct {
	first map[types.NodeID]time.Duration
}

type groupKey struct {
	kind string
	view types.View
	seq  types.SeqNum
	to   types.NodeID
}

type proofCountKey struct {
	culprit types.NodeID
	kind    string
}

// window is one known-administrative downtime span of a replica.
type window struct {
	node     types.NodeID
	from, to time.Duration
}

// Auditor is the live accountability monitor. All methods are safe for
// concurrent use (the TCP harness delivers from many event loops).
type Auditor struct {
	mu  sync.Mutex
	opt Options

	started  bool
	start    time.Duration
	last     time.Duration
	verified map[types.Digest]bool // claim id → sig validity memo

	slots     map[slotKey]*slotClaim
	slotOrder []slotKey

	replay      map[claimKey]*replayState
	replayOrder []claimKey

	replies    map[types.RequestKey]map[types.NodeID]*replyEv
	replyOrder []types.RequestKey
	replyDone  map[types.RequestKey]bool

	lags     map[groupKey]*lagGroup
	lagOrder []groupKey

	// sentBins[node] maps bin index (at/binWidth) to delivered-message
	// count attributed to that sender; phaseSent is the per-phase
	// breakdown for the report table.
	sentBins  map[types.NodeID]map[int]int
	phaseSent map[types.NodeID]map[string]int

	downtime []window

	proofs     []*Proof
	proofCount map[proofCountKey]int

	// claims is the buffer each delivery's signature claims are appended
	// into, reused under mu.
	claims []crypto.SigClaim
}

// New builds an auditor. It panics on a missing key ring or replica
// count, mirroring harness constructors.
func New(opt Options) *Auditor {
	if opt.N <= 0 || len(opt.Keys) == 0 {
		panic("forensics: Options.N and Options.Keys are required")
	}
	opt.fill()
	a := &Auditor{
		opt:        opt,
		verified:   make(map[types.Digest]bool),
		slots:      make(map[slotKey]*slotClaim),
		replay:     make(map[claimKey]*replayState),
		replies:    make(map[types.RequestKey]map[types.NodeID]*replyEv),
		replyDone:  make(map[types.RequestKey]bool),
		lags:       make(map[groupKey]*lagGroup),
		sentBins:   make(map[types.NodeID]map[int]int),
		phaseSent:  make(map[types.NodeID]map[string]int),
		proofCount: make(map[proofCountKey]int),
	}
	for i := 0; i < opt.N; i++ {
		id := types.NodeID(i)
		a.sentBins[id] = make(map[int]int)
		a.phaseSent[id] = make(map[string]int)
	}
	return a
}

// ExcuseDowntime records an administratively-known downtime window
// (an injected crash, an operator restart) for node: score buckets
// overlapping it are not held against the replica. The chaos runner
// feeds its own crash schedule here; genuinely unknown faults
// (partitions, delay spikes) get no excuse and must be absorbed by the
// scoring guards instead.
func (a *Auditor) ExcuseDowntime(node types.NodeID, from, to time.Duration) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.downtime = append(a.downtime, window{node, from, to})
}

// Observe ingests one delivered message. at is delivery time on the
// run's clock, from the transport-level sender, to the receiver.
func (a *Auditor) Observe(at time.Duration, from, to types.NodeID, m types.Message) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.started || at < a.start {
		if !a.started {
			a.start, a.started = at, true
		} else {
			a.start = at
		}
	}
	if at > a.last {
		a.last = at
	}

	kind := m.Kind()
	phase := obsv.PhaseOf(kind)
	if !from.IsClient() && int(from) < a.opt.N {
		a.sentBins[from][int(at/binWidth)]++
		a.phaseSent[from][phase]++
		if obsv.IsProtocolPhase(phase) {
			a.noteLag(at, from, to, kind, m)
		}
	}

	if rc, ok := m.(replyCarrier); ok {
		if rp := rc.ReplyPayload(); rp != nil {
			a.observeReply(at, from, to, rp)
		}
		return
	}

	switch mm := m.(type) {
	case *core.VoteMsg:
		// Votes are verified on demand, not prefetched, so they expose no
		// claims; the auditor reads the voter's signature itself.
		a.claims = append(a.claims[:0], crypto.SigClaim{Signer: mm.Replica, Digest: mm.SigDigest(), Sig: mm.Sig})
	case crypto.SigClaimer:
		a.claims = mm.AppendSigClaims(a.claims[:0], from)
	default:
		return
	}
	for _, c := range a.claims {
		a.observeClaim(at, from, to, kind, phase, m, c)
	}
}

// observeClaim processes one signature claim of a delivered message.
func (a *Auditor) observeClaim(at time.Duration, from, to types.NodeID, kind, phase string, m types.Message, c crypto.SigClaim) {
	// Unsigned claims carry no evidence (MAC-authenticated deployments:
	// no non-repudiation), and client signers are outside the replica
	// accountability domain — a garbled client signature blames the
	// client, and honest replicas legitimately relay unvalidated client
	// requests (FORWARD), so treating those as replica forgery would
	// frame the relay.
	if len(c.Sig) == 0 || c.Signer.IsClient() {
		return
	}

	id := claimID(c)
	valid, seen := a.verified[id]
	if !seen {
		valid = a.opt.Keys.VerifySig(c.Signer, c.Digest, c.Sig)
		a.verified[id] = valid
		if len(a.verified) > 4*a.opt.MaxTracked {
			a.verified = map[types.Digest]bool{id: valid}
		}
	}

	view, seq := types.View(0), types.SeqNum(0)
	if sl, ok := m.(obsv.Slotted); ok {
		view, seq = sl.Slot()
	}
	ev := Evidence{Signer: c.Signer, Sender: from, To: to, Kind: kind,
		View: view, Seq: seq, Digest: c.Digest, Sig: append([]byte(nil), c.Sig...), At: at}

	if !valid {
		a.emit(&Proof{Proof: ProofForgedSig, Culprit: from, At: at,
			Detail: "claim under " + kind + " does not verify for claimed signer", First: &ev})
		return
	}

	// Equivocation: two different validly-signed digests in one slot.
	// Only ordering-phase slots are uniqueness-bound; checkpoint,
	// view-change, and recovery kinds may legitimately recur or vary.
	if _, ok := m.(obsv.Slotted); ok && obsv.IsProtocolPhase(phase) {
		k := slotKey{c.Signer, kind, view, seq}
		if fc, ok := a.slots[k]; ok {
			if fc.ev.Digest != c.Digest && !fc.flagged {
				fc.flagged = true
				first := fc.ev
				a.emit(&Proof{Proof: ProofEquivocation, Culprit: c.Signer, At: at,
					Detail: "conflicting signed " + kind + " digests in one slot",
					First:  &first, Second: &ev})
			}
		} else {
			if len(a.slots) >= a.opt.MaxTracked {
				delete(a.slots, a.slotOrder[0])
				a.slotOrder = a.slotOrder[1:]
			}
			a.slots[k] = &slotClaim{ev: ev}
			a.slotOrder = append(a.slotOrder, k)
		}

		// Replay: the same signer pushing the same signed ordering
		// message at the same receiver far beyond duplication bounds.
		// Restricted to signer==sender so relays (chain hops carrying
		// upstream endorsements) are never miscounted.
		if c.Signer == from {
			ck := claimKey{id, to}
			rs, ok := a.replay[ck]
			if !ok {
				if len(a.replay) >= a.opt.MaxTracked {
					delete(a.replay, a.replayOrder[0])
					a.replayOrder = a.replayOrder[1:]
				}
				rs = &replayState{ev: ev}
				a.replay[ck] = rs
				a.replayOrder = append(a.replayOrder, ck)
			}
			rs.count++
			if !rs.flagged && rs.count >= a.opt.ReplayThreshold && at-rs.ev.At >= a.opt.ReplayWindow {
				rs.flagged = true
				first := rs.ev
				a.emit(&Proof{Proof: ProofReplay, Culprit: from, At: at,
					Detail: "identical signed " + kind + " re-delivered past any retransmission bound",
					First:  &first, ReplayCount: rs.count, ReplayUntil: at})
			}
		}
	}
}

// observeReply processes a signed reply: forged-signature screening
// plus the divergent-result cross-check against other replicas'
// replies to the same request.
func (a *Auditor) observeReply(at time.Duration, from, to types.NodeID, rp *types.Reply) {
	if len(rp.Sig) == 0 || rp.Replica.IsClient() {
		return
	}
	c := crypto.SigClaim{Signer: rp.Replica, Digest: rp.Digest(), Sig: rp.Sig}
	id := claimID(c)
	valid, seen := a.verified[id]
	if !seen {
		valid = a.opt.Keys.VerifySig(c.Signer, c.Digest, c.Sig)
		a.verified[id] = valid
	}
	if !valid {
		ev := Evidence{Signer: rp.Replica, Sender: from, To: to, Kind: "REPLY",
			View: rp.View, Seq: rp.Seq, Digest: c.Digest, Sig: append([]byte(nil), rp.Sig...), At: at}
		a.emit(&Proof{Proof: ProofForgedSig, Culprit: from, At: at,
			Detail: "reply signature does not verify for claimed replica", First: &ev})
		return
	}

	// The runtime's dedup sentinel is an execution artifact, not an
	// application result: when a batch is re-proposed across a view
	// change, every honest replica legitimately emits both the real
	// result and a later DuplicateResult for the same request, and
	// delivery jitter decides which the auditor observes first. Sentinel
	// replies therefore carry no divergence signal (their signatures
	// were still screened above).
	if string(rp.Result) == string(core.DuplicateResult) {
		return
	}
	key := types.RequestKey{Client: rp.Client, ClientSeq: rp.ClientSeq}
	if a.replyDone[key] {
		return
	}
	group, ok := a.replies[key]
	if !ok {
		if len(a.replies) >= a.opt.MaxTracked {
			old := a.replyOrder[0]
			a.replyOrder = a.replyOrder[1:]
			delete(a.replies, old)
			delete(a.replyDone, old)
		}
		group = make(map[types.NodeID]*replyEv)
		a.replies[key] = group
		a.replyOrder = append(a.replyOrder, key)
	}
	if _, ok := group[rp.Replica]; ok {
		return
	}
	cp := *rp
	cp.Result = append([]byte(nil), rp.Result...)
	cp.Sig = append([]byte(nil), rp.Sig...)
	group[rp.Replica] = &replyEv{reply: cp, at: at}

	// A reply diverges only against f+1 references that answer the
	// same request in the same execution state (Seq, Speculative,
	// History all equal): replicas answering from different sequence
	// points or speculation levels are in legitimate disagreement.
	for i := 0; i < a.opt.N; i++ {
		culprit := types.NodeID(i)
		cev, ok := group[culprit]
		if !ok {
			continue
		}
		var refs []*types.Reply
		for j := 0; j < a.opt.N; j++ {
			other := types.NodeID(j)
			oev, ok := group[other]
			if !ok || other == culprit {
				continue
			}
			o := &oev.reply
			if o.Seq != cev.reply.Seq || o.Speculative != cev.reply.Speculative || o.History != cev.reply.History {
				continue
			}
			if string(o.Result) == string(cev.reply.Result) {
				refs = nil
				break // culprit agrees with someone: not divergent yet
			}
			if len(refs) == 0 || string(refs[0].Result) == string(o.Result) {
				refs = append(refs, o)
			}
		}
		if len(refs) >= a.opt.F+1 {
			a.replyDone[key] = true
			cr := cev.reply
			a.emit(&Proof{Proof: ProofDivergentResult, Culprit: culprit, At: at,
				Detail: "signed result conflicts with f+1 matching signed replies",
				Reply:  &cr, References: refs[:a.opt.F+1]})
			return
		}
	}
}

// noteLag records one delivery into its broadcast lag group.
func (a *Auditor) noteLag(at time.Duration, from, to types.NodeID, kind string, m types.Message) {
	sl, ok := m.(obsv.Slotted)
	if !ok {
		return
	}
	view, seq := sl.Slot()
	k := groupKey{kind, view, seq, to}
	g, ok := a.lags[k]
	if !ok {
		if len(a.lags) >= a.opt.MaxTracked {
			delete(a.lags, a.lagOrder[0])
			a.lagOrder = a.lagOrder[1:]
		}
		g = &lagGroup{first: make(map[types.NodeID]time.Duration)}
		a.lags[k] = g
		a.lagOrder = append(a.lagOrder, k)
	}
	if _, ok := g.first[from]; !ok {
		g.first[from] = at
	}
}

// emit appends a proof, subject to the per-(culprit, kind) cap, and
// feeds the live tracer counter.
func (a *Auditor) emit(p *Proof) {
	k := proofCountKey{p.Culprit, p.Proof}
	if a.proofCount[k] >= a.opt.MaxProofs {
		return
	}
	a.proofCount[k]++
	a.proofs = append(a.proofs, p)
	if a.opt.Tracer != nil {
		a.opt.Tracer.ForensicsProof(p.Proof)
	}
}

// Proofs returns the retained proofs in emission order.
func (a *Auditor) Proofs() []*Proof {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]*Proof(nil), a.proofs...)
}

// claimID collapses one (signer, digest, sig) claim to a table key.
func claimID(c crypto.SigClaim) types.Digest {
	var h types.Hasher
	h.Str("forensics-claim").U64(uint64(c.Signer)).Digest(c.Digest).Bytes(c.Sig)
	return h.Sum()
}
