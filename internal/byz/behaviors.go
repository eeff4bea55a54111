package byz

import (
	"fmt"
	"strings"
	"time"

	"bftkit/internal/core"
	"bftkit/internal/obsv"
	"bftkit/internal/types"
)

// ---------------------------------------------------------------------
// Equivocate: the classic safety attack on speculative fast paths
// (DC5–DC8). As leader (or chain predecessor) the node shows one half of
// the replicas one batch and the other half a different, validly-signed
// batch at the same sequence number. Honest protocols must detect the
// divergence — split vote sets, mismatched speculative histories — and
// recover through their slow path or a view change without ever letting
// two honest replicas execute different histories.

// Equivocate forks every batch-carrying message sent to the target set.
type Equivocate struct {
	// Targets receive the forged variant; empty defaults to the upper
	// half of the replica set (the lower half, which includes the usual
	// initial leader, sees the original).
	Targets []types.NodeID
}

// Name implements Behavior.
func (Equivocate) Name() string { return "equivocate" }

// New implements Behavior.
func (b Equivocate) New() Actor { return &equivActor{b: b} }

type equivActor struct {
	Passive
	b       Equivocate
	t       *Tools
	targets map[types.NodeID]bool
	// last is the latest client request delivered to this replica. It
	// fills the fork of an empty batch: a leader whose turns all fall on
	// request-free blocks (HotStuff-2's carriers, when batching locks the
	// clients into step) still signs two blocks at each of its heights.
	last *types.Request
}

func (a *equivActor) Incoming(req *types.Request) { a.last = req }

// fork is ForkBatch, with an empty batch forked into one carrying the
// last request this replica saw.
func (a *equivActor) fork(b *types.Batch) *types.Batch {
	if b.Len() == 0 && a.last != nil {
		return types.NewBatch(a.last)
	}
	return ForkBatch(b)
}

func (a *equivActor) Init(t *Tools) {
	a.t = t
	a.targets = make(map[types.NodeID]bool)
	if len(a.b.Targets) > 0 {
		for _, id := range a.b.Targets {
			a.targets[id] = true
		}
		return
	}
	ids := t.Env.Replicas()
	for _, id := range ids[len(ids)/2:] {
		a.targets[id] = true
	}
}

func (a *equivActor) Outgoing(to types.NodeID, m types.Message) Verdict {
	if !a.targets[to] {
		return Verdict{}
	}
	alt, ok := ReplaceBatch(m, a.fork, a.t.Env.Signer().Sign)
	if !ok {
		return Verdict{}
	}
	return Verdict{Replace: alt}
}

// ---------------------------------------------------------------------
// SilentPhases: a replica that participates in ordering but withholds
// selected phases — the adversary that separates SBFT's all-replica
// fast path (falls back to the τ3 slow path, DC6) from PoE's 2f+1
// certificates (absorbs it without a timeout, DC7), and that denies
// Zyzzyva's client its 3f+1 speculative quorum (DC8).

// SilentPhases drops every outgoing message whose obsv phase is listed.
type SilentPhases struct {
	Phases []string
}

// Name implements Behavior.
func (SilentPhases) Name() string { return "withhold" }

// New implements Behavior.
func (b SilentPhases) New() Actor {
	set := make(map[string]bool, len(b.Phases))
	for _, p := range b.Phases {
		set[p] = true
	}
	return &silentActor{phases: set}
}

type silentActor struct {
	Passive
	phases map[string]bool
}

func (a *silentActor) Outgoing(to types.NodeID, m types.Message) Verdict {
	return Verdict{Drop: a.phases[obsv.PhaseOf(m.Kind())]}
}

// DefaultVotePhases are the vote/commit/reply phases a generic
// withholder suppresses: enough to deny every optimistic all-replica
// quorum while leaving proposals, view changes, checkpoints, and state
// transfer untouched so the honest 2f+1 can still make progress.
var DefaultVotePhases = []string{
	"prepare", "commit", "vote", "share", "sign", "prevote", "precommit",
	"accept", "certify", "qc", "update", "append", "query", "write",
	"repair", obsv.PhaseClient,
}

// WithholdVotes is SilentPhases over DefaultVotePhases.
func WithholdVotes() Behavior { return SilentPhases{Phases: DefaultVotePhases} }

// ---------------------------------------------------------------------
// DelayProposals: the X14 delay attack, on any protocol. The node stays
// just inside every timeout, degrading latency without ever triggering a
// view change — the paper's argument (§1, DC12) for why robustness needs
// more than liveness timers.

// DelayProposals holds selected outgoing messages for a fixed time.
type DelayProposals struct {
	// Delay per message; default 3× the network's base delay would be
	// protocol-dependent, so the zero value means 5ms.
	Delay time.Duration
	// Phases limits the attack; empty means every ordering-phase
	// message (view-change/checkpoint/recovery traffic stays timely, so
	// the attack remains invisible to failure detectors).
	Phases []string
}

// Name implements Behavior.
func (DelayProposals) Name() string { return "delay" }

// New implements Behavior.
func (b DelayProposals) New() Actor {
	d := b.Delay
	if d == 0 {
		d = 5 * time.Millisecond
	}
	var set map[string]bool
	if len(b.Phases) > 0 {
		set = make(map[string]bool, len(b.Phases))
		for _, p := range b.Phases {
			set[p] = true
		}
	}
	return &delayActor{d: d, phases: set}
}

type delayActor struct {
	Passive
	d      time.Duration
	phases map[string]bool
}

func (a *delayActor) Outgoing(to types.NodeID, m types.Message) Verdict {
	ph := obsv.PhaseOf(m.Kind())
	if a.phases != nil {
		if a.phases[ph] {
			return Verdict{Delay: a.d}
		}
		return Verdict{}
	}
	if obsv.IsProtocolPhase(ph) {
		return Verdict{Delay: a.d}
	}
	return Verdict{}
}

// ---------------------------------------------------------------------
// CorruptResults: the replica orders and executes honestly but reports
// wrong execution results to clients — the attack that makes f+1
// matching replies (P6) the client's last line of defense. With Stuff
// set it additionally mails the client forged replies under other
// replicas' identities; a client that keys votes by the claimed replica
// field instead of the authenticated sender would count those as a
// quorum.

// CorruptValue is the result every corrupted reply carries.
var CorruptValue = []byte("byz/corrupt-result")

// CorruptResults corrupts this replica's execution results; Stuff adds
// f forged-identity replies per corrupted reply.
type CorruptResults struct {
	Stuff bool
}

// Name implements Behavior.
func (b CorruptResults) Name() string {
	if b.Stuff {
		return "stuff"
	}
	return "corrupt"
}

// New implements Behavior.
func (b CorruptResults) New() Actor { return &corruptActor{b: b} }

type corruptActor struct {
	Passive
	b CorruptResults
	t *Tools
}

func (a *corruptActor) Init(t *Tools) { a.t = t }

func (a *corruptActor) OutgoingReply(rp *types.Reply) {
	rp.Result = append([]byte(nil), CorruptValue...)
	if !a.b.Stuff {
		return
	}
	// Forge f more votes for the corrupted result. The authenticators
	// are garbage — a Byzantine node can neither sign nor MAC for
	// others — so only a client that skips reply checks AND trusts the
	// claimed identity is fooled.
	self := a.t.Env.ID()
	left := a.t.Env.F()
	for _, id := range a.t.Env.Replicas() {
		if left == 0 {
			break
		}
		if id == self {
			continue
		}
		forged := *rp
		forged.Replica = id
		forged.Sig = []byte("byz/forged-sig")
		a.t.Raw(rp.Client, &core.ReplyMsg{R: &forged})
		left--
	}
}

// ---------------------------------------------------------------------
// StaleViewSpam: replays old, validly-signed protocol messages forever.
// Honest replicas must treat them as the duplicates/stale views they
// are; any state regression (re-voting, view rollback) is a safety bug
// the auditor catches.

// StaleViewSpam periodically rebroadcasts previously-sent messages.
type StaleViewSpam struct {
	// Interval between replays (default 20ms).
	Interval time.Duration
	// Keep bounds the replay buffer (default 16 messages).
	Keep int
}

// Name implements Behavior.
func (StaleViewSpam) Name() string { return "stale" }

// New implements Behavior.
func (b StaleViewSpam) New() Actor {
	if b.Interval == 0 {
		b.Interval = 20 * time.Millisecond
	}
	if b.Keep == 0 {
		b.Keep = 16
	}
	return &staleActor{b: b}
}

type staleActor struct {
	Passive
	b     StaleViewSpam
	t     *Tools
	cache []types.Message
	next  int
}

func (a *staleActor) Init(t *Tools) {
	a.t = t
	t.After(a.b.Interval, a.tick)
}

func (a *staleActor) Outgoing(to types.NodeID, m types.Message) Verdict {
	ph := obsv.PhaseOf(m.Kind())
	if obsv.IsProtocolPhase(ph) || ph == obsv.PhaseViewChange {
		if len(a.cache) < a.b.Keep {
			a.cache = append(a.cache, m)
		} else {
			a.cache[a.next%a.b.Keep] = m
		}
		a.next++
	}
	return Verdict{}
}

func (a *staleActor) tick() {
	if len(a.cache) > 0 {
		m := a.cache[a.next%len(a.cache)] // oldest-ish slot, deterministic
		self := a.t.Env.ID()
		for _, id := range a.t.Env.Replicas() {
			if id != self {
				a.t.Raw(id, m)
			}
		}
	}
	a.t.After(a.b.Interval, a.tick)
}

// ---------------------------------------------------------------------
// Combinators: selective targeting and composition.

// Targeted restricts Inner's interference to messages addressed to Only
// (and replies destined for clients in Only) — e.g. an equivocator that
// only lies to one replica, or a withholder that starves one client.
type Targeted struct {
	Inner Behavior
	Only  []types.NodeID
}

// Name implements Behavior.
func (b Targeted) Name() string { return "targeted(" + b.Inner.Name() + ")" }

// New implements Behavior.
func (b Targeted) New() Actor {
	set := make(map[types.NodeID]bool, len(b.Only))
	for _, id := range b.Only {
		set[id] = true
	}
	return &targetedActor{inner: b.Inner.New(), only: set}
}

type targetedActor struct {
	inner Actor
	only  map[types.NodeID]bool
}

func (a *targetedActor) Init(t *Tools) { a.inner.Init(t) }

func (a *targetedActor) Outgoing(to types.NodeID, m types.Message) Verdict {
	if !a.only[to] {
		return Verdict{}
	}
	return a.inner.Outgoing(to, m)
}

func (a *targetedActor) Incoming(req *types.Request) { a.inner.Incoming(req) }

func (a *targetedActor) OutgoingReply(rp *types.Reply) {
	if a.only[rp.Client] {
		a.inner.OutgoingReply(rp)
	}
}

// Compose runs several behaviors on the same node, folding their
// verdicts in order (a drop wins; replacements chain; delays add).
func Compose(bs ...Behavior) Behavior { return composite(bs) }

type composite []Behavior

// Name implements Behavior.
func (c composite) Name() string {
	names := make([]string, len(c))
	for i, b := range c {
		names[i] = b.Name()
	}
	return strings.Join(names, "+")
}

// New implements Behavior.
func (c composite) New() Actor {
	actors := make([]Actor, len(c))
	for i, b := range c {
		actors[i] = b.New()
	}
	return &compositeActor{actors: actors}
}

type compositeActor struct {
	actors []Actor
}

func (a *compositeActor) Init(t *Tools) {
	for _, x := range a.actors {
		x.Init(t)
	}
}

func (a *compositeActor) Outgoing(to types.NodeID, m types.Message) Verdict {
	var out Verdict
	for _, x := range a.actors {
		v := x.Outgoing(to, m)
		if v.Drop {
			return Verdict{Drop: true}
		}
		if v.Replace != nil {
			m = v.Replace
			out.Replace = v.Replace
		}
		out.Delay += v.Delay
	}
	return out
}

func (a *compositeActor) Incoming(req *types.Request) {
	for _, x := range a.actors {
		x.Incoming(req)
	}
}

func (a *compositeActor) OutgoingReply(rp *types.Reply) {
	for _, x := range a.actors {
		x.OutgoingReply(rp)
	}
}

// ---------------------------------------------------------------------
// CLI surface.

// CatalogEntry describes one built-in behavior for -byz listings.
type CatalogEntry struct {
	Name string
	Help string
}

// Catalog lists the built-in behaviors Parse accepts.
func Catalog() []CatalogEntry {
	return []CatalogEntry{
		{"equivocate", "propose different validly-signed batches to different replicas at the same seq"},
		{"withhold", "participate in ordering but withhold votes/commits/replies"},
		{"delay", "delay ordering-phase messages while staying under every timeout (delay:<dur> to tune)"},
		{"corrupt", "execute honestly but report wrong results to clients"},
		{"stuff", "corrupt results AND forge f extra replies under other replicas' identities"},
		{"stale", "replay old validly-signed protocol messages forever (stale:<interval> to tune)"},
	}
}

// Parse resolves a CLI behavior spec ("equivocate", "delay:2ms", …).
func Parse(spec string) (Behavior, error) {
	name, arg, _ := strings.Cut(spec, ":")
	switch name {
	case "equivocate":
		return Equivocate{}, nil
	case "withhold":
		return WithholdVotes(), nil
	case "delay":
		d := time.Duration(0)
		if arg != "" {
			var err error
			if d, err = time.ParseDuration(arg); err != nil {
				return nil, fmt.Errorf("byz: bad delay %q: %v", arg, err)
			}
		}
		return DelayProposals{Delay: d}, nil
	case "corrupt":
		return CorruptResults{}, nil
	case "stuff":
		return CorruptResults{Stuff: true}, nil
	case "stale":
		iv := time.Duration(0)
		if arg != "" {
			var err error
			if iv, err = time.ParseDuration(arg); err != nil {
				return nil, fmt.Errorf("byz: bad interval %q: %v", arg, err)
			}
		}
		return StaleViewSpam{Interval: iv}, nil
	}
	return nil, fmt.Errorf("byz: unknown behavior %q (known: equivocate, withhold, delay, corrupt, stuff, stale)", spec)
}
