// Package prime implements a Prime-style robust protocol [16], design
// choice 12: a preordering stage runs in front of PBFT-style ordering.
// Each request is stamped by a deterministic *origin* replica with a
// local sequence number and broadcast (po-request); all replicas
// acknowledge all-to-all (po-ack); a request with 2f+1 acknowledgements
// is *eligible* and enters the ordering stage in the deterministic
// (localSeq, origin) interleaving. Two consequences the paper highlights:
//
//   - robustness: every replica knows when a request became eligible, so
//     the leader is monitored against a tight bound (τ7-style performance
//     check, here realized as a tightened progress timeout on the inner
//     PBFT engine). A leader that delays ordering — the attack that
//     degrades plain PBFT's throughput by orders of magnitude while
//     staying under its coarse view-change timeout — is replaced within
//     the monitor bound instead (experiment X14);
//   - partial order-fairness: requests enter ordering in preorder
//     coordinates rather than at the leader's whim (experiment X8).
//
// The ordering stage reuses the PBFT engine (internal/protocols/pbft)
// behind an environment wrapper that tightens its view-change timeout to
// the monitor bound.
package prime

import (
	"container/heap"
	"time"

	"bftkit/internal/core"
	"bftkit/internal/crypto"
	"bftkit/internal/protocols/pbft"
	"bftkit/internal/types"
)

// PORequestMsg is the origin's preorder stamp for a request.
type PORequestMsg struct {
	Origin   types.NodeID
	LocalSeq uint64
	Req      *types.Request
	Sig      []byte
}

// Kind implements types.Message.
func (*PORequestMsg) Kind() string { return "PO-REQUEST" }

// SigDigest is the signed content.
func (m *PORequestMsg) SigDigest() types.Digest {
	var h types.Hasher
	h.Str("prime-poreq").U64(uint64(m.Origin)).U64(m.LocalSeq).Digest(m.Req.Digest())
	return h.Sum()
}

// AppendSigClaims implements crypto.SigClaimer: the origin's preorder stamp,
// which receivers verify against the sender.
func (m *PORequestMsg) AppendSigClaims(dst []crypto.SigClaim, from types.NodeID) []crypto.SigClaim {
	return append(dst, crypto.SigClaim{Signer: from, Digest: m.SigDigest(), Sig: m.Sig})
}

// POAckMsg acknowledges receipt of a preordered request (all-to-all).
type POAckMsg struct {
	Origin   types.NodeID
	LocalSeq uint64
	Digest   types.Digest
	Replica  types.NodeID
	Sig      []byte
}

// Kind implements types.Message.
func (*POAckMsg) Kind() string { return "PO-ACK" }

// SigDigest is the signed content.
func (m *POAckMsg) SigDigest() types.Digest {
	var h types.Hasher
	h.Str("prime-poack").U64(uint64(m.Origin)).U64(m.LocalSeq).Digest(m.Digest).U64(uint64(m.Replica))
	return h.Sum()
}

// AppendSigClaims implements crypto.SigClaimer: the acker's signature, which
// receivers verify against the sender.
func (m *POAckMsg) AppendSigClaims(dst []crypto.SigClaim, from types.NodeID) []crypto.SigClaim {
	return append(dst, crypto.SigClaim{Signer: from, Digest: m.SigDigest(), Sig: m.Sig})
}

// monitorBound is the leader-performance bound: the tightened view-change
// timeout of the inner ordering engine, far below the default 250ms PBFT
// timeout, as Prime's monitoring is calibrated to actual network round
// trips.
const monitorBound = 30 * time.Millisecond

type poKey struct {
	Origin   types.NodeID
	LocalSeq uint64
}

type poState struct {
	req    *types.Request
	digest types.Digest
	fed    bool
}

// eligHeap orders eligible requests by (LocalSeq, Origin) — the
// round-robin interleaving Prime uses for (partial) fairness.
type eligHeap []poKey

func (h eligHeap) Len() int { return len(h) }
func (h eligHeap) Less(i, j int) bool {
	if h[i].LocalSeq != h[j].LocalSeq {
		return h[i].LocalSeq < h[j].LocalSeq
	}
	return h[i].Origin < h[j].Origin
}
func (h eligHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eligHeap) Push(x any)   { *h = append(*h, x.(poKey)) }
func (h *eligHeap) Pop() any {
	old := *h
	n := len(old)
	k := old[n-1]
	*h = old[:n-1]
	return k
}

// tightEnv overrides the inner engine's config with the monitor bound.
type tightEnv struct {
	core.Env
	cfg core.Config
}

// Config implements core.Env.
func (e tightEnv) Config() core.Config { return e.cfg }

// Prime is the protocol state machine for one replica.
type Prime struct {
	env   core.Env
	inner core.Protocol

	localSeq uint64
	po       map[poKey]*poState
	// acks holds each PO-ACK's digest by its sender: a request is
	// eligible on 2f+1 backers of its own digest, however many acks
	// for another one arrived before it.
	acks core.Tally[poKey, types.Digest]
	elig eligHeap
	seen map[types.RequestKey]bool
	done map[types.RequestKey]bool
}

// New returns a Prime replica.
func New(core.Config) core.Protocol { return &Prime{} }

func init() {
	core.Register(core.Registration{
		Name:       "prime",
		Profile:    core.PrimeProfile(),
		NewReplica: New,
		NewClient: func(cfg core.Config) core.ClientProtocol {
			return core.NewRequester(core.RequesterOpts{SendToAll: true})
		},
	})
}

// Init implements core.Protocol.
func (p *Prime) Init(env core.Env) {
	p.env = env
	p.po = make(map[poKey]*poState)
	p.acks = core.NewTally[poKey, types.Digest](env.N())
	p.seen = make(map[types.RequestKey]bool)
	p.done = make(map[types.RequestKey]bool)
	cfg := env.Config()
	cfg.ViewChangeTimeout = monitorBound
	p.inner = pbft.New(cfg)
	p.inner.Init(tightEnv{Env: env, cfg: cfg})
}

// Inner exposes the ordering engine (tests observe its view).
func (p *Prime) Inner() core.Protocol { return p.inner }

// OnRequest implements core.Protocol: the preordering stage. Every
// replica acts as originator for requests it receives directly from
// clients (as in Prime); duplicates across origins are absorbed by the
// ordering stage's deduplication.
func (p *Prime) OnRequest(req *types.Request) {
	if p.done[req.Key()] {
		return
	}
	key := req.Key()
	if p.seen[key] {
		return
	}
	if !core.VerifyRequest(p.env, req) {
		return
	}
	p.seen[key] = true
	p.localSeq++
	pr := &PORequestMsg{Origin: p.env.ID(), LocalSeq: p.localSeq, Req: req}
	pr.Sig = p.env.Signer().Sign(pr.SigDigest())
	p.env.Broadcast(pr)
	p.onPORequest(p.env.ID(), pr)
}

// OnMessage implements core.Protocol.
func (p *Prime) OnMessage(from types.NodeID, m types.Message) {
	switch mm := m.(type) {
	case *PORequestMsg:
		if mm.Origin != from {
			return
		}
		if !p.env.Verifier().VerifySig(from, mm.SigDigest(), mm.Sig) {
			return
		}
		p.onPORequest(from, mm)
	case *POAckMsg:
		if mm.Replica != from {
			return
		}
		if !p.env.Verifier().VerifySig(from, mm.SigDigest(), mm.Sig) {
			return
		}
		p.onPOAck(from, mm)
	default:
		p.inner.OnMessage(from, m)
	}
}

func (p *Prime) onPORequest(from types.NodeID, m *PORequestMsg) {
	k := poKey{m.Origin, m.LocalSeq}
	st := p.po[k]
	if st == nil {
		st = &poState{}
		p.po[k] = st
	}
	if st.req != nil {
		return
	}
	st.req = m.Req
	st.digest = m.Req.Digest()
	// Acknowledge all-to-all (the quadratic phase robustness pays for).
	ack := &POAckMsg{Origin: m.Origin, LocalSeq: m.LocalSeq, Digest: st.digest, Replica: p.env.ID()}
	ack.Sig = p.env.Signer().Sign(ack.SigDigest())
	p.env.Broadcast(ack)
	p.acks.Add(k, p.env.ID(), st.digest)
	p.checkEligible(k, st)
}

func (p *Prime) onPOAck(from types.NodeID, m *POAckMsg) {
	k := poKey{m.Origin, m.LocalSeq}
	p.acks.Add(k, from, m.Digest)
	if st := p.po[k]; st != nil {
		p.checkEligible(k, st)
	}
}

// checkEligible feeds requests with 2f+1 acknowledgements of their
// digest into the ordering stage in (localSeq, origin) order. Requests
// already executed (stamped redundantly by several origins) are dropped
// here.
func (p *Prime) checkEligible(k poKey, st *poState) {
	if st.fed || st.req == nil || len(core.Backers(&p.acks, k, st.digest)) < p.env.Config().Quorum() {
		return
	}
	st.fed = true
	heap.Push(&p.elig, k)
	for p.elig.Len() > 0 {
		next := heap.Pop(&p.elig).(poKey)
		if s := p.po[next]; s != nil && s.req != nil {
			if !p.done[s.req.Key()] {
				p.inner.OnRequest(s.req)
			}
			delete(p.po, next)
			p.acks.Delete(next)
		}
	}
}

// OnTimer implements core.Protocol.
func (p *Prime) OnTimer(id core.TimerID) { p.inner.OnTimer(id) }

// OnExecuted implements core.Protocol.
func (p *Prime) OnExecuted(seq types.SeqNum, batch *types.Batch, results [][]byte) {
	for _, req := range batch.Requests {
		delete(p.seen, req.Key())
		p.done[req.Key()] = true
	}
	p.inner.OnExecuted(seq, batch, results)
}
