package core

import (
	"fmt"
	"math/rand"
	"time"

	"bftkit/internal/crypto"
	"bftkit/internal/types"
)

// ClientHooks are the harness's observation points on the client side.
type ClientHooks struct {
	// OnDone fires when a request completes with a verified result.
	OnDone func(id types.NodeID, req *types.Request, result []byte, at time.Duration)
	Logf   func(format string, args ...any)
}

// Client is the runtime adapting one ClientProtocol to a Driver,
// mirroring Replica on the client side.
type Client struct {
	id       types.NodeID
	cfg      Config
	driver   Driver
	proto    ClientProtocol
	signer   *crypto.Signer
	verifier *crypto.Verifier
	hooks    ClientHooks
	timers   map[TimerID]func()
	stopped  bool
}

// NewClient wires a client protocol to its substrate.
func NewClient(id types.NodeID, cfg Config, driver Driver, proto ClientProtocol,
	auth *crypto.Authority, hooks ClientHooks) *Client {
	return &Client{
		id:       id,
		cfg:      cfg,
		driver:   driver,
		proto:    proto,
		signer:   auth.Signer(id),
		verifier: auth.VerifierFor(id),
		hooks:    hooks,
		timers:   make(map[TimerID]func()),
	}
}

// Start initializes the client protocol.
func (c *Client) Start() { c.proto.Init(c) }

// Stop cancels timers and ignores further events.
func (c *Client) Stop() {
	c.stopped = true
	for id, cancel := range c.timers {
		cancel()
		delete(c.timers, id)
	}
}

// Submit signs and hands a request to the client protocol.
func (c *Client) Submit(req *types.Request) {
	if c.stopped {
		return
	}
	req.Client = c.id
	if len(req.Sig) == 0 {
		req.Sig = c.signer.Sign(req.Digest())
	}
	c.proto.Submit(req)
}

// Deliver implements the driver-facing receive path.
func (c *Client) Deliver(from types.NodeID, m types.Message) {
	if c.stopped {
		return
	}
	c.proto.OnMessage(from, m)
}

// --- ClientEnv implementation ---

// ID implements ClientEnv.
func (c *Client) ID() types.NodeID { return c.id }

// N implements ClientEnv.
func (c *Client) N() int { return c.cfg.N }

// F implements ClientEnv.
func (c *Client) F() int { return c.cfg.F }

// Config implements ClientEnv.
func (c *Client) Config() Config { return c.cfg }

// Replicas implements ClientEnv.
func (c *Client) Replicas() []types.NodeID { return c.cfg.AllReplicas() }

// Send implements ClientEnv.
func (c *Client) Send(to types.NodeID, m types.Message) {
	if c.stopped {
		return
	}
	c.driver.Send(c.id, to, m)
}

// BroadcastReplicas implements ClientEnv.
func (c *Client) BroadcastReplicas(m types.Message) {
	for i := 0; i < c.cfg.N; i++ {
		c.Send(types.NodeID(i), m)
	}
}

// SetTimer implements ClientEnv.
func (c *Client) SetTimer(id TimerID, d time.Duration) {
	if c.stopped {
		return
	}
	if cancel, ok := c.timers[id]; ok {
		cancel()
	}
	c.timers[id] = c.driver.After(d, func() {
		if c.stopped {
			return
		}
		delete(c.timers, id)
		c.proto.OnTimer(id)
	})
}

// StopTimer implements ClientEnv.
func (c *Client) StopTimer(id TimerID) {
	if cancel, ok := c.timers[id]; ok {
		cancel()
		delete(c.timers, id)
	}
}

// Now implements ClientEnv.
func (c *Client) Now() time.Duration { return c.driver.Now() }

// Rand implements ClientEnv.
func (c *Client) Rand() *rand.Rand { return c.driver.Rand() }

// Signer implements ClientEnv.
func (c *Client) Signer() *crypto.Signer { return c.signer }

// Verifier implements ClientEnv.
func (c *Client) Verifier() *crypto.Verifier { return c.verifier }

// Done implements ClientEnv.
func (c *Client) Done(req *types.Request, result []byte) {
	if c.hooks.OnDone != nil {
		c.hooks.OnDone(c.id, req, result, c.Now())
	}
}

// Logf implements ClientEnv.
func (c *Client) Logf(format string, args ...any) {
	if c.hooks.Logf != nil {
		c.hooks.Logf(fmt.Sprintf("t=%-12v %v: ", c.Now(), c.id)+format, args...)
	}
}

// RequesterOpts configures the generic requester client (dimension P6):
// where requests are sent and how many matching replies constitute a
// verified result.
type RequesterOpts struct {
	// SendToAll broadcasts requests to every replica instead of sending
	// to the presumed leader first (protocols with preordering or
	// client-driven dissemination need this).
	SendToAll bool
	// RepliesNeeded returns the matching-reply threshold given f.
	// Defaults to f+1 (PBFT).
	RepliesNeeded func(f int) int
	// VerifyReplySigs makes the client check each reply signature
	// before counting it (costs one verification per reply).
	VerifyReplySigs bool
}

// Requester is the standard BFT client: send the request, wait for a
// threshold of matching replies, retransmit to everyone on timeout (τ1).
// Most protocols in the repository use it unchanged; Zyzzyva and Q/U
// ship their own repairer/proposer clients.
type Requester struct {
	Opts RequesterOpts

	env      ClientEnv
	viewHint types.View
	pending  map[uint64]*pendingReq
	// votes tallies replies per request and result content.
	votes Tally[replyKey, struct{}]
}

type pendingReq struct {
	req  *types.Request
	done bool
}

type replyKey struct {
	ClientSeq uint64
	Result    string
}

// NewRequester returns a requester with the given options.
func NewRequester(opts RequesterOpts) *Requester {
	if opts.RepliesNeeded == nil {
		opts.RepliesNeeded = func(f int) int { return f + 1 }
	}
	return &Requester{Opts: opts, pending: make(map[uint64]*pendingReq)}
}

// Init implements ClientProtocol.
func (r *Requester) Init(env ClientEnv) { r.env = env }

func (r *Requester) timerID(clientSeq uint64) TimerID {
	return TimerID{Name: "client-retry", Seq: types.SeqNum(clientSeq)}
}

// Submit implements ClientProtocol.
func (r *Requester) Submit(req *types.Request) {
	p := &pendingReq{req: req}
	r.pending[req.ClientSeq] = p
	msg := &RequestMsg{Req: req}
	if r.Opts.SendToAll {
		r.env.BroadcastReplicas(msg)
	} else {
		r.env.Send(r.env.Config().LeaderOf(r.viewHint), msg)
	}
	r.env.SetTimer(r.timerID(req.ClientSeq), r.env.Config().RequestTimeout)
}

// OnMessage implements ClientProtocol.
func (r *Requester) OnMessage(from types.NodeID, m types.Message) {
	rm, ok := m.(*ReplyMsg)
	if !ok {
		return
	}
	rep := rm.R
	p := r.pending[rep.ClientSeq]
	if p == nil || p.done {
		return
	}
	if r.Opts.VerifyReplySigs {
		if rep.Replica != from || !r.env.Verifier().VerifySig(from, rep.Digest(), rep.Sig) {
			return
		}
	}
	if rep.View > r.viewHint {
		r.viewHint = rep.View
	}
	// Votes are keyed by the authenticated sender, not the claimed
	// rep.Replica: with signature checks off, one Byzantine replica
	// could otherwise stuff f+1 matching votes under forged identities.
	key := replyKey{rep.ClientSeq, string(rep.Result)}
	r.votes.Add(key, from, struct{}{})
	if r.votes.Count(key) >= r.Opts.RepliesNeeded(r.env.F()) {
		p.done = true
		r.env.StopTimer(r.timerID(rep.ClientSeq))
		delete(r.pending, rep.ClientSeq)
		r.votes.Prune(func(k replyKey) bool { return k.ClientSeq == rep.ClientSeq })
		r.env.Done(p.req, rep.Result)
	}
}

// OnTimer implements ClientProtocol: retransmit to all replicas, the
// classic PBFT fallback that also routes around a faulty leader.
func (r *Requester) OnTimer(id TimerID) {
	if id.Name != "client-retry" {
		return
	}
	p := r.pending[uint64(id.Seq)]
	if p == nil || p.done {
		return
	}
	r.env.BroadcastReplicas(&RequestMsg{Req: p.req})
	r.env.SetTimer(id, r.env.Config().RequestTimeout)
}
