package zyzzyva

import (
	"bftkit/internal/core"
	"bftkit/internal/crypto"
	"bftkit/internal/types"
)

// Client is Zyzzyva's requester/repairer client (dimension P6): it
// completes on fastNeed matching speculative replies; when the fast path
// stalls it assembles a commit certificate from certNeed matching replies
// and drives replicas to local commit — the client repairs the protocol.
type Client struct {
	fastNeed int
	certNeed int

	env      core.ClientEnv
	viewHint types.View
	pending  map[uint64]*pendingReq
}

type matchKey struct {
	Seq     types.SeqNum
	View    types.View
	History types.Digest
	Result  string
}

type specVote struct {
	sig    []byte
	digest types.Digest
}

type pendingReq struct {
	req *types.Request
	// spec groups speculative replies by matching content.
	spec core.Tally[matchKey, specVote]
	// committed groups non-speculative replies by result.
	committed core.Tally[string, struct{}]
	// commitAcks counts local-commit acknowledgements after the client
	// turned repairer.
	commitAcks core.Tally[struct{}, struct{}]
	certSent   bool
	certResult []byte
	done       bool
}

// NewClient returns a Zyzzyva client with the given thresholds.
func NewClient(fastNeed, certNeed int) *Client {
	return &Client{fastNeed: fastNeed, certNeed: certNeed, pending: make(map[uint64]*pendingReq)}
}

// Init implements core.ClientProtocol.
func (c *Client) Init(env core.ClientEnv) { c.env = env }

func (c *Client) timerID(clientSeq uint64) core.TimerID {
	return core.TimerID{Name: timerClientWait, Seq: types.SeqNum(clientSeq)}
}

// Submit implements core.ClientProtocol.
func (c *Client) Submit(req *types.Request) {
	p := &pendingReq{req: req}
	c.pending[req.ClientSeq] = p
	c.env.Send(c.env.Config().LeaderOf(c.viewHint), &core.RequestMsg{Req: req})
	// τ1: waiting for replies (the paper's timer taxonomy).
	c.env.SetTimer(c.timerID(req.ClientSeq), c.env.Config().RequestTimeout)
}

func (c *Client) finish(p *pendingReq, result []byte) {
	if p.done {
		return
	}
	p.done = true
	c.env.StopTimer(c.timerID(p.req.ClientSeq))
	delete(c.pending, p.req.ClientSeq)
	c.env.Done(p.req, result)
}

// OnMessage implements core.ClientProtocol.
func (c *Client) OnMessage(from types.NodeID, m types.Message) {
	switch mm := m.(type) {
	case *core.ReplyMsg:
		c.onReply(mm.R)
	case *LocalCommitMsg:
		p := c.pending[c.clientSeqFor(mm)]
		if p == nil || !p.certSent {
			return
		}
		if p.commitAcks.Add(struct{}{}, from, struct{}{}) >= c.certNeed {
			c.finish(p, p.certResult)
		}
	}
}

// clientSeqFor maps a local-commit ack back to the pending request. The
// replica echoes the client/seq pair; we track by our own ClientSeq.
func (c *Client) clientSeqFor(m *LocalCommitMsg) uint64 {
	if m.ClientSeq != 0 {
		return m.ClientSeq
	}
	// Fall back: a single outstanding certificate is the common case.
	for seq, p := range c.pending {
		if p.certSent {
			return seq
		}
	}
	return 0
}

func (c *Client) onReply(rep *types.Reply) {
	p := c.pending[rep.ClientSeq]
	if p == nil || p.done {
		return
	}
	if !c.env.Verifier().VerifySig(rep.Replica, rep.Digest(), rep.Sig) {
		return
	}
	if rep.View > c.viewHint {
		c.viewHint = rep.View
	}
	if !rep.Speculative {
		key := string(rep.Result)
		p.committed.Add(key, rep.Replica, struct{}{})
		if p.committed.Count(key) >= c.env.F()+1 {
			c.finish(p, rep.Result)
		}
		return
	}
	key := matchKey{Seq: rep.Seq, View: rep.View, History: rep.History, Result: string(rep.Result)}
	p.spec.Add(key, rep.Replica, specVote{sig: rep.Sig, digest: rep.Digest()})
	if p.spec.Count(key) >= c.fastNeed {
		// Fast path: all (or n−f for Zyzzyva5) replicas agree.
		c.finish(p, rep.Result)
	}
}

// OnTimer implements core.ClientProtocol: τ1 fired — repair or retry.
func (c *Client) OnTimer(id core.TimerID) {
	if id.Name != timerClientWait {
		return
	}
	p := c.pending[uint64(id.Seq)]
	if p == nil || p.done {
		return
	}
	if !p.certSent {
		// Repairer role: with certNeed matching speculative replies,
		// assemble a commit certificate and drive local commits.
		for key, votes := range p.spec.All() {
			if len(votes) < c.certNeed {
				continue
			}
			cert := &crypto.Certificate{Digest: votes[0].Val.digest}
			for _, v := range votes {
				cert.Add(v.From, v.Val.sig)
			}
			cm := &CommitMsg{
				Client:    c.env.ID(),
				ClientSeq: p.req.ClientSeq,
				Seq:       key.Seq,
				View:      key.View,
				History:   key.History,
				Result:    []byte(key.Result),
				Cert:      cert,
			}
			p.certSent = true
			p.certResult = []byte(key.Result)
			c.env.BroadcastReplicas(cm)
			break
		}
	}
	if !p.certSent {
		// Not even a certificate quorum: retransmit everywhere so
		// backups start suspecting the leader.
		c.env.BroadcastReplicas(&core.RequestMsg{Req: p.req})
	}
	c.env.SetTimer(id, c.env.Config().RequestTimeout)
}
