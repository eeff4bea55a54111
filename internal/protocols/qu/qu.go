// Package qu implements a Q/U-style protocol [4], design choice 9
// (optimistic conflict-free): there is no leader and no ordering stage.
// The client is the proposer (dimension P6). As in Q/U, writes carry the
// object's *new state* conditioned on an observed version, so replicas
// adopt rather than compute, and a client can bring lagging replicas up
// to date inline:
//
//  1. Query: the client asks all 5f+1 replicas for (version, value) of
//     the object and waits for 4f+1 matching answers — the established
//     state. With no 4f+1 agreement (a racing partial write), the client
//     repairs: it picks the highest version vouched by at least f+1
//     replicas, breaks value ties deterministically (smallest digest),
//     and broadcasts a Resolve carrying f+1 signed attestations, which
//     losing replicas adopt.
//  2. Apply locally: the client computes the operation's result and the
//     object's next state from the established value.
//  3. Write: the client broadcasts (version+1, newValue); a replica
//     adopts any write above its current version and acknowledges. 4f+1
//     acknowledgements complete the operation. A concurrent writer that
//     loses the race observes a different established value at its target
//     version and retries from step 1 with randomized backoff.
//
// Conflict-free workloads therefore commit in one round trip with zero
// inter-replica messages; contended workloads pay query/repair/retry
// cycles — exactly the DC9 trade-off experiment X7 measures. Operations
// must touch a single key (multi-object transactions are out of scope;
// DESIGN.md records the substitution).
package qu

import (
	"bytes"
	"slices"
	"time"

	"bftkit/internal/core"
	"bftkit/internal/kvstore"
	"bftkit/internal/types"
)

const (
	timerRetry = "qu-retry"
	timerPhase = "qu-phase"
)

// OpRef identifies one client operation.
type OpRef struct {
	Writer types.NodeID
	WSeq   uint64
}

// lineageKeep bounds how many recent contributing operations an object
// remembers. It must exceed the number of operations that can race on
// one object between two establishments; 32 is generous for a laptop
// simulation.
const lineageKeep = 32

// attDigest is the content replicas sign when attesting object state.
// The candidate includes the lineage of recent contributing operations:
// two distinct operations producing byte-identical state (e.g. racing
// increments) must remain distinct candidates, and a retrying client must
// be able to see that its own operation is already embedded in the state.
func attDigest(key string, version uint64, value []byte, exists bool, lineage []OpRef) types.Digest {
	var h types.Hasher
	h.Str("qu-att").Str(key).U64(version).Bytes(value)
	if exists {
		h.U64(1)
	} else {
		h.U64(0)
	}
	for _, op := range lineage {
		h.U64(uint64(op.Writer)).U64(op.WSeq)
	}
	return h.Sum()
}

func lineageHas(lineage []OpRef, op OpRef) bool {
	for _, x := range lineage {
		if x == op {
			return true
		}
	}
	return false
}

func extendLineage(parent []OpRef, op OpRef) []OpRef {
	out := append(append([]OpRef(nil), parent...), op)
	if len(out) > lineageKeep {
		out = out[len(out)-lineageKeep:]
	}
	return out
}

// QueryMsg asks for an object's current state.
type QueryMsg struct {
	Client types.NodeID
	QID    uint64
	Key    string
}

// Kind implements types.Message.
func (*QueryMsg) Kind() string { return "QU-QUERY" }

// QueryRespMsg attests an object's (version, value) at one replica.
type QueryRespMsg struct {
	QID     uint64
	Key     string
	Version uint64
	Value   []byte
	Exists  bool
	Lineage []OpRef // recent contributing operations, newest last
	Replica types.NodeID
	Sig     []byte // over attDigest
}

// Kind implements types.Message.
func (*QueryRespMsg) Kind() string { return "QU-QUERY-RESP" }

// WriteMsg installs new object state conditioned on a version.
type WriteMsg struct {
	Client  types.NodeID
	WID     uint64
	Key     string
	Version uint64 // the new version (observed+1)
	Value   []byte
	Delete  bool
	// Lineage is the established state's lineage extended with this
	// operation; its tail identifies the op, so redelivery is
	// idempotent but distinct racing ops never merge.
	Lineage []OpRef
}

// Kind implements types.Message.
func (*WriteMsg) Kind() string { return "QU-WRITE" }

// WriteRespMsg acknowledges (or rejects) a write.
type WriteRespMsg struct {
	WID     uint64
	OK      bool
	Version uint64 // replica's version after processing
	Replica types.NodeID
}

// Kind implements types.Message.
func (*WriteRespMsg) Kind() string { return "QU-WRITE-RESP" }

// Attestation is one signed (version, value) claim used in repair.
type Attestation struct {
	Replica types.NodeID
	Version uint64
	Value   []byte
	Exists  bool
	Lineage []OpRef
	Sig     []byte
}

// ResolveMsg repairs divergent same-version candidates: replicas holding
// a different value at exactly Version adopt the attested winner.
type ResolveMsg struct {
	Key      string
	Version  uint64
	Value    []byte
	Exists   bool
	Lineage  []OpRef
	Evidence []Attestation // at least f+1 signed claims for the candidate
}

// Kind implements types.Message.
func (*ResolveMsg) Kind() string { return "QU-RESOLVE" }

type object struct {
	version uint64
	value   []byte
	exists  bool
	lineage []OpRef
}

// Replica is the Q/U server: a versioned object store with no
// inter-replica communication at all.
type Replica struct {
	env     core.Env
	objects map[string]*object
	store   *kvstore.Store // mirrors object values for hashing/tests
}

// New returns a Q/U replica.
func New(cfg core.Config) core.Protocol { return &Replica{} }

func init() {
	core.Register(core.Registration{
		Name:       "qu",
		Profile:    core.QUProfile(),
		NewReplica: New,
		NewClient: func(cfg core.Config) core.ClientProtocol {
			return NewClient(4*cfg.F+1, cfg.F)
		},
	})
}

// Init implements core.Protocol.
func (r *Replica) Init(env core.Env) {
	r.env = env
	r.objects = make(map[string]*object)
	r.store = kvstore.New()
}

// Store exposes the mirrored value store (tests compare states).
func (r *Replica) Store() *kvstore.Store { return r.store }

func (r *Replica) obj(key string) *object {
	o := r.objects[key]
	if o == nil {
		o = &object{}
		r.objects[key] = o
	}
	return o
}

func (r *Replica) adopt(key string, version uint64, value []byte, exists bool, lineage []OpRef) {
	o := r.obj(key)
	o.version = version
	o.value = append([]byte(nil), value...)
	o.exists = exists
	o.lineage = append([]OpRef(nil), lineage...)
	if exists {
		r.store.Apply(kvstore.Put(key, value))
	} else {
		r.store.Apply(kvstore.Delete(key))
	}
}

// OnRequest implements core.Protocol (unused: Q/U clients speak the
// query/write protocol, not bare requests).
func (r *Replica) OnRequest(req *types.Request) {}

// OnMessage implements core.Protocol.
func (r *Replica) OnMessage(from types.NodeID, m types.Message) {
	switch mm := m.(type) {
	case *QueryMsg:
		o := r.obj(mm.Key)
		resp := &QueryRespMsg{
			QID: mm.QID, Key: mm.Key, Version: o.version, Value: o.value,
			Exists: o.exists, Lineage: o.lineage, Replica: r.env.ID(),
		}
		resp.Sig = r.env.Signer().Sign(attDigest(mm.Key, o.version, o.value, o.exists, o.lineage))
		r.env.Send(from, resp)
	case *WriteMsg:
		o := r.obj(mm.Key)
		resp := &WriteRespMsg{WID: mm.WID, Replica: r.env.ID()}
		sameOp := len(mm.Lineage) > 0 && len(o.lineage) > 0 &&
			mm.Lineage[len(mm.Lineage)-1] == o.lineage[len(o.lineage)-1]
		switch {
		case mm.Version > o.version:
			r.adopt(mm.Key, mm.Version, mm.Value, !mm.Delete, mm.Lineage)
			resp.OK = true
		case mm.Version == o.version && sameOp:
			resp.OK = true // idempotent re-delivery of the same operation
		}
		resp.Version = o.version
		r.env.Send(from, resp)
	case *ResolveMsg:
		r.onResolve(mm)
	}
}

// onResolve adopts the attested winner at exactly its version when the
// evidence holds and the deterministic tiebreak favors it.
func (r *Replica) onResolve(m *ResolveMsg) {
	if len(m.Evidence) < r.env.F()+1 {
		return
	}
	want := attDigest(m.Key, m.Version, m.Value, m.Exists, m.Lineage)
	for i, a := range m.Evidence {
		// One replica is one attestation: evidence that names a replica
		// twice is short of f+1.
		named := func(b Attestation) bool { return b.Replica == a.Replica }
		if slices.ContainsFunc(m.Evidence[:i], named) || attDigest(m.Key, a.Version, a.Value, a.Exists, a.Lineage) != want {
			return
		}
		if !r.env.Verifier().VerifySig(a.Replica, want, a.Sig) {
			return
		}
	}
	o := r.obj(m.Key)
	if m.Version < o.version {
		return
	}
	if m.Version == o.version {
		cur := attDigest(m.Key, o.version, o.value, o.exists, o.lineage)
		if cur != want && bytes.Compare(want[:], cur[:]) >= 0 {
			return // the local candidate wins the tiebreak
		}
	}
	r.adopt(m.Key, m.Version, m.Value, m.Exists, m.Lineage)
}

// OnTimer implements core.Protocol (replicas are timer-free).
func (r *Replica) OnTimer(core.TimerID) {}

// OnExecuted implements core.Protocol (no ordered execution path).
func (r *Replica) OnExecuted(types.SeqNum, *types.Batch, [][]byte) {}

// Client is the Q/U proposer/repairer client.
type Client struct {
	quorum int
	f      int

	env     core.ClientEnv
	nextID  uint64
	pending map[uint64]*opState // keyed by the op's ClientSeq
	byQID   map[uint64]*opState
	byWID   map[uint64]*opState
	// answers holds each replica's latest answer to a query, keyed by
	// the op's current QID; oks and rejects hold the replicas that
	// acknowledged or refused a write, keyed by the op's current WID.
	answers core.Tally[uint64, *QueryRespMsg]
	oks     core.Tally[uint64, struct{}]
	rejects core.Tally[uint64, struct{}]
	// Retries counts conflict-triggered restarts (experiment X7).
	Retries int
}

type opState struct {
	req      *types.Request
	op       *kvstore.Op
	key      string
	phase    string // "query" | "write"
	qid, wid uint64
	// write phase
	target uint64
	value  []byte
	delete bool
	result []byte
	// bookkeeping
	attempts int
	done     bool
}

// NewClient returns a Q/U client with the given write quorum and f.
func NewClient(quorum, f int) *Client {
	return &Client{
		quorum:  quorum,
		f:       f,
		pending: make(map[uint64]*opState),
		byQID:   make(map[uint64]*opState),
		byWID:   make(map[uint64]*opState),
	}
}

// Init implements core.ClientProtocol.
func (c *Client) Init(env core.ClientEnv) {
	c.env = env
	c.answers = core.NewTally[uint64, *QueryRespMsg](env.N())
	c.oks = core.NewTally[uint64, struct{}](env.N())
	c.rejects = core.NewTally[uint64, struct{}](env.N())
}

// Submit implements core.ClientProtocol.
func (c *Client) Submit(req *types.Request) {
	op, err := kvstore.Decode(req.Op)
	if err != nil {
		return
	}
	st := &opState{req: req, op: op, key: op.Key}
	c.pending[req.ClientSeq] = st
	c.startQuery(st)
}

func (c *Client) startQuery(st *opState) {
	delete(c.byQID, st.qid)
	c.answers.Delete(st.qid)
	c.nextID++
	st.qid = c.nextID
	st.phase = "query"
	c.byQID[st.qid] = st
	c.env.BroadcastReplicas(&QueryMsg{Client: c.env.ID(), QID: st.qid, Key: st.key})
	c.env.SetTimer(core.TimerID{Name: timerPhase, Seq: types.SeqNum(st.req.ClientSeq)},
		c.env.Config().RequestTimeout)
}

// OnMessage implements core.ClientProtocol.
func (c *Client) OnMessage(from types.NodeID, m types.Message) {
	switch mm := m.(type) {
	case *QueryRespMsg:
		st := c.byQID[mm.QID]
		if st == nil || st.done || st.phase != "query" || mm.Replica != from {
			return
		}
		if !c.env.Verifier().VerifySig(from,
			attDigest(mm.Key, mm.Version, mm.Value, mm.Exists, mm.Lineage), mm.Sig) {
			return
		}
		c.answers.Replace(st.qid, from, mm)
		c.classify(st)
	case *WriteRespMsg:
		st := c.byWID[mm.WID]
		if st == nil || st.done || st.phase != "write" {
			return
		}
		if mm.OK {
			c.oks.Add(st.wid, from, struct{}{})
		} else {
			c.rejects.Add(st.wid, from, struct{}{})
		}
		c.checkWrite(st)
	}
}

// candidate is one attested object state: its digest, the first answer
// that attests it and how many answers do.
type candidate struct {
	digest types.Digest
	first  *QueryRespMsg
	n      int
}

// classify inspects query answers: 4f+1 matching states establish the
// object; otherwise, once every replica answered, repair. Answers are
// grouped in arrival order, so a repair's evidence is the same on every
// run of a seed.
func (c *Client) classify(st *opState) {
	answers := c.answers.Votes(st.qid)
	var buf [8]candidate
	groups := buf[:0]
	for _, a := range answers {
		d := attDigest(a.Val.Key, a.Val.Version, a.Val.Value, a.Val.Exists, a.Val.Lineage)
		i := slices.IndexFunc(groups, func(g candidate) bool { return g.digest == d })
		if i < 0 {
			i = len(groups)
			groups = append(groups, candidate{digest: d, first: a.Val})
		}
		groups[i].n++
	}
	for _, g := range groups {
		if g.n >= c.quorum {
			c.established(st, g.first)
			return
		}
	}
	if len(answers) >= c.env.N() {
		c.repair(st, groups, answers)
	}
}

// established computes the operation locally against the agreed state and
// moves to the write phase (reads complete immediately).
func (c *Client) established(st *opState, a *QueryRespMsg) {
	// If this operation already contributed to the established state
	// (a prior write attempt won the race, possibly buried under later
	// writers), do not apply it again.
	if lineageHas(a.Lineage, OpRef{Writer: c.env.ID(), WSeq: st.req.ClientSeq}) {
		switch st.op.Code {
		case kvstore.OpAdd:
			c.finish(st, append([]byte(nil), a.Value...))
		default:
			c.finish(st, kvstore.ResultOK)
		}
		return
	}
	cur := a.Value
	exists := a.Exists
	switch st.op.Code {
	case kvstore.OpGet:
		res := kvstore.ResultNotFound
		if exists {
			res = append([]byte(nil), cur...)
		}
		c.finish(st, res)
		return
	case kvstore.OpNoop:
		c.finish(st, kvstore.ResultOK)
		return
	case kvstore.OpPut:
		st.value = st.op.Value
		st.delete = false
		st.result = kvstore.ResultOK
	case kvstore.OpDelete:
		st.value = nil
		st.delete = true
		st.result = kvstore.ResultOK
	case kvstore.OpAdd:
		v := int64(0)
		if exists && len(cur) == 8 {
			for _, b := range cur {
				v = v<<8 | int64(b)
			}
		}
		v += st.op.Delta
		buf := make([]byte, 8)
		for i := 7; i >= 0; i-- {
			buf[i] = byte(v)
			v >>= 8
		}
		st.value = buf
		st.delete = false
		st.result = append([]byte(nil), buf...)
	case kvstore.OpCAS:
		match := (exists && bytes.Equal(cur, st.op.Expected)) || (!exists && len(st.op.Expected) == 0)
		if !match {
			c.finish(st, kvstore.ResultCASFail)
			return
		}
		st.value = st.op.Value
		st.delete = false
		st.result = kvstore.ResultOK
	}
	st.target = a.Version + 1
	c.oks.Delete(st.wid)
	c.rejects.Delete(st.wid)
	c.nextID++
	st.wid = c.nextID
	st.phase = "write"
	c.byWID[st.wid] = st
	c.env.BroadcastReplicas(&WriteMsg{
		Client: c.env.ID(), WID: st.wid, Key: st.key,
		Version: st.target, Value: st.value, Delete: st.delete,
		Lineage: extendLineage(a.Lineage, OpRef{Writer: c.env.ID(), WSeq: st.req.ClientSeq}),
	})
	c.env.SetTimer(core.TimerID{Name: timerPhase, Seq: types.SeqNum(st.req.ClientSeq)},
		c.env.Config().RequestTimeout)
}

func (c *Client) checkWrite(st *opState) {
	if c.oks.Count(st.wid) >= c.quorum {
		c.finish(st, st.result)
		return
	}
	// Enough rejections that the quorum is unreachable: someone else
	// consumed our target version — retry from a fresh query.
	if c.rejects.Count(st.wid) > c.env.N()-c.quorum {
		c.backoffRetry(st)
	}
}

// repair handles a query with no 4f+1 agreement: pick the highest
// version vouched by f+1 replicas, break value ties by digest, and push a
// Resolve with the attestations; then retry the query.
func (c *Client) repair(st *opState, groups []candidate, answers []core.Vote[*QueryRespMsg]) {
	var best *candidate
	for i := range groups {
		g := &groups[i]
		if g.n < c.f+1 {
			continue
		}
		if best == nil ||
			g.first.Version > best.first.Version ||
			(g.first.Version == best.first.Version && bytes.Compare(g.digest[:], best.digest[:]) < 0) {
			best = g
		}
	}
	if best != nil {
		win := best.first
		rm := &ResolveMsg{Key: st.key, Version: win.Version, Value: win.Value,
			Exists: win.Exists, Lineage: win.Lineage}
		for _, v := range answers {
			a := v.Val
			if len(rm.Evidence) == c.f+1 || attDigest(a.Key, a.Version, a.Value, a.Exists, a.Lineage) != best.digest {
				continue
			}
			rm.Evidence = append(rm.Evidence, Attestation{
				Replica: a.Replica, Version: a.Version, Value: a.Value,
				Exists: a.Exists, Lineage: a.Lineage, Sig: a.Sig,
			})
		}
		c.env.BroadcastReplicas(rm)
	}
	c.backoffRetry(st)
}

func (c *Client) backoffRetry(st *opState) {
	if st.phase == "retry-wait" {
		return
	}
	st.phase = "retry-wait"
	st.attempts++
	c.Retries++
	exp := st.attempts
	if exp > 6 {
		exp = 6
	}
	backoff := time.Duration(1+c.env.Rand().Intn(1<<uint(exp))) * c.env.Config().BatchTimeout
	c.env.SetTimer(core.TimerID{Name: timerRetry, Seq: types.SeqNum(st.req.ClientSeq)}, backoff)
}

func (c *Client) finish(st *opState, result []byte) {
	if st.done {
		return
	}
	st.done = true
	c.env.StopTimer(core.TimerID{Name: timerPhase, Seq: types.SeqNum(st.req.ClientSeq)})
	c.env.StopTimer(core.TimerID{Name: timerRetry, Seq: types.SeqNum(st.req.ClientSeq)})
	delete(c.pending, st.req.ClientSeq)
	delete(c.byQID, st.qid)
	delete(c.byWID, st.wid)
	c.answers.Delete(st.qid)
	c.oks.Delete(st.wid)
	c.rejects.Delete(st.wid)
	c.env.Done(st.req, result)
}

// OnTimer implements core.ClientProtocol.
func (c *Client) OnTimer(id core.TimerID) {
	st := c.pending[uint64(id.Seq)]
	if st == nil || st.done {
		return
	}
	switch id.Name {
	case timerRetry:
		c.startQuery(st)
	case timerPhase:
		// Phase stalled (lost messages or unreachable quorum): restart.
		c.backoffRetry(st)
	}
}
