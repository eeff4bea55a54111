package sim

import (
	"time"

	"bftkit/internal/obsv"
	"bftkit/internal/types"
)

// Handler receives delivered messages. Replicas, clients, and harness
// probes all implement it.
type Handler interface {
	Deliver(from types.NodeID, m types.Message)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(from types.NodeID, m types.Message)

// Deliver implements Handler.
func (f HandlerFunc) Deliver(from types.NodeID, m types.Message) { f(from, m) }

// NetConfig models the partially synchronous network of the paper: after
// GST every message between correct nodes arrives within Delay+Jitter;
// before GST the adversary controls timing up to PreGSTMaxDelay and may
// drop messages.
type NetConfig struct {
	Delay  time.Duration // base one-way delay after GST
	Jitter time.Duration // uniform extra delay in [0, Jitter)
	// DropRate is the steady-state loss probability (unreliable links).
	DropRate float64
	// DuplicateRate is the probability a delivered message is delivered
	// twice (with fresh jitter). Protocol handlers must be idempotent.
	DuplicateRate float64
	// GST is the global stabilization time. Zero means the network is
	// stable from the start.
	GST time.Duration
	// PreGSTMaxDelay bounds adversarial delay before GST (delays are
	// drawn uniformly in [Delay, PreGSTMaxDelay]).
	PreGSTMaxDelay time.Duration
	// PreGSTDropRate is the loss probability before GST.
	PreGSTDropRate float64
	// SendCostPerMsg models each node's finite egress capacity: sends are
	// serialized at the sender, each occupying the link for this long.
	// Zero disables the model (infinite capacity). This is what makes the
	// leader a bottleneck — the load-balancing and throughput claims of
	// the paper (Q2, §1) depend on it. The cost is per message, not per
	// byte: a message's size is accounted (NodeStats) but never moves
	// virtual time, so a change of wire format cannot change a latency.
	SendCostPerMsg time.Duration
}

// DefaultLAN is a 1ms datacenter-style network.
func DefaultLAN() NetConfig {
	return NetConfig{Delay: time.Millisecond, Jitter: 200 * time.Microsecond}
}

// DefaultWAN is a 50ms geo-replicated network.
func DefaultWAN() NetConfig {
	return NetConfig{Delay: 50 * time.Millisecond, Jitter: 5 * time.Millisecond}
}

// Action is an interceptor's verdict on one in-flight message.
type Action struct {
	Drop       bool
	ExtraDelay time.Duration
	Replace    types.Message // if non-nil, substitute the payload
}

// Interceptor lets experiments model a strong network adversary (message
// delay attacks, targeted drops, front-running reordering).
type Interceptor interface {
	OnSend(from, to types.NodeID, m types.Message) Action
}

// NodeStats aggregates one node's traffic, used by the load-balancing and
// message-complexity experiments (X3, X9).
type NodeStats struct {
	MsgsSent  int64
	BytesSent int64
	MsgsRecv  int64
	BytesRecv int64
}

// Network routes messages between registered handlers with configurable
// delay, loss, partitions, crashes, and adversarial interception.
type Network struct {
	sched *Scheduler
	cfg   NetConfig

	nodes      map[types.NodeID]Handler
	crashed    map[types.NodeID]bool
	linkDelay  map[[2]types.NodeID]time.Duration
	partition  map[types.NodeID]int // group id; zero value = group 0
	interc     Interceptor
	partActive bool

	stats      map[types.NodeID]*NodeStats
	kindCount  map[string]int64
	kindBytes  map[string]int64
	egressFree map[types.NodeID]time.Duration
	delivered  int64
	dropped    int64
	inflight   int64
	tracer     *obsv.Tracer
	tap        func(at time.Duration, from, to types.NodeID, m types.Message)
}

// NewNetwork creates a network on the given scheduler. A scheduler
// carries at most one network: its delivery events fire into it.
func NewNetwork(sched *Scheduler, cfg NetConfig) *Network {
	if sched.net != nil {
		panic("sim: scheduler already has a network")
	}
	n := &Network{
		sched:      sched,
		cfg:        cfg,
		nodes:      make(map[types.NodeID]Handler),
		crashed:    make(map[types.NodeID]bool),
		linkDelay:  make(map[[2]types.NodeID]time.Duration),
		partition:  make(map[types.NodeID]int),
		stats:      make(map[types.NodeID]*NodeStats),
		kindCount:  make(map[string]int64),
		kindBytes:  make(map[string]int64),
		egressFree: make(map[types.NodeID]time.Duration),
	}
	sched.net = n
	return n
}

// Register attaches a handler under the given ID.
func (n *Network) Register(id types.NodeID, h Handler) { n.nodes[id] = h }

// SetInterceptor installs a network adversary. Pass nil to remove.
func (n *Network) SetInterceptor(i Interceptor) { n.interc = i }

// SetTracer attaches the observability sink; every send and delivery is
// reported with its accounted wire size. Pass nil to detach.
func (n *Network) SetTracer(t *obsv.Tracer) { n.tracer = t }

// SetTap installs a delivery tap: fn observes every delivered message
// (after crash/partition filtering, immediately before the handler) no
// matter how handlers are later re-registered — the attachment point
// the forensics auditor uses. Pass nil to detach.
func (n *Network) SetTap(fn func(at time.Duration, from, to types.NodeID, m types.Message)) {
	n.tap = fn
}

// Crash makes a node silent: it neither sends nor receives.
func (n *Network) Crash(id types.NodeID) { n.crashed[id] = true }

// Restart lets a crashed node communicate again.
func (n *Network) Restart(id types.NodeID) { delete(n.crashed, id) }

// Crashed reports whether id is currently crashed.
func (n *Network) Crashed(id types.NodeID) bool { return n.crashed[id] }

// SetLinkDelay overrides the base delay on the directed link from→to.
func (n *Network) SetLinkDelay(from, to types.NodeID, d time.Duration) {
	n.linkDelay[[2]types.NodeID{from, to}] = d
}

// ClearLinkDelay removes the override on the directed link from→to,
// returning it to the configured base delay.
func (n *Network) ClearLinkDelay(from, to types.NodeID) {
	delete(n.linkDelay, [2]types.NodeID{from, to})
}

// Partition splits nodes into isolated groups. Nodes not mentioned stay
// in group 0. Cross-group messages are dropped until Heal.
func (n *Network) Partition(groups ...[]types.NodeID) {
	n.partition = make(map[types.NodeID]int)
	for gi, g := range groups {
		for _, id := range g {
			n.partition[id] = gi + 1
		}
	}
	n.partActive = true
}

// Heal removes all partitions.
func (n *Network) Heal() {
	n.partition = make(map[types.NodeID]int)
	n.partActive = false
}

// Stats returns the traffic counters for one node (allocating if needed).
func (n *Network) Stats(id types.NodeID) *NodeStats {
	st := n.stats[id]
	if st == nil {
		st = &NodeStats{}
		n.stats[id] = st
	}
	return st
}

// KindCounts returns per-message-kind delivery counts and bytes.
func (n *Network) KindCounts() (map[string]int64, map[string]int64) {
	return n.kindCount, n.kindBytes
}

// Totals returns (delivered, dropped) message counts.
func (n *Network) Totals() (delivered, dropped int64) { return n.delivered, n.dropped }

// ResetStats zeroes all traffic counters (used between warmup and the
// measured window of an experiment).
func (n *Network) ResetStats() {
	n.stats = make(map[types.NodeID]*NodeStats)
	n.kindCount = make(map[string]int64)
	n.kindBytes = make(map[string]int64)
	n.delivered, n.dropped = 0, 0
}

// Sizer lets a message define its own accounted wire size; messages
// carrying certificates use it so the threshold-signature size model
// holds. Messages without it are measured through the same gob encoding
// the TCP transport uses (obsv.SizeOf), so simulator byte accounting
// matches real wire bytes.
type Sizer = obsv.Sizer

// SizeOf returns the accounted wire size of a message.
func SizeOf(m types.Message) int { return obsv.SizeOf(m) }

// Send routes one message. Delivery is scheduled on the virtual clock
// according to the network model; the call itself never blocks.
func (n *Network) Send(from, to types.NodeID, m types.Message) {
	if n.crashed[from] || n.crashed[to] {
		n.dropped++
		return
	}
	if n.partActive && n.partition[from] != n.partition[to] {
		n.dropped++
		return
	}
	if n.interc != nil {
		act := n.interc.OnSend(from, to, m)
		if act.Drop {
			n.dropped++
			return
		}
		if act.Replace != nil {
			m = act.Replace
		}
		n.deliver(from, to, m, act.ExtraDelay)
		return
	}
	n.deliver(from, to, m, 0)
}

func (n *Network) deliver(from, to types.NodeID, m types.Message, extra time.Duration) {
	rng := n.sched.Rand()
	now := n.sched.Now()

	drop := n.cfg.DropRate
	base := n.cfg.Delay
	// The per-link override replaces the base delay, but the pre-GST
	// adversary still acts on top of it: an explicitly slow link does
	// not become synchronous just because GST has not passed.
	if d, ok := n.linkDelay[[2]types.NodeID{from, to}]; ok {
		base = d
	}
	if now < n.cfg.GST {
		drop = n.cfg.PreGSTDropRate
		if n.cfg.PreGSTMaxDelay > base {
			base += time.Duration(rng.Int63n(int64(n.cfg.PreGSTMaxDelay - base + 1)))
		}
	}
	if drop > 0 && rng.Float64() < drop {
		n.dropped++
		return
	}
	delay := base + extra
	if n.cfg.Jitter > 0 {
		delay += time.Duration(rng.Int63n(int64(n.cfg.Jitter)))
	}

	size := SizeOf(m)
	dup := time.Duration(-1)
	if n.cfg.DuplicateRate > 0 && rng.Float64() < n.cfg.DuplicateRate {
		dup = time.Duration(rng.Int63n(int64(2 * (base + time.Millisecond))))
	}

	// Egress serialization: the sender's link is busy until previous
	// sends have drained.
	if n.cfg.SendCostPerMsg > 0 {
		ready := n.egressFree[from]
		if ready < now {
			ready = now
		}
		ready += n.cfg.SendCostPerMsg
		n.egressFree[from] = ready
		delay += ready - now
	}
	ss := n.Stats(from)
	ss.MsgsSent++
	ss.BytesSent += int64(size)
	kind := m.Kind()
	n.kindCount[kind]++
	n.kindBytes[kind] += int64(size)
	if n.tracer != nil {
		n.tracer.MsgSent(now, from, to, m, size)
		n.tracer.ObserveQueueDepth(int(n.inflight))
	}

	// The original is scheduled first; the scheduler breaks same-instant
	// ties in scheduling order, so a duplicate (dup >= 0) can never
	// arrive before its original even when dup draws zero.
	n.schedule(now+delay, from, to, m, size)
	if dup >= 0 {
		n.schedule(now+delay+dup, from, to, m, size)
	}
}

// schedule queues one copy of a message for arrival at virtual time at.
func (n *Network) schedule(at time.Duration, from, to types.NodeID, m types.Message, size int) {
	n.inflight++
	n.sched.schedule(event{at: at, m: m, from: from, to: to, size: size})
}

// arrive is a delivery event firing: the receiver must still be up and
// reachable, then the delivery is counted, traced, tapped and handed over.
func (n *Network) arrive(from, to types.NodeID, m types.Message, size int) {
	n.inflight--
	if n.crashed[to] || (n.partActive && n.partition[from] != n.partition[to]) {
		n.dropped++
		return
	}
	h := n.nodes[to]
	if h == nil {
		n.dropped++
		return
	}
	rs := n.Stats(to)
	rs.MsgsRecv++
	rs.BytesRecv += int64(size)
	n.delivered++
	now := n.sched.Now()
	n.tracer.MsgDelivered(now, from, to, m, size)
	if n.tap != nil {
		n.tap(now, from, to, m)
	}
	h.Deliver(from, m)
}
