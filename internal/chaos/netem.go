package chaos

// Socket-level fault injection for the real-TCP path. The simulator's
// adversarial networks (internal/sim) exercise protocols under drops,
// delays and partitions — but only on virtual links. NetemLink brings
// the same discipline to internal/transport: it is an in-process TCP
// proxy for one directed link, and everything the link carries can be
// delayed, discarded mid-stream, severed, or polluted with garbage
// while the cluster runs. Because the transport's framing rejects
// corrupt streams by recycling the connection, every injected fault
// lands on a code path that must keep the node alive.
//
// Topology: a NetemNet owns one NetemLink per (dialer → target) pair.
// Node i's peer table maps peer j to the i→j link's listen address, so
// every connection i dials to j flows through that link. Between
// replicas the transport writes only on the socket it dialed, so the
// i→j link carries exactly i's traffic to j and a fault on it is the
// directed link fault the simulator's networks inject: j still reaches
// i over the j→i link. A client's link to a replica carries both its
// requests and the replies, since replicas cannot dial a client.
// Severing a link drops the socket and refuses every redial, which is
// what exercises the transport's reconnect machinery (backoff,
// generation-tagged drops).

import (
	"math/rand"
	"net"
	"sync"
	"time"

	"bftkit/internal/types"
)

// NetemLink proxies one directed link with injectable faults. All
// controls are safe to flip while traffic flows.
type NetemLink struct {
	ln net.Listener

	mu       sync.Mutex
	forward  string // where new connections are proxied to
	rng      *rand.Rand
	delay    time.Duration // added before each downstream write
	dropProb float64       // probability a copied chunk is discarded (stream corruption)
	severed  bool          // refuse new conns, kill live ones
	garbageN int           // bytes of garbage to prepend to the next downstream chunk
	conns    map[net.Conn]struct{}

	wg   sync.WaitGroup
	done chan struct{}
	once sync.Once
}

// NewNetemLink starts a proxy on 127.0.0.1:0 forwarding to forward.
func NewNetemLink(forward string, seed int64) (*NetemLink, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &NetemLink{
		ln:      ln,
		forward: forward,
		rng:     rand.New(rand.NewSource(seed)),
		conns:   make(map[net.Conn]struct{}),
		done:    make(chan struct{}),
	}
	l.wg.Add(1)
	go l.acceptLoop()
	return l, nil
}

// Addr returns the address peers should dial instead of the target.
func (l *NetemLink) Addr() string { return l.ln.Addr().String() }

// SetDelay adds d of latency before every downstream write.
func (l *NetemLink) SetDelay(d time.Duration) {
	l.mu.Lock()
	l.delay = d
	l.mu.Unlock()
}

// SetDrop discards each copied chunk with probability p — byte-level
// stream corruption, which the transport's framing must detect and
// answer by recycling the connection.
func (l *NetemLink) SetDrop(p float64) {
	l.mu.Lock()
	l.dropProb = p
	l.mu.Unlock()
}

// Sever kills every live connection and refuses new ones until Heal.
func (l *NetemLink) Sever() {
	l.mu.Lock()
	l.severed = true
	conns := make([]net.Conn, 0, len(l.conns))
	for c := range l.conns {
		conns = append(conns, c)
	}
	l.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

// Heal lets connections flow again after Sever.
func (l *NetemLink) Heal() {
	l.mu.Lock()
	l.severed = false
	l.mu.Unlock()
}

// InjectGarbage prepends n random bytes to the next downstream chunk on
// every live connection of this link — a hostile middlebox writing into
// the stream. The receiver must reject the frame and drop the
// connection without dying.
func (l *NetemLink) InjectGarbage(n int) {
	l.mu.Lock()
	l.garbageN = n
	l.mu.Unlock()
}

// Close shuts the proxy down and waits for its pumps.
func (l *NetemLink) Close() {
	l.once.Do(func() {
		close(l.done)
		l.ln.Close()
		l.Sever()
		l.wg.Wait()
	})
}

func (l *NetemLink) acceptLoop() {
	defer l.wg.Done()
	for {
		up, err := l.ln.Accept()
		if err != nil {
			select {
			case <-l.done:
				return
			default:
				continue
			}
		}
		l.mu.Lock()
		severed, forward := l.severed, l.forward
		l.mu.Unlock()
		if severed {
			up.Close()
			continue
		}
		down, err := net.DialTimeout("tcp", forward, 2*time.Second)
		if err != nil {
			up.Close()
			continue
		}
		l.track(up)
		l.track(down)
		l.wg.Add(2)
		go l.pump(up, down)
		go l.pump(down, up)
	}
}

func (l *NetemLink) track(c net.Conn) {
	l.mu.Lock()
	l.conns[c] = struct{}{}
	l.mu.Unlock()
}

func (l *NetemLink) untrack(c net.Conn) {
	l.mu.Lock()
	delete(l.conns, c)
	l.mu.Unlock()
}

// pump copies src→dst chunk-by-chunk, applying the link's live fault
// configuration to each chunk.
func (l *NetemLink) pump(src, dst net.Conn) {
	defer l.wg.Done()
	defer func() {
		src.Close()
		dst.Close()
		l.untrack(src)
		l.untrack(dst)
	}()
	buf := make([]byte, 32<<10)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			l.mu.Lock()
			delay := l.delay
			drop := l.dropProb > 0 && l.rng.Float64() < l.dropProb
			garbage := l.garbageN
			l.garbageN = 0
			l.mu.Unlock()
			if delay > 0 {
				select {
				case <-time.After(delay):
				case <-l.done:
					return
				}
			}
			if garbage > 0 {
				junk := make([]byte, garbage)
				l.mu.Lock()
				l.rng.Read(junk)
				l.mu.Unlock()
				if _, werr := dst.Write(junk); werr != nil {
					return
				}
			}
			if !drop {
				if _, werr := dst.Write(buf[:n]); werr != nil {
					return
				}
			}
		}
		if err != nil {
			return
		}
	}
}

// NetemNet manages one NetemLink per directed (dialer → target) pair
// and hands out per-node peer-table views that route every dial through
// the right link.
type NetemNet struct {
	mu    sync.Mutex
	seed  int64
	links map[[2]types.NodeID]*NetemLink
}

// NewNetemNet creates an empty link fabric; links appear lazily as
// View is consulted.
func NewNetemNet(seed int64) *NetemNet {
	return &NetemNet{seed: seed, links: make(map[[2]types.NodeID]*NetemLink)}
}

// View rewrites a peer table so that self's dials to every peer go
// through self's per-target links. The node's own listen address is
// passed through untouched. Usable directly as harness.TCPOptions.
// PeerView.
func (nn *NetemNet) View(self types.NodeID, peers map[types.NodeID]string) (map[types.NodeID]string, error) {
	out := make(map[types.NodeID]string, len(peers))
	for id, addr := range peers {
		if id == self {
			out[id] = addr
			continue
		}
		l, err := nn.link(self, id, addr)
		if err != nil {
			return nil, err
		}
		out[id] = l.Addr()
	}
	return out, nil
}

// Link returns the proxy for the (from → to) directed pair, or nil if
// that pair has never been routed.
func (nn *NetemNet) Link(from, to types.NodeID) *NetemLink {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	return nn.links[[2]types.NodeID{from, to}]
}

func (nn *NetemNet) link(from, to types.NodeID, forward string) (*NetemLink, error) {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	key := [2]types.NodeID{from, to}
	if l, ok := nn.links[key]; ok {
		// The pair keeps its link (and the faults set on it) across
		// restarts, but the table handed in says where the target
		// listens now: a deployment re-booted on fresh ports calls View
		// again with them.
		l.mu.Lock()
		l.forward = forward
		l.mu.Unlock()
		return l, nil
	}
	l, err := NewNetemLink(forward, nn.seed^int64(from)<<16^int64(to))
	if err != nil {
		return nil, err
	}
	nn.links[key] = l
	return l, nil
}

// Close tears down every link.
func (nn *NetemNet) Close() {
	nn.mu.Lock()
	links := make([]*NetemLink, 0, len(nn.links))
	for _, l := range nn.links {
		links = append(links, l)
	}
	nn.mu.Unlock()
	for _, l := range links {
		l.Close()
	}
}
