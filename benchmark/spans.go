package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"bftkit/internal/types"
)

// doneRec is what the client observed for one request.
type doneRec struct {
	result []byte
	at     time.Duration
}

// reqTimes are the replica-side instants of one request, from which its
// child spans are cut. Collected only in the traced pass.
type reqTimes struct {
	firstCommit time.Duration // -1 until some replica commits it
	execs       []time.Duration
}

// recorder is the benchmark's harness.Observer on both drivers. On TCP
// the cluster serializes callbacks under its own mutex; mu orders them
// against the generator goroutine, which takes completed results out.
// On the simulator everything is one thread and mu is uncontended.
type recorder struct {
	replicas int
	spans    bool // keep per-request replica instants (traced pass)

	mu          sync.Mutex
	done        map[types.RequestKey]doneRec
	times       map[types.RequestKey]*reqTimes
	viewChanges int
	violations  []error
	highest     map[types.NodeID]types.SeqNum // per replica, highest committed slot
	lagMax      uint64
	batches     int // slots executed by replica 0
	batchOps    int // requests in those slots
}

func newRecorder(replicas int, spans bool) *recorder {
	return &recorder{
		replicas: replicas,
		spans:    spans,
		done:     make(map[types.RequestKey]doneRec),
		times:    make(map[types.RequestKey]*reqTimes),
		highest:  make(map[types.NodeID]types.SeqNum),
	}
}

func (r *recorder) timesFor(key types.RequestKey) *reqTimes {
	t := r.times[key]
	if t == nil {
		t = &reqTimes{firstCommit: -1}
		r.times[key] = t
	}
	return t
}

func (r *recorder) OnCommit(id types.NodeID, _ types.View, seq types.SeqNum, b *types.Batch, _ *types.CommitProof, at time.Duration) {
	if !r.spans {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if seq > r.highest[id] {
		r.highest[id] = seq
	}
	// Follower lag: how far the slowest replica trails the fastest, in
	// slots, once every replica has committed something.
	if len(r.highest) == r.replicas {
		hi, lo := seq, seq
		for _, s := range r.highest {
			if s > hi {
				hi = s
			}
			if s < lo {
				lo = s
			}
		}
		if lag := uint64(hi - lo); lag > r.lagMax {
			r.lagMax = lag
		}
	}
	for _, req := range b.Requests {
		if t := r.timesFor(req.Key()); t.firstCommit < 0 {
			t.firstCommit = at
		}
	}
}

func (r *recorder) OnExecute(id types.NodeID, _ types.SeqNum, b *types.Batch, _ [][]byte, at time.Duration) {
	if !r.spans {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if id == 0 {
		r.batches++
		r.batchOps += b.Len()
	}
	for _, req := range b.Requests {
		t := r.timesFor(req.Key())
		t.execs = append(t.execs, at)
	}
}

func (r *recorder) OnViewChange(types.NodeID, types.View, time.Duration) {
	r.mu.Lock()
	r.viewChanges++
	r.mu.Unlock()
}

func (r *recorder) OnViolation(id types.NodeID, err error) {
	r.mu.Lock()
	r.violations = append(r.violations, fmt.Errorf("replica %v: %w", id, err))
	r.mu.Unlock()
}

func (r *recorder) OnDone(_ types.NodeID, req *types.Request, result []byte, at time.Duration) {
	r.mu.Lock()
	r.done[req.Key()] = doneRec{result: result, at: at}
	r.mu.Unlock()
}

// take removes and returns one completed request's client-side record.
func (r *recorder) take(key types.RequestKey) doneRec {
	r.mu.Lock()
	defer r.mu.Unlock()
	d := r.done[key]
	delete(r.done, key)
	return d
}

// batchOpsMean is the mean number of requests per executed slot.
func (r *recorder) batchOpsMean() float64 {
	if r.batches == 0 {
		return 0
	}
	return float64(r.batchOps) / float64(r.batches)
}

// completion is one finished request on the run's clock.
type completion struct {
	key    types.RequestKey
	submit time.Duration // submit instant, or due time in an open loop
	done   time.Duration
}

// spanRec is one span of a request's tree as written to the trace file.
type spanRec struct {
	Name    string  `json:"name"`
	Parent  string  `json:"parent,omitempty"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
	SelfUS  float64 `json:"self_us"`
}

// requestTrace is one request's span tree; ID is (client, client_seq).
type requestTrace struct {
	ID    string    `json:"id"`
	Spans []spanRec `json:"spans"`
}

// spanSummary is what the per-layer metrics read off the span trees.
type spanSummary struct {
	orderMS []float64 // submit → first replica commit
	replyMS []float64 // (f+1)-th execute → client done
	traces  []requestTrace
}

// buildSpans cuts each completed request into its parent span and three
// children from the Observer timestamps: order (submit → first commit
// anywhere), execute (→ the f+1-th replica executed it, the earliest the
// client can have a quorum of replies), reply (→ client done). Requests
// the replicas reported nothing for (completed outside the traced
// window's bookkeeping) are skipped. Call after the run has stopped.
func buildSpans(rec *recorder, f int, done []completion) spanSummary {
	var out spanSummary
	for _, c := range done {
		t := rec.times[c.key]
		if t == nil || t.firstCommit < 0 || len(t.execs) <= f {
			continue
		}
		execs := append([]time.Duration(nil), t.execs...)
		sort.Slice(execs, func(i, j int) bool { return execs[i] < execs[j] })
		// A speculative protocol answers the client before it commits, so
		// its commit and execute reports can fall after done; children are
		// cut off at the parent's end, which leaves such a request as one
		// long order span.
		commit := min(t.firstCommit, c.done)
		quorumExec := min(max(execs[f], commit), c.done)
		parent := interval{c.submit, c.done}
		children := []struct {
			name string
			iv   interval
		}{
			{"order", interval{c.submit, commit}},
			{"execute", interval{commit, quorumExec}},
			{"reply", interval{quorumExec, c.done}},
		}
		ivs := make([]interval, len(children))
		for i, ch := range children {
			ivs[i] = ch.iv
		}
		rt := requestTrace{ID: fmt.Sprintf("%v/%d", c.key.Client, c.key.ClientSeq)}
		rt.Spans = append(rt.Spans, spanRec{Name: "request", StartUS: us(parent.start), EndUS: us(parent.end),
			SelfUS: us(selfTime(parent, ivs))})
		for _, ch := range children {
			rt.Spans = append(rt.Spans, spanRec{Name: ch.name, Parent: "request",
				StartUS: us(ch.iv.start), EndUS: us(ch.iv.end), SelfUS: us(ch.iv.end - ch.iv.start)})
		}
		out.traces = append(out.traces, rt)
		out.orderMS = append(out.orderMS, ms(commit-c.submit))
		out.replyMS = append(out.replyMS, ms(c.done-quorumExec))
	}
	return out
}

// traceFile is the document written to benchmark/out/trace-<workload>.json.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Clock    string             `json:"clock"` // "wall" or "virtual"
	Metrics  map[string]float64 `json:"per_layer"`
	Hops     map[string]int     `json:"ordering_hops,omitempty"`
	Notes    []string           `json:"notes,omitempty"`
	Requests []requestTrace     `json:"requests"`
}

// outDir is where result and trace files go, relative to the directory
// the benchmark is run from (the repository root).
const outDir = "benchmark/out"

func writeJSON(name string, v any) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, name), append(data, '\n'), 0o644)
}
