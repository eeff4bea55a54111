package chaos

// Async-verification chaos: a real-TCP pbft cluster runs with the
// vpool verification engine enabled — worker pools, signature memo,
// certificate cache, and the per-connection inbound-verify lanes — while
// one replica garbles the signature on every ordering message it sends.
// The invariant oracle audits the run end to end: the engine must change
// where and when Ed25519 work happens, never what the protocol accepts.

import (
	"fmt"
	"testing"
	"time"

	"bftkit/internal/byz"
	"bftkit/internal/core"
	"bftkit/internal/crypto"
	"bftkit/internal/harness"
	"bftkit/internal/kvstore"
	"bftkit/internal/obsv"
	"bftkit/internal/protocols/pbft"
	"bftkit/internal/types"
)

// garbageSigBehavior corrupts the signature on every pbft prepare and
// commit the wrapped replica sends, leaving the payload intact: a node
// that participates in the protocol but cannot authenticate — the exact
// traffic the verify engine must reject without caching or confusion.
type garbageSigBehavior struct{}

func (garbageSigBehavior) Name() string   { return "garbage-sig" }
func (garbageSigBehavior) New() byz.Actor { return garbageSigActor{} }

type garbageSigActor struct{ byz.Passive }

func garble(sig []byte) []byte {
	// Same length, different bytes: the corrupted signature takes the
	// full memo path (correct-length sigs are the only ones memoized).
	out := make([]byte, len(sig))
	for i, b := range sig {
		out[i] = b ^ 0xa5
	}
	return out
}

func (garbageSigActor) Outgoing(_ types.NodeID, m types.Message) byz.Verdict {
	switch msg := m.(type) {
	case *pbft.PrepareMsg:
		cp := *msg
		cp.Sig = garble(cp.Sig)
		return byz.Verdict{Replace: &cp}
	case *pbft.CommitMsg:
		cp := *msg
		cp.Sig = garble(cp.Sig)
		return byz.Verdict{Replace: &cp}
	}
	return byz.Verdict{}
}

// TestTCPAsyncVerifyWithGarbageSigner is the verification-engine
// acceptance run: pbft n=4/f=1 over real TCP in signature mode, async
// inbound verify enabled on every node, replica 3 sending garbage
// signatures on all its prepares and commits. The workload must complete
// on the honest quorum, the chaos oracle must observe no invariant
// violation, and the engine must have both rejected the garbage and
// recalled honest broadcast traffic from its memo.
func TestTCPAsyncVerifyWithGarbageSigner(t *testing.T) {
	if testing.Short() {
		t.Skip("real-network run with wall-clock timers")
	}

	tracer := obsv.New(obsv.Options{Label: "tcp-async-verify"})

	var clu *harness.TCPCluster
	now := func() time.Duration {
		if clu == nil {
			return 0
		}
		return clu.Now()
	}
	oracle := NewOracle(Config{Protocol: "pbft", N: 4, F: 1}, now)

	clu, err := harness.NewTCPCluster(harness.TCPOptions{
		Protocol: "pbft",
		N:        4,
		F:        1,
		Seed:     11,
		// Force signature mode: the engine's whole point is Ed25519
		// traffic, and garbage MACs would not exercise it.
		Tune:          func(cfg *core.Config) { cfg.Scheme = crypto.SchemeSig },
		Observers:     []harness.Observer{oracle},
		Trace:         tracer,
		VerifyWorkers: 2,
		Byzantine:     map[types.NodeID]byz.Behavior{3: garbageSigBehavior{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer clu.Stop()

	const requests = 20
	for i := 1; i <= requests; i++ {
		clu.Submit(kvstore.Put(fmt.Sprintf("key-%d", i), []byte(fmt.Sprintf("value-%d", i))))
		if _, err := clu.AwaitDone(30 * time.Second); err != nil {
			t.Fatalf("request %d: %v (violations so far: %v)", i, err, oracle.Violations())
		}
	}

	clu.Stop() // a trailing replica still feeds the oracle until then
	oracle.Finalize(requests, requests, true, clu.Now())
	if v := oracle.Violations(); len(v) != 0 {
		t.Fatalf("invariant violations with async verify: %v", v)
	}

	vs := tracer.VerifyPoolStats()
	if vs.Rejected == 0 {
		t.Fatalf("replica 3 garbled every prepare/commit signature, yet the engine rejected nothing (stats %+v)", vs)
	}
	if vs.MemoHits == 0 {
		t.Fatalf("async verify ran a full workload without a single memo hit (stats %+v)", vs)
	}
	if vs.Performed == 0 {
		t.Fatalf("engine performed no verifications — inbound-verify lanes never engaged (stats %+v)", vs)
	}
	t.Logf("verify-pool stats: %+v", vs)
}
