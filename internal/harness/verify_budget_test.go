package harness

import (
	"fmt"
	"testing"
	"time"

	"bftkit/internal/byz"
	"bftkit/internal/crypto"
	"bftkit/internal/kvstore"
	"bftkit/internal/protocols/sbft"
	"bftkit/internal/types"
)

// budget is what a run charged, by crypto.Op, to the replicas and to the
// clients.
type budget struct{ replicas, clients [4]int64 }

// budgetRun runs one client's sequential requests on the simulator and
// returns the crypto operations charged.
func budgetRun(t *testing.T, opts Options, requests int) (*Cluster, budget) {
	t.Helper()
	c := NewCluster(opts)
	var b budget
	c.Auth.SetObserver(func(node types.NodeID, op crypto.Op) {
		if node.IsClient() {
			b.clients[op]++
		} else {
			b.replicas[op]++
		}
	})
	c.Start()
	c.ClosedLoop(requests, func(_, k int) []byte { return kvstore.Put(fmt.Sprintf("k%d", k), []byte("v")) })
	c.RunUntilIdle(30 * time.Second)
	if c.Metrics.Completed != requests {
		t.Fatalf("completed %d/%d requests", c.Metrics.Completed, requests)
	}
	sign, verify, mac, macVerify := c.Auth.Stats.Snapshot()
	for op, n := range [4]int64{crypto.OpSign: sign, crypto.OpVerify: verify, crypto.OpMAC: mac, crypto.OpMACVerify: macVerify} {
		if seen := b.replicas[op] + b.clients[op]; n != seen {
			t.Fatalf("Stats charged %d of op %d, the observer saw %d", n, op, seen)
		}
	}
	return c, b
}

// TestVerifyBudgetPBFT pins what pbft at n = 4 verifies per request, one
// request per slot: the client signature at the leader's Submit and at
// each backup's Accept (4), the proposal at each backup (3), and only the
// votes that can still close a stage — 2 prepares at the leader and 1 at
// each backup (5), 2 commits at each replica (8). A vote that arrives
// after its stage closed is dropped unverified, and no Requester checks a
// REPLY signature.
func TestVerifyBudgetPBFT(t *testing.T) {
	const requests = 20
	_, b := budgetRun(t, Options{Protocol: "pbft", N: 4, Seed: 3}, requests)
	replicas, clients := b.replicas[crypto.OpVerify], b.clients[crypto.OpVerify]
	if clients != 0 {
		t.Errorf("the client verified %d signatures, want none: no Requester checks a REPLY", clients)
	}
	if want := int64(20 * requests); replicas != want {
		t.Errorf("replicas verified %d signatures for %d requests (%.2f each), want exactly 20 each",
			replicas, requests, float64(replicas)/requests)
	}
}

// TestSignBudgetPBFTMAC pins what pbft-mac at n = 4 signs, MACs and
// checks per request, one request per slot: nothing is signed or
// verified with a signature. The client MACs its request to each of the 4
// replicas, and each replica checks its own entry once: the leader at
// Submit, each backup at Accept (4 MAC verifies). Replies follow the
// deployment's scheme like every other message, so each of the four
// carries one MAC to the client. Proposals and votes are MAC'd too: a
// 3-tag vector for the proposal and for each of 3 prepares and 4 commits
// (24 MACs), checked exactly where pbft checks their signatures (16 MAC
// verifies). With the 4 reply MACs the replicas compute 28; the client
// checks the tags of the f+1 = 2 replies that complete the request and
// drops the late two unchecked.
func TestSignBudgetPBFTMAC(t *testing.T) {
	const requests = 20
	_, b := budgetRun(t, Options{Protocol: "pbft-mac", N: 4, Seed: 3}, requests)
	perReq := func(op crypto.Op) (client, replicas float64) {
		return float64(b.clients[op]) / requests, float64(b.replicas[op]) / requests
	}
	if c, r := perReq(crypto.OpSign); c != 0 || r != 0 {
		t.Errorf("signs per request: %.2f by the client and %.2f by the replicas, want none", c, r)
	}
	if c, r := perReq(crypto.OpVerify); c != 0 || r != 0 {
		t.Errorf("signature verifies per request: %.2f by the client and %.2f by the replicas, want none", c, r)
	}
	if c, r := perReq(crypto.OpMAC); c != 4 || r != 28 {
		t.Errorf("MACs per request: %.2f by the client and %.2f by the replicas, want 4 and 28", c, r)
	}
	if c, r := perReq(crypto.OpMACVerify); c != 2 || r != 20 {
		t.Errorf("MAC verifies per request: %.2f by the client and %.2f by the replicas, want 2 and 20", c, r)
	}
}

// TestVerifyBudgetSBFTFastVoteAfterTimeout: replica 3's sign shares reach
// the collector after τ3 closed the sign stage on a quorum but before the
// slow path commits. The collector still verifies that n-th share and
// commits every slot on the fast path.
func TestVerifyBudgetSBFTFastVoteAfterTimeout(t *testing.T) {
	const requests = 10
	c, _ := budgetRun(t, Options{Protocol: "sbft", N: 4, Seed: 3,
		// τ3 is 8 ms; the share, sent about 1 ms in, arrives about 9 ms
		// in; the slow path commits about 10 ms in.
		Byzantine: map[types.NodeID]byz.Behavior{3: byz.DelayProposals{Delay: 7 * time.Millisecond, Phases: []string{"sign"}}}},
		requests)
	leader := c.Replicas[0].Protocol().(*sbft.SBFT)
	if leader.FastCommits != requests || leader.SlowCommits != 0 {
		t.Fatalf("the collector committed %d slots fast and %d slow, want all %d fast", leader.FastCommits, leader.SlowCommits, requests)
	}
}
