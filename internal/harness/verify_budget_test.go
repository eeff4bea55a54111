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

// budgetRun runs one client's sequential requests on the simulator and
// returns the verifications charged to the replicas and to the client.
func budgetRun(t *testing.T, opts Options, requests int) (*Cluster, int64, int64) {
	t.Helper()
	c := NewCluster(opts)
	var replicas, clients int64
	c.Auth.SetObserver(func(node types.NodeID, op crypto.Op) {
		switch {
		case op != crypto.OpVerify:
		case node.IsClient():
			clients++
		default:
			replicas++
		}
	})
	c.Start()
	c.ClosedLoop(requests, func(_, k int) []byte { return kvstore.Put(fmt.Sprintf("k%d", k), []byte("v")) })
	c.RunUntilIdle(30 * time.Second)
	if c.Metrics.Completed != requests {
		t.Fatalf("completed %d/%d requests", c.Metrics.Completed, requests)
	}
	if _, verify, _, _ := c.Auth.Stats.Snapshot(); verify != replicas+clients {
		t.Fatalf("Stats charged %d verifications, the observer saw %d", verify, replicas+clients)
	}
	return c, replicas, clients
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
	_, replicas, clients := budgetRun(t, Options{Protocol: "pbft", N: 4, Seed: 3}, requests)
	if clients != 0 {
		t.Errorf("the client verified %d signatures, want none: no Requester checks a REPLY", clients)
	}
	if want := int64(20 * requests); replicas != want {
		t.Errorf("replicas verified %d signatures for %d requests (%.2f each), want exactly 20 each",
			replicas, requests, float64(replicas)/requests)
	}
}

// TestVerifyBudgetSBFTFastVoteAfterTimeout: replica 3's sign shares reach
// the collector after τ3 closed the sign stage on a quorum but before the
// slow path commits. The collector still verifies that n-th share and
// commits every slot on the fast path.
func TestVerifyBudgetSBFTFastVoteAfterTimeout(t *testing.T) {
	const requests = 10
	c, _, _ := budgetRun(t, Options{Protocol: "sbft", N: 4, Seed: 3,
		// τ3 is 8 ms; the share, sent about 1 ms in, arrives about 9 ms
		// in; the slow path commits about 10 ms in.
		Byzantine: map[types.NodeID]byz.Behavior{3: byz.DelayProposals{Delay: 7 * time.Millisecond, Phases: []string{"sign"}}}},
		requests)
	leader := c.Replicas[0].Protocol().(*sbft.SBFT)
	if leader.FastCommits != requests || leader.SlowCommits != 0 {
		t.Fatalf("the collector committed %d slots fast and %d slow, want all %d fast", leader.FastCommits, leader.SlowCommits, requests)
	}
}
