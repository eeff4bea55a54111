//go:build !race

package pbft_test

import (
	"testing"

	"bftkit/internal/core"
	"bftkit/internal/harness"
	"bftkit/internal/protocols/pbft"
	"bftkit/internal/types"
)

// TestAllocsVoteDigest: the digest a replica signs or verifies for every
// vote is built in the hasher's own buffer; nothing reaches the heap. Not
// under the race detector, which allocates on its own.
func TestAllocsVoteDigest(t *testing.T) {
	m := &core.VoteMsg{Stage: core.StageCommit, View: 1, Seq: 2, Digest: types.DigestBytes([]byte("batch")), Replica: 3}
	var sink types.Digest
	if got := testing.AllocsPerRun(100, func() { sink = m.SigDigest() }); got != 0 {
		t.Fatalf("VoteMsg.SigDigest allocates %v times per call, want 0", got)
	}
	_ = sink
}

// TestAllocsMACPath: under MACs a replica's ID list is built once, so
// authenticating a message allocates only its tag vector, and closing a
// slot's commit stage builds no commit certificate, which MAC'd votes,
// carrying no signature, could never fill.
func TestAllocsMACPath(t *testing.T) {
	c := harness.NewCluster(harness.Options{Protocol: "pbft-mac", N: 4})
	c.Start()
	env := c.Replicas[0]
	p := env.Protocol().(*pbft.PBFT)
	d := types.DigestBytes([]byte("message"))
	if got := testing.AllocsPerRun(100, func() { _, _ = core.Authenticate(env, d) }); got > 2 {
		t.Errorf("Authenticate under MACs: %v allocations per call, want at most the vector's 2", got)
	}

	req := &types.Request{Client: types.ClientIDBase, ClientSeq: 1, Op: []byte("op")}
	sl := p.Slots.Accept(core.NewProposal(env, 0, 1, types.NewBatch(req)))
	if sl == nil {
		t.Fatal("the leader refused its own proposal")
	}
	if got := testing.AllocsPerRun(100, func() { p.Slots.Closed(sl, core.StageCommit, nil) }); got != 0 {
		t.Errorf("closing a commit stage under MACs: %v allocations, want 0", got)
	}
}
