//go:build !race

package pbft_test

import (
	"testing"

	"bftkit/internal/core"
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
