package core_test

import (
	"testing"

	"bftkit/internal/core"
	"bftkit/internal/crypto"
	"bftkit/internal/transport"
	"bftkit/internal/types"
	"bftkit/internal/wire"
)

// newViewPayload is the frame payload of the largest NEW-VIEW a full
// pipeline window makes at n = 4 when every slot is a full batch of
// requests of size bytes: 2f+1 relayed view-change messages, each carrying
// the window's prepared slots with their certificates, and as many
// re-issued slots.
func newViewPayload(batchSize, size int) int {
	cfg := core.DefaultConfig(4)
	sig := make([]byte, crypto.SigSize)
	reqs := make([]*types.Request, batchSize)
	for i := range reqs {
		reqs[i] = &types.Request{Client: types.ClientIDBase + types.NodeID(i), ClientSeq: 1, Op: make([]byte, size), Sig: sig}
	}
	batch := types.NewBatch(reqs...)
	window := func(view types.View) []core.CarriedSlot {
		out := make([]core.CarriedSlot, core.PipelineDepth)
		for i := range out {
			seq := types.SeqNum(i + 1)
			cert := &crypto.Certificate{Digest: core.VoteDigest(core.StagePrepare, view, seq, batch.Digest())}
			for id := 1; id <= 2*cfg.F; id++ {
				cert.Add(types.NodeID(id), sig)
			}
			out[i] = core.CarriedSlot{View: view, Seq: seq, Digest: batch.Digest(), Batch: batch, Cert: cert, LeaderSig: sig}
		}
		return out
	}
	nv := &core.NewViewMsg{View: 1, Reissued: window(1), Sig: sig}
	for id := 1; id <= cfg.Quorum(); id++ {
		nv.ViewChanges = append(nv.ViewChanges, &core.ViewChangeMsg{NewView: 1, Carried: window(0), Replica: types.NodeID(id), Sig: sig})
	}
	return wire.FrameSize(1, nv) - wire.HeaderLen
}

// TestWorstCaseNewViewFitsAFrame: at the default BatchSize the NEW-VIEW of
// a full window of full batches of 4 KiB requests fits the transport's
// frame bound. It carries every batch 2f+2 times, so it grows as
// (2f+2) · pipelineDepth · BatchSize · request size (DESIGN.md → Batching
// and the pipeline window): 2.0 MiB at a cap of 16, and 4.1 MiB, past the
// 4 MiB bound, at 32.
func TestWorstCaseNewViewFitsAFrame(t *testing.T) {
	batch := core.DefaultConfig(4).BatchSize
	got := newViewPayload(batch, 4<<10)
	if got > transport.DefaultMaxFrame {
		t.Fatalf("worst-case NEW-VIEW at BatchSize %d is %d bytes, over the %d-byte frame bound", batch, got, transport.DefaultMaxFrame)
	}
	t.Logf("worst-case NEW-VIEW: %.2f MiB at BatchSize %d, %.2f MiB at %d (bound %.0f MiB)",
		float64(got)/(1<<20), batch, float64(newViewPayload(2*batch, 4<<10))/(1<<20), 2*batch, float64(transport.DefaultMaxFrame)/(1<<20))
}
