//go:build !race

package transport

import (
	"testing"

	"bftkit/internal/core"
	"bftkit/internal/obsv"
	"bftkit/internal/types"
	"bftkit/internal/wire"
)

// TestAllocsWire holds the codec's allocation ceilings on the four frames
// a transaction is mostly made of: decoding allocates the message's own
// objects and nothing else (gob took 8 / 19 / 11 / 12), and encoding into
// a reused buffer and sizing allocate nothing.
func TestAllocsWire(t *testing.T) {
	req := &types.Request{Client: types.ClientIDBase, ClientSeq: 9, Op: make([]byte, 32), Sig: make([]byte, 64)}
	sig := make([]byte, 64)
	for _, c := range []struct {
		name   string
		msg    types.Message
		decode float64
	}{
		// the message, its Sig
		{"vote", &core.VoteMsg{Stage: core.StageCommit, View: 1, Seq: 7, Replica: 2, Sig: sig}, 2},
		// the message, the batch, its request list, the request, its Op and
		// Sig, the proposal's Sig
		{"propose", &core.ProposeMsg{View: 1, Seq: 7, Batch: types.NewBatch(req), Leader: 1, Sig: sig}, 7},
		// the message, the request, its Op and Sig
		{"request", &core.RequestMsg{Req: req}, 4},
		// the message, the reply, its Result and Sig
		{"reply", &core.ReplyMsg{R: &types.Reply{Replica: 1, Client: req.Client, ClientSeq: 9, Seq: 7, Result: []byte("ok"), Sig: sig}}, 4},
	} {
		frame, err := wire.AppendFrame(nil, 1, c.msg)
		if err != nil {
			t.Fatal(err)
		}
		if got := testing.AllocsPerRun(100, func() { _, _, _ = wire.Decode(frame[wire.HeaderLen:]) }); got > c.decode {
			t.Errorf("decoding a %s allocates %v objects, want <= %v", c.name, got, c.decode)
		}
		buf := make([]byte, 0, 1024)
		if got := testing.AllocsPerRun(100, func() { buf, _ = wire.AppendFrame(buf[:0], 1, c.msg) }); got != 0 {
			t.Errorf("encoding a %s into a reused buffer allocates %v objects", c.name, got)
		}
		if got := testing.AllocsPerRun(100, func() { _ = obsv.SizeOf(c.msg) }); got != 0 {
			t.Errorf("sizing a %s allocates %v objects", c.name, got)
		}
	}
}
