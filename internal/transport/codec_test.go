package transport

// The codec's contract as the transport relies on it: hostile frames are
// rejected with an error, never a panic and never an allocation sized by
// the attacker; the semantics protocol code reads (nil slices, MAC
// vectors with holes) survive the wire; and the simulator's byte
// accounting is the frame's length less header and sender.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"

	"bftkit/internal/core"
	"bftkit/internal/obsv"
	"bftkit/internal/protocols/themis"
	"bftkit/internal/types"
	"bftkit/internal/wire"
)

// tagOf is m's kind tag: its position in wireMessages, plus one.
func tagOf(t *testing.T, m types.Message) byte {
	t.Helper()
	for i, k := range wireMessages {
		if reflect.TypeOf(k) == reflect.TypeOf(m) {
			return byte(i + 1)
		}
	}
	t.Fatalf("%T is not a wire message", m)
	return 0
}

func uv(x uint64) []byte { return binary.AppendUvarint(nil, x) }

func cat(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

func expectReject(t *testing.T, payload []byte, want error) {
	t.Helper()
	_, m, err := wire.Decode(payload)
	if !errors.Is(err, want) {
		t.Fatalf("Decode = (%T, %v), want %v", m, err, want)
	}
}

// TestWireRejectsLengthPastFrame: a byte string or a list that declares
// more than the frame holds is refused before anything is allocated — a
// terabyte declaration would otherwise be a terabyte allocation.
func TestWireRejectsLengthPastFrame(t *testing.T) {
	req := tagOf(t, &core.RequestMsg{})
	// RequestMsg{Req: {Client 0, ClientSeq 0, Op: 1 TiB}}
	expectReject(t, cat([]byte{3, req, 1, 0, 0}, uv(1<<40)), wire.ErrShort)
	// Op declares 3 bytes, 2 follow.
	expectReject(t, cat([]byte{3, req, 1, 0, 0}, uv(3), []byte("ab")), wire.ErrShort)
	// ProposeMsg{View 0, Seq 0, Digest 0, Batch nil, Evidence: 2^40 entries}
	propose := tagOf(t, &core.ProposeMsg{})
	expectReject(t, cat([]byte{3, propose, 0, 0}, make([]byte, 32), []byte{0}, uv(1<<40)), wire.ErrShort)
}

// TestWireRejectsMemoryAmplification: a MAC vector of empty entries costs
// 1 byte per entry on the wire and a 24-byte slice header in memory, so a
// 4 MiB frame of them would decode into 96 MiB. The decoder charges what
// a frame allocates against one budget of wire.MaxExpansion bytes per
// frame byte. Spreading the holes over many nested vectors, each small
// beside the whole frame, still exhausts that one budget.
func TestWireRejectsMemoryAmplification(t *testing.T) {
	expectReject(t, payload(t, 3, &core.VoteMsg{Auth: make([][]byte, 1<<16)}), wire.ErrMemory)

	nested := &core.ProposeMsg{}
	for i := 0; i < 256; i++ {
		nested.Evidence = append(nested.Evidence, &core.VoteMsg{Auth: make([][]byte, 256)})
	}
	expectReject(t, payload(t, 3, nested), wire.ErrMemory)

	// A real authenticator vector decodes: its MACs are bytes on the wire.
	macs := make([][]byte, 16)
	for i := range macs {
		macs[i] = bytes.Repeat([]byte{byte(i + 1)}, 32)
	}
	roundTrip(t, &core.VoteMsg{Replica: 1, Auth: macs})
}

// TestWireRejectsNonMinimalVarint: 3 encoded in two bytes is not the
// canonical 3, in the sender or in a field, and an 11-byte varint
// overflows.
func TestWireRejectsNonMinimalVarint(t *testing.T) {
	fetch := tagOf(t, &core.FetchStateMsg{})
	if _, m, err := wire.Decode([]byte{3, fetch, 5}); err != nil || m.(*core.FetchStateMsg).Seq != 5 {
		t.Fatalf("minimal frame: %v, %v", m, err)
	}
	expectReject(t, []byte{0x83, 0x00, fetch, 5}, wire.ErrVarint)
	expectReject(t, []byte{3, fetch, 0x85, 0x00}, wire.ErrVarint)
	expectReject(t, cat([]byte{3, fetch}, bytes.Repeat([]byte{0xff}, 10), []byte{1}), wire.ErrVarint)
}

// TestWireRejectsBadBool: a bool or presence byte is 0 or 1.
func TestWireRejectsBadBool(t *testing.T) {
	reply := tagOf(t, &core.ReplyMsg{})
	// ReplyMsg{R: {Replica, Client, ClientSeq, View, Seq 0, Result nil, Speculative, History 0, Sig nil}}
	frame := func(speculative byte) []byte {
		return cat([]byte{3, reply, 1, 0, 0, 0, 0, 0, 0, speculative}, make([]byte, 32), []byte{0})
	}
	if _, m, err := wire.Decode(frame(1)); err != nil || !m.(*core.ReplyMsg).R.Speculative {
		t.Fatalf("Speculative 1: %v, %v", m, err)
	}
	expectReject(t, frame(2), wire.ErrBool)
	expectReject(t, []byte{3, reply, 2}, wire.ErrBool) // presence byte of R
}

// TestWireRejectsUnknownTag: a kind tag past the registered kinds.
func TestWireRejectsUnknownTag(t *testing.T) {
	expectReject(t, []byte{3, byte(len(wireMessages) + 1)}, wire.ErrTag)
	expectReject(t, []byte{3, 255}, wire.ErrTag)
}

// TestWireRejectsInterfaceMismatch: an interface field holds only kinds
// that implement it — a RequestMsg is no core.Evidence, so it cannot
// stand in ProposeMsg.Evidence where a signed report can.
func TestWireRejectsInterfaceMismatch(t *testing.T) {
	valid := payload(t, 3, &core.ProposeMsg{Evidence: []core.Evidence{&themis.ReportMsg{}}})
	// sender, tag, View, Seq, Digest, Batch presence, Evidence count
	const at = 1 + 1 + 1 + 1 + 32 + 1 + 1
	if valid[at] != tagOf(t, &themis.ReportMsg{}) {
		t.Fatalf("byte %d of %x is not the evidence tag", at, valid)
	}
	if _, _, err := wire.Decode(valid); err != nil {
		t.Fatal(err)
	}
	hostile := bytes.Clone(valid)
	hostile[at] = tagOf(t, &core.RequestMsg{})
	expectReject(t, hostile, wire.ErrInterface)
}

// TestWireRejectsNilElement: a slice of pointers holds no nil, on the
// wire or into it.
func TestWireRejectsNilElement(t *testing.T) {
	nv := tagOf(t, &core.NewViewMsg{})
	// NewViewMsg{View 0, Base 0, ViewChanges: [absent], Committed, Reissued, Sig}
	expectReject(t, []byte{3, nv, 0, 0, 1, 0, 0, 0, 0}, wire.ErrNilElem)
	if _, err := wire.AppendFrame(nil, 3, &core.NewViewMsg{ViewChanges: []*core.ViewChangeMsg{nil}}); !errors.Is(err, wire.ErrNilElem) {
		t.Fatalf("encoding a nil element: %v", err)
	}
}

// TestWireRejectsTrailingBytes: a frame holds exactly one message.
func TestWireRejectsTrailingBytes(t *testing.T) {
	expectReject(t, append(payload(t, 3, testMsg(1)), 0), wire.ErrTrailing)
}

// viewChangeChain nests levels view changes, each the next one's
// evidence.
func viewChangeChain(levels int) *core.ViewChangeMsg {
	vc := &core.ViewChangeMsg{}
	for i := 1; i < levels; i++ {
		vc = &core.ViewChangeMsg{Evidence: []core.Evidence{vc}}
	}
	return vc
}

// TestWireRejectsDeepNesting: a view change relays evidence, and a view
// change is evidence, so a frame can nest without end. A crafted
// 100 000-level NEW-VIEW is refused at MaxDepth instead of overflowing
// the decoder's stack, and a message nested past it is refused at Send.
func TestWireRejectsDeepNesting(t *testing.T) {
	nv, vc := tagOf(t, &core.NewViewMsg{}), tagOf(t, &core.ViewChangeMsg{})
	// A view change is NewView, Base, Stable, Committed, Carried, then
	// Evidence: one more view change, nested levels deep — then Replica
	// and Sig closing each level.
	const levels = 100_000
	frame := []byte{3, nv, 0, 0, 1, 1}
	frame = append(frame, bytes.Repeat([]byte{0, 0, 0, 0, 0, 1, vc}, levels)...)
	frame = append(frame, 0, 0, 0, 0, 0, 0, 0, 0) // the innermost: five fields, no evidence, Replica, Sig
	frame = append(frame, bytes.Repeat([]byte{0, 0}, levels)...)
	frame = append(frame, 0, 0, 0) // Committed, Reissued, Sig of the NEW-VIEW
	expectReject(t, frame, wire.ErrDepth)

	shallow := &core.NewViewMsg{ViewChanges: []*core.ViewChangeMsg{viewChangeChain(3)}}
	roundTrip(t, shallow)
	deep := &core.NewViewMsg{ViewChanges: []*core.ViewChangeMsg{viewChangeChain(wire.MaxDepth)}}
	if _, err := wire.AppendFrame(nil, 3, deep); !errors.Is(err, wire.ErrDepth) {
		t.Fatalf("encoding %d levels: %v", wire.MaxDepth+1, err)
	}
}

// TestWireZeroLengthDecodesNil pins gob's semantics the protocols were
// written against: an empty slice arrives as nil, so VerifyAuth's
// vec[idx] == nil test sees a missing MAC whichever way it was sent.
func TestWireZeroLengthDecodesNil(t *testing.T) {
	sent := &core.VoteMsg{Replica: 2, Sig: []byte{}, Auth: [][]byte{{1}, {}, nil}}
	_, m, err := wire.Decode(payload(t, 3, sent))
	if err != nil {
		t.Fatal(err)
	}
	got := m.(*core.VoteMsg)
	if got.Sig != nil || len(got.Auth) != 3 || got.Auth[1] != nil || got.Auth[2] != nil || got.Auth[0][0] != 1 {
		t.Fatalf("decoded Sig %#v Auth %#v", got.Sig, got.Auth)
	}
	empty := payload(t, 3, &core.VoteMsg{Auth: [][]byte{}})
	if _, m, err := wire.Decode(empty); err != nil || m.(*core.VoteMsg).Auth != nil {
		t.Fatalf("an empty vector decoded as %#v (%v)", m, err)
	}
}

// TestWireMACVectorWithHole: a MAC authenticator vector has no entry for
// its sender; the hole crosses the wire in place.
func TestWireMACVectorWithHole(t *testing.T) {
	sent := &core.VoteMsg{Stage: core.StageCommit, Replica: 2, Auth: [][]byte{{1}, {2}, nil, {3}}}
	roundTrip(t, sent)
	_, m, _ := wire.Decode(payload(t, 3, sent))
	if auth := m.(*core.VoteMsg).Auth; len(auth) != 4 || auth[2] != nil {
		t.Fatalf("Auth = %#v", auth)
	}
}

// TestWireSizeParity: for every kind that does not model its own size,
// the simulator charges exactly what the transport frames, less the
// length prefix and the sender.
func TestWireSizeParity(t *testing.T) {
	msgs := []types.Message{}
	for _, proto := range wireMessages {
		m := reflect.New(reflect.TypeOf(proto).Elem())
		seed := uint64(0)
		fill(m, &seed, 6)
		msgs = append(msgs, proto, m.Interface().(types.Message))
	}
	for _, fx := range orderingFixtures() {
		msgs = append(msgs, fx.msg)
	}
	for _, fx := range viewChangeFixtures() {
		msgs = append(msgs, fx.vc, fx.nv)
	}
	checked := 0
	for _, m := range msgs {
		if _, ok := m.(obsv.Sizer); ok {
			continue
		}
		for _, from := range []types.NodeID{3, types.ClientIDBase} {
			frame, err := wire.AppendFrame(nil, from, m)
			if err != nil {
				t.Fatalf("%T: %v", m, err)
			}
			if got, want := len(frame)-obsv.SizeOf(m), wire.HeaderLen+len(uv(uint64(from))); got != want {
				t.Errorf("%s from %v: frame %d bytes, SizeOf %d: differ by %d, want %d",
					m.Kind(), from, len(frame), obsv.SizeOf(m), got, want)
			}
		}
		checked++
	}
	if checked < len(wireMessages) {
		t.Fatalf("only %d messages without a Sizer checked", checked)
	}
}
