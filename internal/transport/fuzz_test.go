package transport

import (
	"bytes"
	"encoding/binary"
	"testing"

	"bftkit/internal/types"
	"bftkit/internal/wire"
)

// payload is m's frame from from, less the length prefix: what readLoop
// hands the decoder.
func payload(tb testing.TB, from types.NodeID, m types.Message) []byte {
	tb.Helper()
	frame, err := wire.AppendFrame(nil, from, m)
	if err != nil {
		tb.Fatalf("encode %T: %v", m, err)
	}
	return frame[wire.HeaderLen:]
}

// seedPayloads adds one valid payload per registered wire message, then
// the shared ordering and view-change messages as the protocols populate
// them (they nest batches, certificates and interface-typed evidence
// lists), so the fuzzer starts from every kind's encoding.
func seedPayloads(f *testing.F, from types.NodeID) {
	for _, m := range wireMessages {
		f.Add(payload(f, from, m))
	}
	for _, fx := range orderingFixtures() {
		f.Add(payload(f, from, fx.msg))
	}
	for _, fx := range viewChangeFixtures() {
		for _, m := range []types.Message{fx.vc, fx.nv} {
			f.Add(payload(f, from, m))
		}
	}
}

// FuzzWireDecode feeds arbitrary bytes to the decoder readLoop runs on
// every inbound frame. A remote peer fully controls those bytes, so the
// decoder must fail with an error — never a panic — on anything
// malformed.
func FuzzWireDecode(f *testing.F) {
	seedPayloads(f, 1)
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			t.Skip("oversized input; the interesting space is tags, lengths and nesting")
		}
		_, m, err := wire.Decode(data)
		if err == nil && m != nil {
			_ = m.Kind()
		}
	})
}

// FuzzWireRoundTrip holds the codec to its canonical form: whatever
// decodes re-encodes to the identical bytes, so a relayed message
// (ForwardMsg, a new view's view changes) is the message its signer sent.
func FuzzWireRoundTrip(f *testing.F) {
	seedPayloads(f, 2)

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			t.Skip("oversized input")
		}
		from, m, err := wire.Decode(data)
		if err != nil {
			return
		}
		again, err := wire.AppendFrame(nil, from, m)
		if err != nil {
			t.Fatalf("decoded %T does not re-encode: %v", m, err)
		}
		if !bytes.Equal(again[wire.HeaderLen:], data) {
			t.Fatalf("round trip changed the bytes:\nin  %x\nout %x", data, again[wire.HeaderLen:])
		}
		if got := wire.FrameSize(from, m); got != len(again) {
			t.Fatalf("FrameSize %d, frame %d bytes", got, len(again))
		}
	})
}

// frameStream concatenates the frames of msgs, each from from.
func frameStream(tb testing.TB, from types.NodeID, msgs ...types.Message) []byte {
	tb.Helper()
	var out []byte
	for _, m := range msgs {
		var err error
		if out, err = wire.AppendFrame(out, from, m); err != nil {
			tb.Fatalf("seed encode: %v", err)
		}
	}
	return out
}

// FuzzFrameStream feeds arbitrary bytes through the exact read path
// readLoop runs — frame bound, then a decode of exactly that frame. The
// contract under attack: any input either yields well-formed messages or
// an error; never a panic, and never an allocation past the frame bound.
// Seeds cover valid multi-frame streams, truncations, hostile lengths,
// and a corrupted frame after a valid one.
func FuzzFrameStream(f *testing.F) {
	f.Add(frameStream(f, 1, nil))
	f.Add(frameStream(f, 2, nil, wireMessages[0], wireMessages[1]))
	// Hostile lengths: zero, over-bound, and a huge declaration with no
	// payload behind it.
	hostile := make([]byte, wire.HeaderLen)
	f.Add(hostile)
	binary.BigEndian.PutUint32(hostile, 1<<31)
	f.Add(append([]byte{}, hostile...))
	// Valid frame followed by a corrupted copy of itself.
	valid := frameStream(f, 3, wireMessages[2])
	corrupt := append(append([]byte{}, valid...), valid...)
	corrupt[len(valid)+wire.HeaderLen+2] ^= 0xff
	f.Add(corrupt)

	const maxFrame = 1 << 16
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<18 {
			t.Skip("oversized input; the interesting space is framing")
		}
		fr := newFrameReader(bytes.NewReader(data), maxFrame)
		for i := 0; i < 16; i++ {
			if err := fr.next(); err != nil {
				return
			}
			if got := len(fr.buf); got == 0 || got > maxFrame {
				t.Fatalf("frame of %d bytes escaped the (0, %d] bound", got, maxFrame)
			}
			_, m, err := wire.Decode(fr.buf)
			if err != nil {
				return // readLoop drops the conn here
			}
			if m != nil {
				_ = m.Kind()
			}
		}
	})
}
