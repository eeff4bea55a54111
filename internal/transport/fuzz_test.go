package transport

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"testing"

	"bftkit/internal/types"
)

// FuzzWireDecode feeds arbitrary bytes to the same gob decode path
// readLoop runs on every inbound connection. A remote peer fully
// controls those bytes, so the decoder must fail with an error — never a
// panic — on anything malformed. The seed corpus is one valid envelope
// per registered wire message so the fuzzer starts from every concrete
// type's encoding rather than rediscovering gob's framing.
func FuzzWireDecode(f *testing.F) {
	for _, m := range wireMessages {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&Envelope{From: 1, Msg: m}); err != nil {
			f.Fatalf("seed encode %T: %v", m, err)
		}
		f.Add(buf.Bytes())
	}
	for _, fx := range orderingFixtures() {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&Envelope{From: 1, Msg: fx.msg}); err != nil {
			f.Fatalf("seed encode %s: %v", fx.name, err)
		}
		f.Add(buf.Bytes())
	}
	for _, fx := range viewChangeFixtures() {
		for _, m := range []types.Message{fx.vc, fx.nv} {
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(&Envelope{From: 1, Msg: m}); err != nil {
				f.Fatalf("seed encode %T: %v", m, err)
			}
			f.Add(buf.Bytes())
		}
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			t.Skip("oversized input; the interesting space is framing and type info")
		}
		dec := gob.NewDecoder(bytes.NewReader(data))
		// Decode a few envelopes from the same stream, as readLoop does:
		// gob carries type definitions across messages, so stream state
		// is part of the attack surface, not just a single value.
		for i := 0; i < 4; i++ {
			var env Envelope
			if err := dec.Decode(&env); err != nil {
				return
			}
			_ = env.From
			if env.Msg != nil {
				_ = env.Msg.Kind()
			}
		}
	})
}

// FuzzWireRoundTrip re-encodes whatever decodes: any envelope the wire
// accepts must survive encode→decode with its kind intact, or relaying
// (ForwardMsg) would silently corrupt messages.
func FuzzWireRoundTrip(f *testing.F) {
	for _, m := range wireMessages {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&Envelope{From: 2, Msg: m}); err != nil {
			f.Fatalf("seed encode %T: %v", m, err)
		}
		f.Add(buf.Bytes())
	}
	// The shared ordering and view-change messages nest batches,
	// certificates and interface-typed evidence lists: seed them populated
	// too.
	for _, fx := range orderingFixtures() {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&Envelope{From: 2, Msg: fx.msg}); err != nil {
			f.Fatalf("seed encode %s: %v", fx.name, err)
		}
		f.Add(buf.Bytes())
	}
	for _, fx := range viewChangeFixtures() {
		for _, m := range []types.Message{fx.vc, fx.nv} {
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(&Envelope{From: 2, Msg: m}); err != nil {
				f.Fatalf("seed encode %T: %v", m, err)
			}
			f.Add(buf.Bytes())
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			t.Skip("oversized input")
		}
		var env Envelope
		if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&env); err != nil {
			return
		}
		if env.Msg == nil {
			return
		}
		kind := env.Msg.Kind()
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&env); err != nil {
			t.Fatalf("decoded envelope does not re-encode: %v", err)
		}
		var back Envelope
		if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&back); err != nil {
			t.Fatalf("re-encoded envelope does not decode: %v", err)
		}
		if back.From != env.From || back.Msg == nil || back.Msg.Kind() != kind {
			t.Fatalf("round trip changed the envelope: %+v vs %+v", env, back)
		}
	})
}

// frameStream encodes envelopes the way wireConn.writeEnvelope does: a
// persistent gob stream whose per-Encode output is length-prefixed.
func frameStream(tb testing.TB, envs ...*Envelope) []byte {
	tb.Helper()
	var payload bytes.Buffer
	enc := gob.NewEncoder(&payload)
	var out bytes.Buffer
	for _, env := range envs {
		payload.Reset()
		if err := enc.Encode(env); err != nil {
			tb.Fatalf("seed encode: %v", err)
		}
		var hdr [frameHeaderLen]byte
		binary.BigEndian.PutUint32(hdr[:], uint32(payload.Len()))
		out.Write(hdr[:])
		out.Write(payload.Bytes())
	}
	return out.Bytes()
}

// FuzzFrameStream feeds arbitrary bytes through the exact read path
// readLoop runs — frame bound, per-frame decode, desync detection. The
// contract under attack: any input either yields well-formed envelopes
// or an error; never a panic, and never an allocation past the frame
// bound. Seeds cover valid multi-envelope streams, truncations, hostile
// lengths, and trailing garbage inside a frame.
func FuzzFrameStream(f *testing.F) {
	f.Add(frameStream(f, &Envelope{From: 1}))
	f.Add(frameStream(f,
		&Envelope{From: 1},
		&Envelope{From: 2, Msg: wireMessages[0]},
		&Envelope{From: 2, Msg: wireMessages[1]},
	))
	// Hostile lengths: zero, over-bound, and a huge declaration with no
	// payload behind it.
	hostile := make([]byte, frameHeaderLen)
	f.Add(hostile)
	binary.BigEndian.PutUint32(hostile, 1<<31)
	f.Add(append([]byte{}, hostile...))
	// Valid frame followed by a corrupted copy of itself.
	valid := frameStream(f, &Envelope{From: 3, Msg: wireMessages[2]})
	corrupt := append(append([]byte{}, valid...), valid...)
	if len(corrupt) > frameHeaderLen+4 {
		corrupt[len(valid)+frameHeaderLen+2] ^= 0xff
	}
	f.Add(corrupt)

	const maxFrame = 1 << 16
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<18 {
			t.Skip("oversized input; the interesting space is framing and stream state")
		}
		fr := newFrameReader(bytes.NewReader(data), maxFrame)
		dec := gob.NewDecoder(fr)
		for i := 0; i < 16; i++ {
			if err := fr.next(); err != nil {
				return
			}
			if got := len(fr.buf); got == 0 || got > maxFrame {
				t.Fatalf("frame of %d bytes escaped the (0, %d] bound", got, maxFrame)
			}
			var env Envelope
			if err := dec.Decode(&env); err != nil {
				return
			}
			if fr.remaining() != 0 {
				return // desync detected: readLoop drops the conn here
			}
			if env.Msg != nil {
				_ = env.Msg.Kind()
			}
		}
	})
}

var _ = types.NodeID(0)
