package transport

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Length-prefixed framing for the gob stream. gob's own wire format is
// self-delimiting, but its message lengths are attacker-controlled: a
// remote peer can declare a multi-gigabyte value and drip-feed it, or
// desynchronize the stream so the decoder misreads garbage as type
// descriptors. The frame layer bounds every envelope before the decoder
// sees a single byte of it: each Encode call's output (type descriptors
// included, the first time a concrete type crosses the stream) is
// prefixed with a 4-byte big-endian length, and the reader rejects any
// frame that is empty, oversized, or that the decoder under- or
// over-consumes. A rejected frame costs the connection, never the node.

// DefaultMaxFrame bounds one envelope on the wire (header excluded).
// Large enough for any batch the protocols build, small enough that a
// hostile stream cannot make the decoder balloon.
const DefaultMaxFrame = 4 << 20

// frameHeaderLen is the size of the length prefix.
const frameHeaderLen = 4

// frameSizeError reports a frame whose declared length violates the
// bound. It is distinguished from plain I/O errors so the reject
// counter only counts hostile/corrupt input, not ordinary disconnects.
type frameSizeError struct {
	declared uint32
	max      int
}

func (e frameSizeError) Error() string {
	return fmt.Sprintf("transport: frame of %d bytes violates bound (0, %d]", e.declared, e.max)
}

// frameDesyncError reports a frame whose payload did not line up with
// exactly one gob-encoded envelope — stream corruption or a hostile
// writer packing trailing garbage after a valid value.
type frameDesyncError struct{ leftover int }

func (e frameDesyncError) Error() string {
	if e.leftover > 0 {
		return fmt.Sprintf("transport: %d unconsumed bytes after envelope in frame", e.leftover)
	}
	return "transport: envelope spans past its frame"
}

// isFrameViolation reports whether err is a framing-contract breach (as
// opposed to a benign disconnect).
func isFrameViolation(err error) bool {
	switch err.(type) {
	case frameSizeError, frameDesyncError:
		return true
	}
	return false
}

// frameReader yields one frame at a time from r and serves the gob
// decoder's reads strictly from the current frame: a decode that tries
// to read past the frame end fails with frameDesyncError instead of
// silently running into the next frame.
type frameReader struct {
	r   io.Reader
	max int
	hdr [frameHeaderLen]byte
	buf []byte
	off int
}

func newFrameReader(r io.Reader, max int) *frameReader {
	return &frameReader{r: r, max: max}
}

// next loads the next frame. It returns the raw I/O error on disconnect
// and frameSizeError when the declared length violates the bound.
func (f *frameReader) next() error {
	if _, err := io.ReadFull(f.r, f.hdr[:]); err != nil {
		return err
	}
	n := binary.BigEndian.Uint32(f.hdr[:])
	if n == 0 || n > uint32(f.max) {
		return frameSizeError{declared: n, max: f.max}
	}
	if cap(f.buf) < int(n) {
		f.buf = make([]byte, n)
	}
	f.buf = f.buf[:n]
	if _, err := io.ReadFull(f.r, f.buf); err != nil {
		return err
	}
	f.off = 0
	return nil
}

// remaining reports how many bytes of the current frame are unread.
func (f *frameReader) remaining() int { return len(f.buf) - f.off }

// size is the current frame's wire size, header included — what the
// writer's writeEnvelope returned for the same frame.
func (f *frameReader) size() int { return frameHeaderLen + len(f.buf) }

// Read serves the gob decoder from the current frame only.
func (f *frameReader) Read(p []byte) (int, error) {
	if f.off >= len(f.buf) {
		return 0, frameDesyncError{}
	}
	n := copy(p, f.buf[f.off:])
	f.off += n
	return n, nil
}
