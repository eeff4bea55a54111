package transport

import (
	"encoding/binary"
	"fmt"
	"io"

	"bftkit/internal/wire"
)

// Length-prefixed framing for the wire codec (internal/wire). Each frame
// is a 4-byte big-endian payload length, then the payload: the sender,
// the kind tag and the message's fields. A remote peer controls the
// length, so the frame layer bounds it before reading a byte of payload:
// an empty or oversized frame is rejected, and the codec decodes strictly
// within the frame it is given, refusing one it under- or over-consumes.
// A rejected frame costs the connection, never the node.

// DefaultMaxFrame bounds one frame's payload (header excluded).
// Large enough for any batch the protocols build, small enough that a
// hostile stream cannot make the decoder balloon.
const DefaultMaxFrame = 4 << 20

// frameSizeError reports a frame whose length violates the bound. It is
// distinguished from plain I/O errors so the reject counter only counts
// hostile/corrupt input, not ordinary disconnects.
type frameSizeError struct {
	declared uint32
	max      int
}

func (e frameSizeError) Error() string {
	return fmt.Sprintf("transport: frame of %d bytes violates bound (0, %d]", e.declared, e.max)
}

// isFrameViolation reports whether err is a framing-contract breach (as
// opposed to a benign disconnect).
func isFrameViolation(err error) bool {
	_, ok := err.(frameSizeError)
	return ok
}

// frameReader yields one frame's payload at a time from r, reusing one
// buffer: the codec copies out whatever a decoded message keeps.
type frameReader struct {
	r   io.Reader
	max int
	hdr [wire.HeaderLen]byte
	buf []byte
}

func newFrameReader(r io.Reader, max int) *frameReader {
	return &frameReader{r: r, max: max}
}

// next loads the next frame's payload into buf. It returns the raw I/O
// error on disconnect and frameSizeError when the declared length
// violates the bound.
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
	_, err := io.ReadFull(f.r, f.buf)
	return err
}

// size is the current frame's wire size, header included — the length of
// the frame the sender wrote.
func (f *frameReader) size() int { return wire.HeaderLen + len(f.buf) }
