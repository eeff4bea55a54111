package obsv

import (
	"bftkit/internal/types"
	"bftkit/internal/wire"
)

// Sizer lets a message define its own accounted wire size; messages
// carrying quorum certificates implement it so the threshold-signature
// size model holds (crypto.Certificate.EncodedSize). Messages without it
// are measured by the codec the TCP transport frames them with
// (wire.Size), so simulator byte accounting and real wire bytes are one
// definition.
type Sizer interface {
	EncodedSize() int
}

// SizeOf returns the accounted wire size of a message: EncodedSize when
// the message models its own size, else its encoded kind tag and fields
// — the frame less its length prefix and sender. It does not allocate.
func SizeOf(m types.Message) int {
	if s, ok := m.(Sizer); ok {
		return s.EncodedSize()
	}
	return wire.Size(m)
}
