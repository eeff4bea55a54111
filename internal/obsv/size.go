package obsv

import (
	"encoding/gob"
	"reflect"
	"sync"

	"bftkit/internal/types"
)

// Sizer lets a message define its own accounted wire size; messages
// carrying quorum certificates implement it so the threshold-signature
// size model holds (crypto.Certificate.EncodedSize). Messages without it
// are measured through the same gob encoding the TCP transport puts on
// the wire, so simulator byte accounting and real wire bytes agree.
type Sizer interface {
	EncodedSize() int
}

// fallbackSize is charged for messages gob cannot encode (only possible
// for test doubles with unexported or unencodable fields).
const fallbackSize = 64

// countWriter counts bytes written and discards them.
type countWriter struct{ n int }

func (w *countWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }

// typeEncoder keeps one persistent gob stream per concrete message type.
// gob sends a type descriptor once per stream — exactly as the TCP
// transport does once per connection — so after priming, each Encode
// yields the message's steady-state wire size instead of re-charging
// descriptors per message (which a fresh encoder per call would do).
type typeEncoder struct {
	enc    *gob.Encoder
	cw     *countWriter
	primed bool
}

var sizeState = struct {
	sync.Mutex
	byType map[reflect.Type]*typeEncoder
}{byType: make(map[reflect.Type]*typeEncoder)}

// SizeOf returns the accounted wire size of a message: EncodedSize when
// the message models its own size, else the steady-state gob encoding
// size (per-connection type descriptors excluded). Unencodable messages
// are charged a nominal fallback rather than failing the run.
func SizeOf(m types.Message) int {
	if s, ok := m.(Sizer); ok {
		return s.EncodedSize()
	}
	rt := reflect.TypeOf(m)
	sizeState.Lock()
	defer sizeState.Unlock()
	te := sizeState.byType[rt]
	if te == nil {
		cw := &countWriter{}
		te = &typeEncoder{enc: gob.NewEncoder(cw), cw: cw}
		sizeState.byType[rt] = te
	}
	if !te.primed {
		// First encode of this type carries the descriptor; prime the
		// stream so the charged size is payload only.
		if err := te.enc.Encode(m); err != nil {
			return fallbackSize
		}
		te.primed = true
	}
	start := te.cw.n
	if err := te.enc.Encode(m); err != nil {
		return fallbackSize
	}
	return te.cw.n - start
}
