package wire

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"bftkit/internal/types"
)

// leaf covers the scalar encodings, and a field the codec must skip.
type leaf struct {
	B      bool
	U8     uint8
	I16    int16
	I      int
	S      string
	Raw    []byte
	D      [4]byte
	Pair   [2]uint32
	hidden int
}

func (*leaf) Kind() string { return "LEAF" }

// marked is the interface tree's Child field holds: tree implements it,
// leaf does not.
type marked interface {
	types.Message
	mark()
}

type tree struct {
	Child  marked
	Leaves []*leaf
	Vals   []leaf
	Ptr    *leaf
	Any    types.Message
}

func (*tree) Kind() string { return "TREE" }
func (*tree) mark()        {}

func init() { Register(&leaf{}, &tree{}) }

func sample() *tree {
	l := &leaf{B: true, U8: 200, I16: -300, I: -1 << 40, S: "s", Raw: []byte{1, 2}, D: [4]byte{9}, Pair: [2]uint32{1, 1 << 31}}
	return &tree{
		Child:  &tree{Leaves: []*leaf{{U8: 1}}},
		Leaves: []*leaf{l, {}},
		Vals:   []leaf{*l},
		Ptr:    l,
		Any:    &leaf{S: "any"},
	}
}

func TestRoundTripIsCanonical(t *testing.T) {
	m := sample()
	frame, err := AppendFrame(nil, 7, m)
	if err != nil {
		t.Fatal(err)
	}
	if FrameSize(7, m) != len(frame) {
		t.Fatalf("FrameSize %d, frame %d bytes", FrameSize(7, m), len(frame))
	}
	from, got, err := Decode(frame[HeaderLen:])
	if err != nil || from != 7 {
		t.Fatalf("Decode: from %v, %v", from, err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("got %+v\nwant %+v", got, m)
	}
	again, _ := AppendFrame(nil, from, got)
	if !bytes.Equal(again, frame) {
		t.Fatalf("re-encoded %x, want %x", again, frame)
	}
}

// TestUnexportedFieldsSkipped: an unexported field neither costs a byte
// nor crosses the wire.
func TestUnexportedFieldsSkipped(t *testing.T) {
	if Size(&leaf{hidden: 1 << 40}) != Size(&leaf{}) {
		t.Fatal("an unexported field changed the size")
	}
	frame, err := AppendFrame(nil, 1, &leaf{hidden: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, m, err := Decode(frame[HeaderLen:]); err != nil || m.(*leaf).hidden != 0 {
		t.Fatalf("decoded %+v, %v", m, err)
	}
}

// TestRejectsOutOfRange: a varint wider than its field is refused, not
// truncated.
func TestRejectsOutOfRange(t *testing.T) {
	frame, _ := AppendFrame(nil, 1, &leaf{})
	p := bytes.Clone(frame[HeaderLen:])
	p[3] = 0x80 // U8: the one-byte 0 becomes the first byte of 256
	p = append(p[:4], append([]byte{0x02}, p[4:]...)...)
	if _, _, err := Decode(p); !errors.Is(err, ErrRange) {
		t.Fatalf("U8 = 256: %v", err)
	}
}

// TestEncodeRefusals: what has no frame.
func TestEncodeRefusals(t *testing.T) {
	for _, c := range []struct {
		m    types.Message
		want error
	}{
		{&tree{Any: unregistered{}}, ErrUnregistered},
		{(*leaf)(nil), ErrNilMessage},
		{&tree{Child: (*tree)(nil)}, ErrNilMessage},
		{&tree{Leaves: []*leaf{nil}}, ErrNilElem},
	} {
		if frame, err := AppendFrame([]byte{1}, 1, c.m); !errors.Is(err, c.want) || len(frame) != 1 {
			t.Errorf("%#v: %v (%d bytes left), want %v", c.m, err, len(frame), c.want)
		}
	}
	if _, m, err := Decode([]byte{1, 0}); err != nil || m != nil {
		t.Fatalf("a nil message: %v, %v", m, err)
	}
}

type unregistered struct{ F map[string]int }

func (unregistered) Kind() string { return "UNREGISTERED" }

// TestSizeOfAnyMessage: Size measures a type that was never registered,
// passed by value, with a field the codec has no encoding for.
func TestSizeOfAnyMessage(t *testing.T) {
	if got := Size(unregistered{F: map[string]int{"a": 1}}); got != 1 {
		t.Fatalf("Size = %d, want the tag alone", got)
	}
	// An interface field costs the size of the message it holds, which
	// replaces the nil tag.
	for _, m := range []types.Message{unregistered{}, &leaf{S: "abc"}} {
		if got, want := Size(&tree{Any: m}), Size(&tree{})-1+Size(m); got != want {
			t.Fatalf("Size with %T = %d, want %d", m, got, want)
		}
	}
}

func TestRegisterRefusesLossyKinds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("registered a kind with a map field")
		}
	}()
	Register(&unregistered{})
}
