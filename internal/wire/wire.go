// Package wire is the message codec of the TCP transport: one stateless,
// canonical encoding for every registered message kind, read off each
// type's exported fields by reflection. No code is written per kind, and
// a frame depends on nothing but its message and sender, so one frame can
// be encoded once and written to every recipient.
//
// A frame is
//
//	length  4 bytes, big-endian: the size of everything after it
//	sender  uvarint
//	kind    1 byte: the message type's registration tag, 0 for nil
//	fields  the message's exported fields, in declaration order
//
// and a field is encoded by its kind:
//
//   - unsigned integers as uvarints, signed ones as zig-zag uvarints;
//   - a bool as one byte, 0 or 1;
//   - a string, a byte slice or any other slice as a uvarint length, then
//     the bytes or the elements; a zero length decodes as nil;
//   - an array as its elements, with no length;
//   - a pointer as a presence byte (0 nil, 1 present), then the pointee; an
//     element of a slice of pointers must be present;
//   - an interface as a kind tag (0 nil), then the concrete message's
//     fields.
//
// Unexported fields are skipped. Decoding is canonical: whatever Decode
// accepts re-encodes to the same bytes. So it rejects a non-minimal varint,
// an integer too wide for its field, a bool or presence byte other than 0
// or 1, an unknown tag, a tag whose type does not implement the interface
// of the field it fills, a nil element of a slice of pointers, trailing
// bytes, and nesting deeper than MaxDepth. Every length is checked against
// the bytes left in the frame before anything is allocated, and what a
// frame allocates is charged against a budget proportional to its length
// (MaxExpansion).
package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"reflect"
	"sync"

	"bftkit/internal/types"
)

// HeaderLen is the size of a frame's length prefix.
const HeaderLen = 4

// MaxDepth bounds how many structs a frame may nest. The protocols nest
// five deep (a new view's view change's committed slot's batch's
// request); interface fields let a hostile frame nest without end, and
// the decoder recurses once per level.
const MaxDepth = 16

// MaxExpansion bounds the memory a frame decodes into, per byte of its
// payload. Beyond the message's own struct, every slice (n × element
// size), string, pointee and interface value the decoder allocates is
// charged against one budget of MaxExpansion × the payload length, so
// nesting cannot multiply the bound. Without it a vector of empty byte
// strings costs 1 byte each on the wire and 24 in memory. Real messages
// carry digests and signatures and stay far below the bound.
const MaxExpansion = 16

// Decode errors: each is a frame the decoder refuses.
var (
	ErrShort     = errors.New("wire: frame ends before the value does")
	ErrVarint    = errors.New("wire: non-minimal or overlong varint")
	ErrRange     = errors.New("wire: integer out of range for its field")
	ErrBool      = errors.New("wire: bool or presence byte other than 0 or 1")
	ErrTag       = errors.New("wire: unknown kind tag")
	ErrInterface = errors.New("wire: kind does not implement the field's interface")
	ErrNilElem   = errors.New("wire: nil element in a slice of pointers")
	ErrTrailing  = errors.New("wire: trailing bytes after the message")
	ErrDepth     = errors.New("wire: nesting deeper than MaxDepth")
	ErrMemory    = errors.New("wire: frame decodes to more than MaxExpansion bytes per frame byte")
)

// Encode errors: each is a message that has no frame.
var (
	ErrUnregistered = errors.New("wire: message type is not registered")
	ErrNilMessage   = errors.New("wire: nil pointer held by a message interface")
)

// opKind is how one value is encoded.
type opKind uint8

const (
	opBool opKind = iota
	opUint
	opInt
	opString
	opBytes
	opByteArray
	opArray
	opSlice
	opPtr
	opStruct
	opIface
	opNone // a kind with no encoding: a map, float, complex, channel or function
)

// plan is how values of one type are encoded, built once per type.
type plan struct {
	op     opKind
	typ    reflect.Type
	elem   *plan   // opArray, opSlice, opPtr: the element's plan
	n      int     // opArray, opByteArray: the length
	fields []field // opStruct: the exported fields, in order
	min    int     // the fewest bytes a value encodes to
}

type field struct {
	index int
	p     *plan
}

// plans caches every plan built so far, by type. Readers never lock;
// buildMu serializes building, which happens once per type.
var (
	plans   sync.Map // reflect.Type → *plan
	buildMu sync.Mutex
)

func planOf(rt reflect.Type) *plan {
	if p, ok := plans.Load(rt); ok {
		return p.(*plan)
	}
	buildMu.Lock()
	defer buildMu.Unlock()
	building := make(map[reflect.Type]*plan)
	p := build(rt, building)
	for t, bp := range building {
		plans.Store(t, bp)
	}
	return p
}

// build makes rt's plan. building holds the plans under construction, so a
// type that reaches itself through a pointer, slice or interface gets the
// one plan.
func build(rt reflect.Type, building map[reflect.Type]*plan) *plan {
	if p, ok := plans.Load(rt); ok {
		return p.(*plan)
	}
	if p, ok := building[rt]; ok {
		return p
	}
	p := &plan{typ: rt, min: 1}
	building[rt] = p
	switch rt.Kind() {
	case reflect.Bool:
		p.op = opBool
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		p.op = opUint
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		p.op = opInt
	case reflect.String:
		p.op = opString
	case reflect.Slice:
		if rt.Elem().Kind() == reflect.Uint8 {
			p.op = opBytes
			break
		}
		p.op, p.elem = opSlice, build(rt.Elem(), building)
	case reflect.Array:
		p.n = rt.Len()
		if rt.Elem().Kind() == reflect.Uint8 {
			p.op, p.min = opByteArray, p.n
			break
		}
		p.op, p.elem = opArray, build(rt.Elem(), building)
		p.min = p.n * p.elem.min
	case reflect.Pointer:
		p.op, p.elem = opPtr, build(rt.Elem(), building)
	case reflect.Interface:
		p.op = opIface
	case reflect.Struct:
		p.op, p.min = opStruct, 0
		for i := 0; i < rt.NumField(); i++ {
			if f := rt.Field(i); f.IsExported() {
				fp := build(f.Type, building)
				p.fields = append(p.fields, field{index: i, p: fp})
				p.min += fp.min
			}
		}
	default:
		// Encoded as nothing, so Size can measure any message; Register
		// refuses a kind that holds one.
		p.op, p.min = opNone, 0
	}
	return p
}

// registry maps kind tags to message types: tag t is kinds[t-1].
var registry struct {
	kinds []reflect.Type
	plans []*plan // the plan of each kind's struct
	tags  map[reflect.Type]byte
}

// Register assigns the next kind tags to kinds, in order. It must run
// before any frame is encoded or decoded — from an init function — and
// panics on a kind that is not a pointer to a struct, is registered
// twice, or has an exported field of a kind with no encoding.
func Register(kinds ...types.Message) {
	if registry.tags == nil {
		registry.tags = make(map[reflect.Type]byte)
	}
	for _, m := range kinds {
		rt := reflect.TypeOf(m)
		if rt == nil || rt.Kind() != reflect.Pointer || rt.Elem().Kind() != reflect.Struct {
			panic(fmt.Sprintf("wire: kind %T is not a pointer to a struct", m))
		}
		if _, dup := registry.tags[rt]; dup {
			panic(fmt.Sprintf("wire: kind %v registered twice", rt))
		}
		if len(registry.kinds) == 255 {
			panic("wire: more than 255 kinds")
		}
		p := planOf(rt.Elem())
		if lossy(p, make(map[*plan]bool)) {
			panic(fmt.Sprintf("wire: kind %v has a field with no encoding", rt))
		}
		registry.kinds = append(registry.kinds, rt)
		registry.plans = append(registry.plans, p)
		registry.tags[rt] = byte(len(registry.kinds))
	}
}

func lossy(p *plan, seen map[*plan]bool) bool {
	if p == nil || seen[p] {
		return false
	}
	seen[p] = true
	if p.op == opNone || lossy(p.elem, seen) {
		return true
	}
	for _, f := range p.fields {
		if lossy(f.p, seen) {
			return true
		}
	}
	return false
}

// AppendFrame appends the frame of m, sent by from, to dst. On error dst
// is returned unchanged in length. With enough capacity in dst it does
// not allocate.
func AppendFrame(dst []byte, from types.NodeID, m types.Message) ([]byte, error) {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	dst = binary.AppendUvarint(dst, uint64(from))
	var err error
	if m == nil {
		dst = append(dst, 0)
	} else if dst, err = appendTagged(dst, reflect.ValueOf(m), 0); err != nil {
		return dst[:start], err
	}
	binary.BigEndian.PutUint32(dst[start:], uint32(len(dst)-start-HeaderLen))
	return dst, nil
}

// Size is the encoded size of m: its kind tag and its fields, the frame
// without its length prefix and sender. It accepts any message, registered
// or not, and does not allocate once m's type has been seen.
func Size(m types.Message) int {
	if m == nil {
		return 1
	}
	return 1 + sizeTagged(reflect.ValueOf(m), 0)
}

// FrameSize is the length of the frame AppendFrame builds for m from from.
func FrameSize(from types.NodeID, m types.Message) int {
	return HeaderLen + uvarintLen(uint64(from)) + Size(m)
}

// Decode decodes one frame's payload — everything after the length
// prefix. A nil message with no error is a frame that carries none. The
// message owns its memory: nothing in it aliases payload.
func Decode(payload []byte) (types.NodeID, types.Message, error) {
	d := decoder{buf: payload, budget: MaxExpansion * uint64(len(payload))}
	from, err := d.uvarint()
	if err != nil {
		return 0, nil, err
	}
	m, err := d.tagged(nil, 0)
	if err != nil {
		return 0, nil, err
	}
	if d.off != len(d.buf) {
		return 0, nil, ErrTrailing
	}
	if m.IsValid() {
		return types.NodeID(from), m.Interface().(types.Message), nil
	}
	return types.NodeID(from), nil, nil
}

func uvarintLen(x uint64) int { return max(1, (bits.Len64(x)+6)/7) }

func zigzag(x int64) uint64 { return uint64(x<<1) ^ uint64(x>>63) }

// --- encoding ---

// appendTagged appends a registered message held by an interface: its tag,
// then the fields of the struct it points to.
func appendTagged(dst []byte, v reflect.Value, depth int) ([]byte, error) {
	tag, ok := registry.tags[v.Type()]
	if !ok {
		return dst, ErrUnregistered
	}
	if v.IsNil() {
		return dst, ErrNilMessage
	}
	return appendValue(append(dst, tag), registry.plans[tag-1], v.Elem(), depth)
}

func appendValue(dst []byte, p *plan, v reflect.Value, depth int) ([]byte, error) {
	var err error
	switch p.op {
	case opBool:
		if v.Bool() {
			return append(dst, 1), nil
		}
		return append(dst, 0), nil
	case opUint:
		return binary.AppendUvarint(dst, v.Uint()), nil
	case opInt:
		return binary.AppendUvarint(dst, zigzag(v.Int())), nil
	case opString:
		s := v.String()
		return append(binary.AppendUvarint(dst, uint64(len(s))), s...), nil
	case opBytes:
		b := v.Bytes()
		return append(binary.AppendUvarint(dst, uint64(len(b))), b...), nil
	case opByteArray:
		// Registered kinds are pointers, so every array reached from one
		// is addressable.
		return append(dst, v.Bytes()...), nil
	case opArray:
		for i := 0; i < p.n && err == nil; i++ {
			dst, err = appendValue(dst, p.elem, v.Index(i), depth)
		}
		return dst, err
	case opSlice:
		n := v.Len()
		dst = binary.AppendUvarint(dst, uint64(n))
		for i := 0; i < n && err == nil; i++ {
			e := v.Index(i)
			if p.elem.op == opPtr {
				if e.IsNil() {
					return dst, ErrNilElem
				}
				dst, err = appendValue(append(dst, 1), p.elem.elem, e.Elem(), depth)
				continue
			}
			dst, err = appendValue(dst, p.elem, e, depth)
		}
		return dst, err
	case opPtr:
		if v.IsNil() {
			return append(dst, 0), nil
		}
		return appendValue(append(dst, 1), p.elem, v.Elem(), depth)
	case opStruct:
		if depth == MaxDepth {
			return dst, ErrDepth
		}
		for _, f := range p.fields {
			if dst, err = appendValue(dst, f.p, v.Field(f.index), depth+1); err != nil {
				return dst, err
			}
		}
		return dst, nil
	case opIface:
		if v.IsNil() {
			return append(dst, 0), nil
		}
		return appendTagged(dst, v.Elem(), depth)
	}
	return dst, nil // opNone
}

// --- sizing ---

// sizeTagged is appendTagged's length less the tag, for any message type.
func sizeTagged(v reflect.Value, depth int) int {
	if v.Kind() != reflect.Pointer {
		return sizeValue(planOf(v.Type()), v, depth)
	}
	if v.IsNil() {
		return 0
	}
	return sizeValue(planOf(v.Type().Elem()), v.Elem(), depth)
}

func sizeValue(p *plan, v reflect.Value, depth int) int {
	switch p.op {
	case opBool:
		return 1
	case opUint:
		return uvarintLen(v.Uint())
	case opInt:
		return uvarintLen(zigzag(v.Int()))
	case opString, opBytes:
		n := v.Len()
		return uvarintLen(uint64(n)) + n
	case opByteArray:
		return p.n
	case opArray:
		size := 0
		for i := 0; i < p.n; i++ {
			size += sizeValue(p.elem, v.Index(i), depth)
		}
		return size
	case opSlice:
		n := v.Len()
		size := uvarintLen(uint64(n))
		for i := 0; i < n; i++ {
			size += sizeValue(p.elem, v.Index(i), depth)
		}
		return size
	case opPtr:
		if v.IsNil() {
			return 1
		}
		return 1 + sizeValue(p.elem, v.Elem(), depth)
	case opStruct:
		if depth == MaxDepth {
			return 0
		}
		size := 0
		for _, f := range p.fields {
			size += sizeValue(f.p, v.Field(f.index), depth+1)
		}
		return size
	case opIface:
		if v.IsNil() {
			return 1
		}
		return 1 + sizeTagged(v.Elem(), depth)
	}
	return 0 // opNone
}

// --- decoding ---

type decoder struct {
	buf    []byte
	off    int
	budget uint64 // bytes the frame may still allocate
}

// charge takes size bytes of memory from the frame's budget.
func (d *decoder) charge(size uint64) error {
	if size > d.budget {
		return ErrMemory
	}
	d.budget -= size
	return nil
}

func (d *decoder) uvarint() (uint64, error) {
	var x uint64
	for i, s := 0, uint(0); i < binary.MaxVarintLen64; i, s = i+1, s+7 {
		if d.off == len(d.buf) {
			return 0, ErrShort
		}
		b := d.buf[d.off]
		d.off++
		if b < 0x80 {
			if i > 0 && b == 0 || i == binary.MaxVarintLen64-1 && b > 1 {
				return 0, ErrVarint // non-minimal, or past 64 bits
			}
			return x | uint64(b)<<s, nil
		}
		x |= uint64(b&0x7f) << s
	}
	return 0, ErrVarint
}

// flag reads a bool or presence byte.
func (d *decoder) flag() (bool, error) {
	if d.off == len(d.buf) {
		return false, ErrShort
	}
	b := d.buf[d.off]
	d.off++
	if b > 1 {
		return false, ErrBool
	}
	return b == 1, nil
}

// take returns the next n bytes of the frame.
func (d *decoder) take(n int) ([]byte, error) {
	if n > len(d.buf)-d.off {
		return nil, ErrShort
	}
	d.off += n
	return d.buf[d.off-n : d.off], nil
}

// count reads a length whose items encode to at least min bytes each and
// take size bytes each in memory. It refuses the length unless that many
// items fit in what is left of the frame, then charges their memory.
func (d *decoder) count(min int, size uintptr) (int, error) {
	n, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if n > uint64(len(d.buf)-d.off)/uint64(max(min, 1)) {
		return 0, ErrShort
	}
	return int(n), d.charge(n * uint64(size))
}

// tagged reads a kind tag and the message behind it. iface, when not nil,
// is the interface the message's type must implement. It returns the
// zero Value for tag 0.
func (d *decoder) tagged(iface reflect.Type, depth int) (reflect.Value, error) {
	if d.off == len(d.buf) {
		return reflect.Value{}, ErrShort
	}
	tag := int(d.buf[d.off])
	d.off++
	if tag == 0 {
		return reflect.Value{}, nil
	}
	if tag > len(registry.kinds) {
		return reflect.Value{}, ErrTag
	}
	rt := registry.kinds[tag-1]
	if iface != nil && !rt.Implements(iface) {
		return reflect.Value{}, ErrInterface
	}
	if iface != nil { // a nested message; the frame's own is free
		if err := d.charge(uint64(rt.Elem().Size())); err != nil {
			return reflect.Value{}, err
		}
	}
	v := reflect.New(rt.Elem())
	return v, d.value(registry.plans[tag-1], v.Elem(), depth)
}

// value decodes into v, which holds its type's zero value.
func (d *decoder) value(p *plan, v reflect.Value, depth int) error {
	switch p.op {
	case opBool:
		b, err := d.flag()
		v.SetBool(b)
		return err
	case opUint:
		x, err := d.uvarint()
		if err != nil {
			return err
		}
		if v.OverflowUint(x) {
			return ErrRange
		}
		v.SetUint(x)
		return nil
	case opInt:
		x, err := d.uvarint()
		if err != nil {
			return err
		}
		i := int64(x>>1) ^ -int64(x&1)
		if v.OverflowInt(i) {
			return ErrRange
		}
		v.SetInt(i)
		return nil
	case opString, opBytes:
		n, err := d.count(1, 1)
		if err != nil || n == 0 {
			return err
		}
		b, _ := d.take(n)
		if p.op == opString {
			v.SetString(string(b))
		} else {
			v.SetBytes(bytes.Clone(b))
		}
		return nil
	case opByteArray:
		b, err := d.take(p.n)
		if err == nil {
			copy(v.Bytes(), b)
		}
		return err
	case opArray:
		for i := 0; i < p.n; i++ {
			if err := d.value(p.elem, v.Index(i), depth); err != nil {
				return err
			}
		}
		return nil
	case opSlice:
		n, err := d.count(p.elem.min, p.elem.typ.Size())
		if err != nil || n == 0 {
			return err
		}
		v.Grow(n)
		v.SetLen(n)
		for i := 0; i < n; i++ {
			e := v.Index(i)
			if p.elem.op == opPtr {
				err = d.pointee(p.elem, e, depth, ErrNilElem)
			} else {
				err = d.value(p.elem, e, depth)
			}
			if err != nil {
				return err
			}
		}
		return nil
	case opPtr:
		return d.pointee(p, v, depth, nil)
	case opStruct:
		if depth == MaxDepth {
			return ErrDepth
		}
		for _, f := range p.fields {
			if err := d.value(f.p, v.Field(f.index), depth+1); err != nil {
				return err
			}
		}
		return nil
	case opIface:
		m, err := d.tagged(p.typ, depth)
		if err == nil && m.IsValid() {
			v.Set(m)
		}
		return err
	}
	return nil // opNone
}

// pointee reads a presence byte and, when present, a new value for the
// pointer v. absent is the error for a nil pointer, nil where one is fine.
func (d *decoder) pointee(p *plan, v reflect.Value, depth int, absent error) error {
	present, err := d.flag()
	if err != nil {
		return err
	}
	if !present {
		return absent
	}
	if err := d.charge(uint64(p.typ.Elem().Size())); err != nil {
		return err
	}
	nv := reflect.New(p.typ.Elem())
	if err := d.value(p.elem, nv.Elem(), depth); err != nil {
		return err
	}
	v.Set(nv)
	return nil
}
