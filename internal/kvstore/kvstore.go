// Package kvstore is the deterministic replicated application state used
// by every protocol in this repository (the "database" of the paper's
// Figure 1). It is a versioned key-value store with:
//
//   - a compact binary operation encoding (Get/Put/Delete/Add/CAS),
//   - speculative execution with an undo log, required by the
//     speculative protocols (Zyzzyva DC8, PoE DC7),
//   - read/write-set extraction for conflict detection, required by the
//     optimistic conflict-free protocols (Q/U, DC9),
//   - snapshots, frozen views and a deterministic state hash that costs
//     what was written since it was last taken, required by
//     checkpointing and state transfer (P4) and by the harness's safety
//     auditor, which asserts all honest replicas converge to the same
//     hash.
//
// Determinism: iteration order never leaks into results or hashes; the
// hash sorts keys. Applying the same operations in the same order always
// yields the same state hash on every replica.
package kvstore

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"

	"bftkit/internal/types"
)

// OpCode selects the operation type.
type OpCode byte

// Operation codes understood by the store.
const (
	OpGet OpCode = iota
	OpPut
	OpDelete
	OpAdd // 64-bit counter increment; creates the key at 0 if absent
	OpCAS // compare-and-swap: swap iff current value equals expected
	OpNoop
)

// Results returned for boolean-ish operations.
var (
	ResultOK       = []byte("ok")
	ResultNotFound = []byte{}
	ResultCASFail  = []byte("cas-fail")
)

// ErrBadOp reports an undecodable operation.
var ErrBadOp = errors.New("kvstore: malformed operation")

// Op is a decoded operation.
type Op struct {
	Code     OpCode
	Key      string
	Value    []byte
	Expected []byte // OpCAS only
	Delta    int64  // OpAdd only
}

// Encode serializes the operation into the compact wire form.
func (o *Op) Encode() []byte {
	buf := []byte{byte(o.Code)}
	buf = appendBytes(buf, o.Key)
	switch o.Code {
	case OpPut:
		buf = appendBytes(buf, o.Value)
	case OpCAS:
		buf = appendBytes(buf, o.Expected)
		buf = appendBytes(buf, o.Value)
	case OpAdd:
		var tmp [8]byte
		binary.BigEndian.PutUint64(tmp[:], uint64(o.Delta))
		buf = append(buf, tmp[:]...)
	}
	return buf
}

func appendBytes[T string | []byte](buf []byte, b T) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(b)))
	return append(buf, b...)
}

func readBytes(buf []byte) ([]byte, []byte, error) {
	if len(buf) < 4 {
		return nil, nil, ErrBadOp
	}
	n := binary.BigEndian.Uint32(buf[:4])
	buf = buf[4:]
	if uint32(len(buf)) < n {
		return nil, nil, ErrBadOp
	}
	return buf[:n], buf[n:], nil
}

// Decode parses an encoded operation.
func Decode(raw []byte) (*Op, error) {
	if len(raw) == 0 {
		return nil, ErrBadOp
	}
	o := &Op{Code: OpCode(raw[0])}
	rest := raw[1:]
	key, rest, err := readBytes(rest)
	if err != nil {
		return nil, err
	}
	o.Key = string(key)
	switch o.Code {
	case OpGet, OpDelete, OpNoop:
	case OpPut:
		if o.Value, rest, err = readBytes(rest); err != nil {
			return nil, err
		}
	case OpCAS:
		if o.Expected, rest, err = readBytes(rest); err != nil {
			return nil, err
		}
		if o.Value, rest, err = readBytes(rest); err != nil {
			return nil, err
		}
	case OpAdd:
		if len(rest) < 8 {
			return nil, ErrBadOp
		}
		o.Delta = int64(binary.BigEndian.Uint64(rest[:8]))
		rest = rest[8:]
	default:
		return nil, fmt.Errorf("%w: code %d", ErrBadOp, raw[0])
	}
	_ = rest
	return o, nil
}

// Convenience encoders used by workloads, examples, and tests.

// Get encodes a read of key.
func Get(key string) []byte { return (&Op{Code: OpGet, Key: key}).Encode() }

// Put encodes a write of key=value.
func Put(key string, value []byte) []byte {
	return (&Op{Code: OpPut, Key: key, Value: value}).Encode()
}

// Delete encodes a removal of key.
func Delete(key string) []byte { return (&Op{Code: OpDelete, Key: key}).Encode() }

// Add encodes a counter increment.
func Add(key string, delta int64) []byte {
	return (&Op{Code: OpAdd, Key: key, Delta: delta}).Encode()
}

// CAS encodes a compare-and-swap.
func CAS(key string, expected, value []byte) []byte {
	return (&Op{Code: OpCAS, Key: key, Expected: expected, Value: value}).Encode()
}

// Noop encodes an operation with no state effect (view-change fillers).
func Noop() []byte { return (&Op{Code: OpNoop}).Encode() }

// Keys returns the read and write sets of an encoded operation without
// applying it. Q/U-style protocols (DC9) use this for conflict checks.
func Keys(raw []byte) (reads, writes []string, err error) {
	o, err := Decode(raw)
	if err != nil {
		return nil, nil, err
	}
	switch o.Code {
	case OpGet:
		return []string{o.Key}, nil, nil
	case OpPut, OpDelete, OpAdd:
		return nil, []string{o.Key}, nil
	case OpCAS:
		return []string{o.Key}, []string{o.Key}, nil
	default:
		return nil, nil, nil
	}
}

// Conflicts reports whether two encoded operations touch overlapping
// state with at least one writer (the paper's "concurrent requests update
// disjoint sets of data objects" assumption a4).
func Conflicts(a, b []byte) bool {
	ra, wa, err := Keys(a)
	if err != nil {
		return true // undecodable ops conservatively conflict
	}
	rb, wb, err := Keys(b)
	if err != nil {
		return true
	}
	overlap := func(xs, ys []string) bool {
		for _, x := range xs {
			for _, y := range ys {
				if x == y {
					return true
				}
			}
		}
		return false
	}
	return overlap(wa, wb) || overlap(wa, rb) || overlap(ra, wb)
}

// undoRecord restores one key to its prior state.
type undoRecord struct {
	key     string
	existed bool
	prior   []byte
}

// Store is the deterministic key-value state machine. It is not
// goroutine-safe; the replica runtime serializes access.
//
// A stored value is never modified in place: every write installs a fresh
// slice through set. Undo records, frozen views (Freeze) and the leaf
// cache all rest on that — they keep the slice, not a copy of it.
type Store struct {
	data map[string][]byte
	// leaves caches the digest of each value longer than a digest, which
	// is how such a value enters Hash. set drops a key's entry; Hash
	// fills in the missing ones, so hashing costs what was written since
	// the last call. Nil until a long value is hashed.
	leaves map[string]types.Digest
	// undo holds reverse records for speculatively applied operations,
	// newest last. Committed operations leave no undo records.
	undo    []undoRecord
	applied uint64 // total ops applied (committed + speculative)
}

// New returns an empty store.
func New() *Store { return &Store{data: make(map[string][]byte)} }

// Len returns the number of live keys.
func (s *Store) Len() int { return len(s.data) }

// AppliedOps returns the total number of operations applied.
func (s *Store) AppliedOps() uint64 { return s.applied }

// GetValue reads a key directly (examples and tests). The slice is the
// store's own and must not be modified: undo records, frozen views and
// cached leaf digests share it.
func (s *Store) GetValue(key string) ([]byte, bool) {
	v, ok := s.data[key]
	return v, ok
}

// set is the one place a key's value changes: v becomes the value, or the
// key is removed when present is false. Every write path — Put, Delete,
// Add, CAS and Rollback — goes through it, which is what keeps the leaf
// cache honest. v must be a slice nobody else will write to.
func (s *Store) set(key string, v []byte, present bool) {
	if present {
		s.data[key] = v
	} else {
		delete(s.data, key)
	}
	delete(s.leaves, key)
}

func (s *Store) apply(raw []byte, recordUndo bool) []byte {
	o, err := Decode(raw)
	if err != nil {
		return []byte("err:" + err.Error())
	}
	s.applied++
	switch o.Code {
	case OpGet:
		if v, ok := s.data[o.Key]; ok {
			return append([]byte(nil), v...)
		}
		return ResultNotFound
	case OpNoop:
		return ResultOK
	case OpPut:
		if recordUndo {
			s.pushUndo(o.Key)
		}
		s.set(o.Key, append([]byte(nil), o.Value...), true)
		return ResultOK
	case OpDelete:
		if recordUndo {
			s.pushUndo(o.Key)
		}
		s.set(o.Key, nil, false)
		return ResultOK
	case OpAdd:
		if recordUndo {
			s.pushUndo(o.Key)
		}
		cur := int64(0)
		if v, ok := s.data[o.Key]; ok && len(v) == 8 {
			cur = int64(binary.BigEndian.Uint64(v))
		}
		cur += o.Delta
		var tmp [8]byte
		binary.BigEndian.PutUint64(tmp[:], uint64(cur))
		s.set(o.Key, tmp[:], true)
		return append([]byte(nil), tmp[:]...)
	case OpCAS:
		cur, ok := s.data[o.Key]
		curMatches := (ok && string(cur) == string(o.Expected)) || (!ok && len(o.Expected) == 0)
		if !curMatches {
			return ResultCASFail
		}
		if recordUndo {
			s.pushUndo(o.Key)
		}
		s.set(o.Key, append([]byte(nil), o.Value...), true)
		return ResultOK
	}
	return ResultNotFound
}

func (s *Store) pushUndo(key string) {
	prior, existed := s.data[key]
	s.undo = append(s.undo, undoRecord{key: key, existed: existed, prior: prior})
}

// Apply executes one committed operation and returns its result.
func (s *Store) Apply(raw []byte) []byte { return s.apply(raw, false) }

// SpecApply executes one operation speculatively: state changes take
// effect immediately but can be reverted with Rollback. Returns the
// result and the undo-stack depth after the call.
func (s *Store) SpecApply(raw []byte) ([]byte, int) {
	res := s.apply(raw, true)
	return res, len(s.undo)
}

// SpecDepth returns the current undo-stack depth.
func (s *Store) SpecDepth() int { return len(s.undo) }

// Promote discards the oldest k undo records, making those speculative
// operations permanent (the protocol learned they committed). The rest
// shift down in place; the vacated tail is cleared so the priors it held
// can be collected.
func (s *Store) Promote(k int) {
	if k > len(s.undo) {
		k = len(s.undo)
	}
	n := copy(s.undo, s.undo[k:])
	clear(s.undo[n:])
	s.undo = s.undo[:n]
}

// Rollback reverts speculative operations until the undo stack has depth
// target (newest first), undoing everything the protocol must discard.
func (s *Store) Rollback(target int) {
	if target < 0 {
		target = 0
	}
	for len(s.undo) > target {
		rec := s.undo[len(s.undo)-1]
		s.undo[len(s.undo)-1] = undoRecord{} // let the prior be collected
		s.undo = s.undo[:len(s.undo)-1]
		s.set(rec.key, rec.prior, rec.existed)
		s.applied--
	}
}

// How a value enters the state hash.
const (
	hashValue = iota // the value itself, when no longer than a digest
	hashLeaf         // the SHA-256 of the value
)

// Hash returns the deterministic digest of the full state: the number of
// keys, then per key in sorted order the key and its value — the value
// itself under the hashValue tag when it is no longer than a digest, its
// SHA-256 under the hashLeaf tag otherwise. The tag keeps a 32-byte value
// apart from a long value that hashes to it. Leaf digests are cached per
// key, so only values written since the previous call are read again;
// short values need no cache because the leaf would be no smaller than
// the value.
func (s *Store) Hash() types.Digest {
	keys := make([]string, 0, len(s.data))
	for k := range s.data {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var h types.Hasher
	h.U64(uint64(len(keys)))
	for _, k := range keys {
		h.Str(k)
		v := s.data[k]
		if len(v) <= len(types.Digest{}) {
			h.U64(hashValue).Bytes(v)
			continue
		}
		leaf, ok := s.leaves[k]
		if !ok {
			leaf = types.DigestBytes(v)
			if s.leaves == nil {
				s.leaves = make(map[string]types.Digest)
			}
			s.leaves[k] = leaf
		}
		h.U64(hashLeaf).Digest(leaf)
	}
	return h.Sum()
}

// frozenPair is one key of a frozen view; the value slice is the store's.
type frozenPair struct {
	key   string
	value []byte
}

// Freeze captures the current state without serialising it and returns
// the serialiser: called any time later, it yields the Snapshot of the
// state as it was at the freeze. Holding it costs a string header and a
// slice header per key, whatever the values weigh; later writes do not
// show through because they replace value slices and never write into
// them.
func (s *Store) Freeze() func() []byte {
	pairs := make([]frozenPair, 0, len(s.data))
	for k, v := range s.data {
		pairs = append(pairs, frozenPair{k, v})
	}
	return func() []byte { return serialize(pairs) }
}

// serialize sorts pairs by key and writes them in the form Restore reads.
func serialize(pairs []frozenPair) []byte {
	slices.SortFunc(pairs, func(a, b frozenPair) int { return cmp.Compare(a.key, b.key) })
	size := 4
	for _, p := range pairs {
		size += 8 + len(p.key) + len(p.value)
	}
	buf := binary.BigEndian.AppendUint32(make([]byte, 0, size), uint32(len(pairs)))
	for _, p := range pairs {
		buf = appendBytes(buf, p.key)
		buf = appendBytes(buf, p.value)
	}
	return buf
}

// Snapshot serializes the full state (sorted, deterministic).
func (s *Store) Snapshot() []byte { return s.Freeze()() }

// Restore replaces the state with a snapshot produced by Snapshot. Any
// speculative undo records are discarded.
func (s *Store) Restore(snap []byte) error {
	if len(snap) < 4 {
		return ErrBadOp
	}
	n := binary.BigEndian.Uint32(snap[:4])
	rest := snap[4:]
	data := make(map[string][]byte, n)
	for i := uint32(0); i < n; i++ {
		var k, v []byte
		var err error
		if k, rest, err = readBytes(rest); err != nil {
			return err
		}
		if v, rest, err = readBytes(rest); err != nil {
			return err
		}
		data[string(k)] = append([]byte(nil), v...)
	}
	s.data, s.leaves, s.undo = data, nil, nil
	return nil
}
