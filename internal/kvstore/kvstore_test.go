package kvstore

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"

	"bftkit/internal/types"
)

func TestOpCodecRoundTrip(t *testing.T) {
	ops := []*Op{
		{Code: OpGet, Key: "k"},
		{Code: OpPut, Key: "k", Value: []byte("v")},
		{Code: OpDelete, Key: "k"},
		{Code: OpAdd, Key: "k", Delta: -42},
		{Code: OpCAS, Key: "k", Expected: []byte("old"), Value: []byte("new")},
		{Code: OpNoop},
	}
	for _, op := range ops {
		got, err := Decode(op.Encode())
		if err != nil {
			t.Fatalf("decode %v: %v", op.Code, err)
		}
		if got.Code != op.Code || got.Key != op.Key || !bytes.Equal(got.Value, op.Value) ||
			!bytes.Equal(got.Expected, op.Expected) || got.Delta != op.Delta {
			t.Fatalf("round trip mismatch: %+v vs %+v", op, got)
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	for _, raw := range [][]byte{nil, {}, {99}, {byte(OpPut), 0, 0, 0, 5, 'a'}} {
		if _, err := Decode(raw); err == nil {
			t.Fatalf("garbage %v decoded", raw)
		}
	}
}

func TestBasicOps(t *testing.T) {
	s := New()
	if got := s.Apply(Put("a", []byte("1"))); !bytes.Equal(got, ResultOK) {
		t.Fatalf("put: %q", got)
	}
	if got := s.Apply(Get("a")); !bytes.Equal(got, []byte("1")) {
		t.Fatalf("get: %q", got)
	}
	if got := s.Apply(Get("missing")); !bytes.Equal(got, ResultNotFound) {
		t.Fatalf("missing get: %q", got)
	}
	if got := s.Apply(Add("ctr", 5)); binary.BigEndian.Uint64(got) != 5 {
		t.Fatalf("add: %v", got)
	}
	if got := s.Apply(Add("ctr", -2)); binary.BigEndian.Uint64(got) != 3 {
		t.Fatalf("add: %v", got)
	}
	if got := s.Apply(CAS("a", []byte("1"), []byte("2"))); !bytes.Equal(got, ResultOK) {
		t.Fatalf("cas: %q", got)
	}
	if got := s.Apply(CAS("a", []byte("1"), []byte("3"))); !bytes.Equal(got, ResultCASFail) {
		t.Fatalf("stale cas: %q", got)
	}
	s.Apply(Delete("a"))
	if _, ok := s.GetValue("a"); ok {
		t.Fatal("delete failed")
	}
}

func TestDeterministicHash(t *testing.T) {
	a, b := New(), New()
	// Apply the same ops in the same order; interleave keys so map
	// iteration order would differ if it leaked.
	for i := 0; i < 100; i++ {
		op := Put(string(rune('a'+i%7))+"x", []byte{byte(i)})
		a.Apply(op)
		b.Apply(op)
	}
	if a.Hash() != b.Hash() {
		t.Fatal("same history, different hash")
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	s := New()
	for i := 0; i < 50; i++ {
		s.Apply(Put(string(rune('a'+i)), []byte{byte(i), byte(i + 1)}))
	}
	snap := s.Snapshot()
	r := New()
	if err := r.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if r.Hash() != s.Hash() {
		t.Fatal("restore does not reproduce the state hash")
	}
}

func TestRestoreRejectsGarbage(t *testing.T) {
	if err := New().Restore([]byte{1, 2}); err == nil {
		t.Fatal("garbage snapshot accepted")
	}
}

func TestSpecApplyRollbackIdentity(t *testing.T) {
	// Property: apply-then-rollback is the identity on the state hash.
	f := func(seed int64, nops uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		for i := 0; i < 20; i++ {
			s.Apply(Put(key(rng), val(rng)))
		}
		before := s.Hash()
		depth := s.SpecDepth()
		for i := 0; i < int(nops%32); i++ {
			s.SpecApply(randomOp(rng))
		}
		s.Rollback(depth)
		return s.Hash() == before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPromoteMakesSpeculationPermanent(t *testing.T) {
	s := New()
	s.SpecApply(Put("x", []byte("1")))
	s.SpecApply(Put("y", []byte("2")))
	s.Promote(1) // x becomes permanent
	s.Rollback(0)
	if _, ok := s.GetValue("x"); !ok {
		t.Fatal("promoted write rolled back")
	}
	if _, ok := s.GetValue("y"); ok {
		t.Fatal("unpromoted write survived rollback")
	}

	// Property: promoting slot by slot (the undo log shifts in place each
	// time) and then rolling back leaves exactly the promoted prefix —
	// the state a store reaches by committing those operations alone.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s, want := New(), New()
		for i := 0; i < 10; i++ {
			op := Put(key(rng), val(rng))
			s.Apply(op)
			want.Apply(op)
		}
		ops := make([][]byte, 1+rng.Intn(24))
		depths := make([]int, len(ops)) // undo depth after each operation
		for i := range ops {
			ops[i] = randomOp(rng)
			_, depths[i] = s.SpecApply(ops[i])
		}
		promoted, kept := 0, rng.Intn(len(ops)+1)
		for i := 0; i < kept; {
			step := 1 + rng.Intn(kept-i)
			s.Promote(depths[i+step-1] - promoted)
			promoted = depths[i+step-1]
			i += step
		}
		for _, op := range ops[:kept] {
			want.Apply(op)
		}
		if s.SpecDepth() != depths[len(ops)-1]-promoted {
			return false
		}
		s.Rollback(0)
		return s.SpecDepth() == 0 && s.Hash() == want.Hash() && bytes.Equal(s.Snapshot(), want.Snapshot())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRollbackPartial(t *testing.T) {
	s := New()
	s.Apply(Put("k", []byte("committed")))
	_, d1 := s.SpecApply(Put("k", []byte("spec1")))
	s.SpecApply(Put("k", []byte("spec2")))
	s.Rollback(d1)
	if v, _ := s.GetValue("k"); !bytes.Equal(v, []byte("spec1")) {
		t.Fatalf("partial rollback landed on %q", v)
	}
	s.Rollback(0)
	if v, _ := s.GetValue("k"); !bytes.Equal(v, []byte("committed")) {
		t.Fatalf("full rollback landed on %q", v)
	}
}

func TestConflictDetection(t *testing.T) {
	cases := []struct {
		a, b []byte
		want bool
	}{
		{Put("x", nil), Put("x", nil), true},
		{Put("x", nil), Get("x"), true},
		{Get("x"), Get("x"), false},
		{Put("x", nil), Put("y", nil), false},
		{CAS("x", nil, nil), Put("x", nil), true},
		{Add("x", 1), Delete("x"), true},
		{Noop(), Put("x", nil), false},
	}
	for i, c := range cases {
		if got := Conflicts(c.a, c.b); got != c.want {
			t.Fatalf("case %d: Conflicts = %v, want %v", i, got, c.want)
		}
		if got := Conflicts(c.b, c.a); got != c.want {
			t.Fatalf("case %d reversed: Conflicts = %v, want %v", i, got, c.want)
		}
	}
}

func TestKeys(t *testing.T) {
	r, w, err := Keys(CAS("k", nil, nil))
	if err != nil || len(r) != 1 || len(w) != 1 {
		t.Fatalf("cas keys: %v %v %v", r, w, err)
	}
	r, w, _ = Keys(Get("k"))
	if len(r) != 1 || len(w) != 0 {
		t.Fatalf("get keys: %v %v", r, w)
	}
}

func key(rng *rand.Rand) string { return string(rune('a' + rng.Intn(10))) }
func val(rng *rand.Rand) []byte { return []byte{byte(rng.Intn(256))} }

func randomOp(rng *rand.Rand) []byte {
	switch rng.Intn(5) {
	case 0:
		return Put(key(rng), val(rng))
	case 1:
		return Delete(key(rng))
	case 2:
		return Add(key(rng), int64(rng.Intn(10)-5))
	case 3:
		return CAS(key(rng), val(rng), val(rng))
	default:
		return Get(key(rng))
	}
}

// TestGoldenModelEquivalence drives the store and a plain map with the
// same random operation sequence and compares every result — the
// deterministic-state-machine contract, property-tested.
func TestGoldenModelEquivalence(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		model := make(map[string][]byte)
		for i := 0; i < int(n); i++ {
			op, _ := Decode(randomOp(rng))
			got := s.Apply(op.Encode())
			switch op.Code {
			case OpGet:
				want, ok := model[op.Key]
				if !ok {
					want = ResultNotFound
				}
				if !bytes.Equal(got, want) {
					return false
				}
			case OpPut:
				model[op.Key] = append([]byte(nil), op.Value...)
			case OpDelete:
				delete(model, op.Key)
			case OpAdd:
				cur := int64(0)
				if v, ok := model[op.Key]; ok && len(v) == 8 {
					cur = int64(binary.BigEndian.Uint64(v))
				}
				cur += op.Delta
				b := make([]byte, 8)
				binary.BigEndian.PutUint64(b, uint64(cur))
				model[op.Key] = b
				if !bytes.Equal(got, b) {
					return false
				}
			case OpCAS:
				cur, ok := model[op.Key]
				if (ok && bytes.Equal(cur, op.Expected)) || (!ok && len(op.Expected) == 0) {
					model[op.Key] = append([]byte(nil), op.Value...)
					if !bytes.Equal(got, ResultOK) {
						return false
					}
				} else if !bytes.Equal(got, ResultCASFail) {
					return false
				}
			}
		}
		// Final states must coincide.
		if s.Len() != len(model) {
			return false
		}
		for k, v := range model {
			got, ok := s.GetValue(k)
			if !ok || !bytes.Equal(got, v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// longOrShort draws a value on either side of the digest length, where
// the state hash switches from the value itself to its leaf digest.
func longOrShort(rng *rand.Rand) []byte {
	sizes := []int{0, 1, 8, 31, 32, 33, 64, 300}
	v := make([]byte, sizes[rng.Intn(len(sizes))])
	rng.Read(v)
	return v
}

// TestHashFollowsEveryWritePath: whatever mix of committed and
// speculative writes, rollbacks, promotions and restores a store has been
// through, and however often it was hashed on the way (each call leaves
// leaf digests cached for the next), Hash equals the hash of a fresh
// store restored from Snapshot, which has no cache to be stale. And a
// different history reaching the same state hashes the same.
func TestHashFollowsEveryWritePath(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		var snaps [][]byte
		check := func(step int) {
			fresh := New()
			if err := fresh.Restore(s.Snapshot()); err != nil {
				t.Fatal(err)
			}
			if got, want := s.Hash(), fresh.Hash(); got != want {
				t.Fatalf("seed %d step %d: hash %v, a fresh store with the same state has %v", seed, step, got, want)
			}
		}
		write := func() []byte {
			k := key(rng)
			switch rng.Intn(4) {
			case 0:
				return Delete(k)
			case 1:
				return Add(k, int64(rng.Intn(9)-4))
			case 2:
				cur, _ := s.GetValue(k) // matches, so the swap happens
				return CAS(k, cur, longOrShort(rng))
			default:
				return Put(k, longOrShort(rng))
			}
		}
		for step := 0; step < 400; step++ {
			switch r := rng.Intn(20); {
			case r < 8:
				s.Apply(write())
			case r < 14:
				s.SpecApply(write())
			case r < 16:
				s.Rollback(rng.Intn(s.SpecDepth() + 1))
			case r < 18:
				s.Promote(rng.Intn(s.SpecDepth() + 1))
			case r < 19:
				snaps = append(snaps, s.Snapshot())
			default:
				if len(snaps) > 0 {
					if err := s.Restore(snaps[rng.Intn(len(snaps))]); err != nil {
						t.Fatal(err)
					}
				}
			}
			if rng.Intn(3) == 0 {
				check(step)
			}
		}
		check(400)

		// Another road to the same state: junk first, then the final
		// pairs one Put at a time in map order.
		other := New()
		for i := 0; i < 20; i++ {
			other.Apply(Put(key(rng)+"-junk", longOrShort(rng)))
		}
		other.Hash()
		for k := range other.data {
			other.Apply(Delete(k))
		}
		for k, v := range s.data {
			other.Apply(Put(k, v))
		}
		if s.Hash() != other.Hash() {
			t.Fatalf("seed %d: two histories reaching the same state hash differently", seed)
		}
	}
}

// TestHashTagsKeepValueAndLeafApart: a 32-byte value that happens to be
// the SHA-256 of a long value must not hash like that long value.
func TestHashTagsKeepValueAndLeafApart(t *testing.T) {
	long := bytes.Repeat([]byte("v"), 100)
	leaf := types.DigestBytes(long)
	a, b := New(), New()
	a.Apply(Put("k", long))
	b.Apply(Put("k", leaf[:]))
	if a.Hash() == b.Hash() {
		t.Fatal("a long value and a short value equal to its digest hash the same")
	}
}

// TestHashReadsOnlyWhatWasWritten: a checkpoint must cost what was
// written since the last one. The test breaks the store's own rule —
// it scribbles into a stored value in place, behind the store's back —
// so that reading that value again would change the hash. It does not:
// Hash only re-reads a key that went through a write.
func TestHashReadsOnlyWhatWasWritten(t *testing.T) {
	s := New()
	for i := 0; i < 64; i++ {
		s.Apply(Put(string(rune('a'+i)), bytes.Repeat([]byte{byte(i)}, 4096)))
	}
	before := s.Hash()
	untouched, _ := s.GetValue("a")
	untouched[0] ^= 0xff
	if s.Hash() != before {
		t.Fatal("Hash re-read a value that was not written since the previous call")
	}
	s.Apply(Put("b", []byte("written")))
	afterWrite := s.Hash()
	if afterWrite == before {
		t.Fatal("Hash missed a write")
	}
	untouched[0] ^= 0xff
	fresh := New()
	if err := fresh.Restore(s.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if fresh.Hash() != afterWrite {
		t.Fatal("incremental hash differs from a from-scratch hash of the same state")
	}
}

// TestFrozenViewIsolation: a frozen view serialises the state as of the
// freeze whatever happens to the store afterwards, because writes replace
// value slices and never write into them.
func TestFrozenViewIsolation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := New()
	for i := 0; i < 40; i++ {
		s.Apply(Put(key(rng)+string(rune('a'+i%4)), longOrShort(rng)))
	}
	s.Apply(Add("counter", 5))
	s.SpecApply(Put("speculative", []byte("pending")))
	wantBytes, wantHash := s.Snapshot(), s.Hash()
	frozen := s.Freeze()

	s.Rollback(0)
	for k := range s.data {
		switch rng.Intn(3) {
		case 0:
			s.Apply(Put(k, longOrShort(rng)))
		case 1:
			s.Apply(Delete(k))
		}
	}
	s.Apply(Add("counter", 1))
	s.Apply(Put("new", bytes.Repeat([]byte("n"), 100)))
	depth := s.SpecDepth()
	s.SpecApply(Put("new", []byte("x")))
	s.SpecApply(Delete("counter"))
	s.Rollback(depth)
	if s.Hash() == wantHash {
		t.Fatal("the store did not move; the test proves nothing")
	}

	got := frozen()
	if !bytes.Equal(got, wantBytes) {
		t.Fatal("frozen view serialised something other than the state at the freeze")
	}
	if !bytes.Equal(frozen(), got) {
		t.Fatal("serialising a frozen view twice gave different bytes")
	}
	r := New()
	if err := r.Restore(got); err != nil {
		t.Fatal(err)
	}
	if r.Hash() != wantHash {
		t.Fatal("frozen view does not restore to the hash taken at the freeze")
	}
}
