package transport

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"reflect"
	"testing"

	"bftkit/internal/core"
	"bftkit/internal/crypto"
	"bftkit/internal/protocols/zyzzyva"
	"bftkit/internal/types"
)

// fill populates every exported field of v with a distinct non-zero
// value so a lossy encoding shows up as a mismatch, not as two equal
// zero values. Depth-limited so (future) self-referential message types
// terminate; beyond the limit pointers stay nil, which round-trips.
func fill(v reflect.Value, seed *uint64, depth int) {
	next := func() uint64 { *seed++; return *seed }
	switch v.Kind() {
	case reflect.Ptr:
		// Allocate even at the depth limit: gob rejects nil elements
		// inside a slice of pointers, and a zero struct round-trips.
		if v.IsNil() {
			v.Set(reflect.New(v.Type().Elem()))
		}
		if depth > 0 {
			fill(v.Elem(), seed, depth-1)
		}
	case reflect.Struct:
		if depth <= 0 {
			return
		}
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).PkgPath != "" {
				continue // unexported: not gob's job
			}
			fill(v.Field(i), seed, depth)
		}
	case reflect.Slice:
		if depth <= 0 {
			return // nil slice round-trips
		}
		n := 2
		v.Set(reflect.MakeSlice(v.Type(), n, n))
		for i := 0; i < n; i++ {
			fill(v.Index(i), seed, depth-1)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fill(v.Index(i), seed, depth)
		}
	case reflect.Map:
		if depth <= 0 {
			return
		}
		v.Set(reflect.MakeMap(v.Type()))
		k := reflect.New(v.Type().Key()).Elem()
		e := reflect.New(v.Type().Elem()).Elem()
		fill(k, seed, depth-1)
		fill(e, seed, depth-1)
		v.SetMapIndex(k, e)
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", next()))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(next()%120) + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(next()%120 + 1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(float64(next()) + 0.5)
	}
	// Interfaces, chans, and funcs are left untouched: a concrete value
	// for an interface field cannot be invented generically, and nil
	// round-trips.
}

// TestWireMessagesRoundTrip proves every registered message kind
// survives the Envelope encode/decode cycle with all exported fields
// intact — the wire contract the TCP deployment path depends on. A
// message type added to a protocol but not to wireMessages fails the
// TCP path at runtime; keeping the list and this test in lockstep is
// the point. The two view-change kinds the eight stable-leader protocols
// share are also sent populated the way each of those protocols
// populates them (viewChangeFixtures).
func TestWireMessagesRoundTrip(t *testing.T) {
	if len(wireMessages) < 60 {
		t.Fatalf("wireMessages lists %d types; the protocol suite defines more — list truncated?", len(wireMessages))
	}
	seen := make(map[string]bool)
	for _, proto := range wireMessages {
		m := reflect.New(reflect.TypeOf(proto).Elem())
		seed := uint64(0) // per message, so a kind built from a filled string keeps its name
		fill(m, &seed, 6)
		msg := m.Interface().(types.Message)
		kind := msg.Kind()
		if seen[kind] {
			t.Errorf("duplicate message kind %q in wireMessages", kind)
		}
		seen[kind] = true
		t.Run(kind, func(t *testing.T) { roundTrip(t, msg) })
	}
	for _, fx := range viewChangeFixtures() {
		for _, msg := range []types.Message{fx.vc, fx.nv} {
			t.Run(fx.protocol+"-"+msg.Kind(), func(t *testing.T) { roundTrip(t, msg) })
		}
	}
}

func roundTrip(t *testing.T, msg types.Message) {
	var buf bytes.Buffer
	env := Envelope{From: 3, Msg: msg}
	if err := gob.NewEncoder(&buf).Encode(&env); err != nil {
		t.Fatalf("encode: %v", err)
	}
	var got Envelope
	if err := gob.NewDecoder(&buf).Decode(&got); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.From != 3 {
		t.Fatalf("From = %v", got.From)
	}
	if reflect.TypeOf(got.Msg) != reflect.TypeOf(env.Msg) {
		t.Fatalf("type changed: sent %T, got %T", env.Msg, got.Msg)
	}
	if got.Msg.Kind() != msg.Kind() {
		t.Fatalf("kind changed: sent %q, got %q", msg.Kind(), got.Msg.Kind())
	}
	if !reflect.DeepEqual(got.Msg, env.Msg) {
		t.Fatalf("fields lost in transit:\nsent %+v\ngot  %+v", env.Msg, got.Msg)
	}
	// What the sender signed is what the receiver verifies.
	if signed, ok := msg.(core.Evidence); ok && signed.SigDigest() != got.Msg.(core.Evidence).SigDigest() {
		t.Fatal("the signed digest changed in transit")
	}
}

// viewChangeFixture is the shared view-change / new-view pair as one
// protocol populates it.
type viewChangeFixture struct {
	protocol string
	vc       *core.ViewChangeMsg
	nv       *core.NewViewMsg
}

// viewChangeFixtures covers what the seven protocols that used to have
// view-change kinds of their own put into the shared messages: committed
// slots with (SBFT) and without a certificate, carried slots with a
// certificate (PoE, SBFT, Kauri) and on the sender's word (FaB, CheapBFT,
// Themis, Zyzzyva), Zyzzyva's client certificate as evidence — an
// interface-typed field fill leaves nil — and re-issued slots including a
// no-op. PBFT's shape (certificate plus leader signature, no committed
// slots) is what fill produces for the plain kinds.
func viewChangeFixtures() []viewChangeFixture {
	batch := types.NewBatch(&types.Request{Client: types.ClientIDBase, ClientSeq: 7, Op: []byte("put"), Sig: []byte{1}})
	cert := &crypto.Certificate{Digest: types.Digest{9}, Signers: []types.NodeID{0, 2, 3}, Sigs: [][]byte{{1}, {2}, {3}}}
	build := func(protocol string, committedCert, carriedCert *crypto.Certificate, evidence ...core.Evidence) viewChangeFixture {
		vc := &core.ViewChangeMsg{
			NewView: 2, Base: 5, Stable: 4, Replica: 3, Sig: []byte{7},
			Committed: []core.CommittedSlot{{View: 1, Seq: 5, Batch: batch, Voters: []types.NodeID{0, 1, 2}, Cert: committedCert}},
			Carried: []core.CarriedSlot{
				{View: 1, Seq: 6, Digest: batch.Digest(), Batch: batch, Cert: carriedCert},
				{View: 1, Seq: 8, Digest: batch.Digest(), Batch: batch, Cert: carriedCert},
			},
			Evidence: evidence,
		}
		nv := &core.NewViewMsg{
			View: 2, Base: 5, ViewChanges: []*core.ViewChangeMsg{vc, vc, vc}, Sig: []byte{6},
			Committed: vc.Committed,
			Reissued: []core.CarriedSlot{
				{View: 2, Seq: 6, Digest: batch.Digest(), Batch: batch, LeaderSig: []byte{5}},
				{View: 2, Seq: 7, Digest: types.ZeroDigest, Batch: types.NewBatch(), LeaderSig: []byte{4}},
				{View: 2, Seq: 8, Digest: batch.Digest(), Batch: batch, LeaderSig: []byte{3}},
			},
		}
		return viewChangeFixture{protocol, vc, nv}
	}
	return []viewChangeFixture{
		build("CHEAP", nil, nil),
		build("FAB", nil, nil),
		build("KAURI", nil, cert),
		build("POE", nil, cert),
		build("SBFT", cert, cert),
		build("THEMIS", nil, nil),
		build("ZYZ", nil, nil, &zyzzyva.CommitMsg{Client: types.ClientIDBase, ClientSeq: 7, Seq: 6, View: 1,
			History: types.Digest{4}, Result: []byte("ok"), Cert: cert}),
	}
}
