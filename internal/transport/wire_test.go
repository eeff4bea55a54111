package transport

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"bftkit/internal/core"
	"bftkit/internal/crypto"
	"bftkit/internal/protocols/themis"
	"bftkit/internal/protocols/zyzzyva"
	"bftkit/internal/types"
	"bftkit/internal/wire"
)

// fill populates every exported field of v with a distinct non-zero
// value so a lossy encoding shows up as a mismatch, not as two equal
// zero values. Depth-limited so (future) self-referential message types
// terminate; beyond the limit pointers stay nil, which round-trips.
func fill(v reflect.Value, seed *uint64, depth int) {
	next := func() uint64 { *seed++; return *seed }
	switch v.Kind() {
	case reflect.Ptr:
		// Allocate even at the depth limit: the codec refuses nil
		// elements inside a slice of pointers, and a zero struct
		// round-trips.
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
				continue // unexported: not the codec's job
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
// survives the codec's encode/decode cycle with all exported fields
// intact, and re-encodes to the same bytes — the wire contract the TCP
// deployment path depends on. A
// message type added to a protocol but not to wireMessages fails the
// TCP path at runtime; keeping the list and this test in lockstep is
// the point. The ordering and view-change messages the eight
// stable-leader protocols share are also sent populated the way each of
// those protocols populates them (orderingFixtures, viewChangeFixtures).
func TestWireMessagesRoundTrip(t *testing.T) {
	if len(wireMessages) < 40 {
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
	for _, fx := range orderingFixtures() {
		t.Run(fx.name, func(t *testing.T) { roundTrip(t, fx.msg) })
	}
	for _, fx := range viewChangeFixtures() {
		for _, msg := range []types.Message{fx.vc, fx.nv} {
			t.Run(fx.protocol+"-"+msg.Kind(), func(t *testing.T) { roundTrip(t, msg) })
		}
	}
}

// TestTransportLinksEveryProtocol: node binaries reach the protocols
// through this package, so every registration must be linked here, also
// those whose packages declare no message of their own.
func TestTransportLinksEveryProtocol(t *testing.T) {
	for _, name := range []string{"pbft", "pbft-mac", "poe", "sbft", "zyzzyva", "zyzzyva5", "fab", "cheapbft",
		"kauri", "themis", "hotstuff", "hotstuff2", "tendermint", "prime", "qu", "chain", "raftlite"} {
		if _, ok := core.Lookup(name); !ok {
			t.Errorf("protocol %q is not linked by the transport", name)
		}
	}
}

func roundTrip(t *testing.T, msg types.Message) {
	frame, err := wire.AppendFrame(nil, 3, msg)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if size := wire.FrameSize(3, msg); size != len(frame) {
		t.Fatalf("FrameSize %d, frame %d bytes", size, len(frame))
	}
	from, got, err := wire.Decode(frame[wire.HeaderLen:])
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if from != 3 {
		t.Fatalf("From = %v", from)
	}
	if reflect.TypeOf(got) != reflect.TypeOf(msg) {
		t.Fatalf("type changed: sent %T, got %T", msg, got)
	}
	if got.Kind() != msg.Kind() {
		t.Fatalf("kind changed: sent %q, got %q", msg.Kind(), got.Kind())
	}
	if !reflect.DeepEqual(got, msg) {
		t.Fatalf("fields lost in transit:\nsent %+v\ngot  %+v", msg, got)
	}
	again, err := wire.AppendFrame(nil, from, got)
	if err != nil || !bytes.Equal(again, frame) {
		t.Fatalf("the decoded message re-encodes differently (%v):\nsent %x\nagain %x", err, frame, again)
	}
	// What the sender signed is what the receiver verifies.
	if signed, ok := msg.(core.Evidence); ok && signed.SigDigest() != got.(core.Evidence).SigDigest() {
		t.Fatal("the signed digest changed in transit")
	}
}

// orderingFixture is one shared ordering message as one protocol sends
// it, named by what that protocol calls the message.
type orderingFixture struct {
	name string
	msg  types.Message
}

// orderingFixtures covers every (type, stage) the eight stable-leader
// protocols send: proposals signed (and, for PBFT in MAC mode, carrying an
// authenticator vector with no entry for the sender), Themis's with its
// signed reports as evidence; votes at each protocol's stages; certificate
// broadcasts at each of SBFT's, PoE's and Kauri's; and the checkpoint
// message PoE and Zyzzyva send their history digest in.
func orderingFixtures() []orderingFixture {
	req := &types.Request{Client: types.ClientIDBase, ClientSeq: 7, Op: []byte("put"), Sig: []byte{1}}
	batch := types.NewBatch(req)
	d := batch.Digest()
	sig := []byte{7, 7}
	propose := func(view types.View, leader types.NodeID, evidence ...core.Evidence) *core.ProposeMsg {
		return &core.ProposeMsg{View: view, Seq: 5, Digest: d, Batch: batch, Evidence: evidence, Leader: leader, Sig: sig}
	}
	vote := func(stage core.Stage) *core.VoteMsg {
		return &core.VoteMsg{Stage: stage, View: 1, Seq: 5, Digest: d, Replica: 2, Sig: sig}
	}
	cert := func(stage core.Stage, signers ...types.NodeID) *core.CertMsg {
		c := &crypto.Certificate{Digest: types.Digest{9}, Threshold: true}
		for _, id := range signers {
			c.Add(id, []byte{byte(id), 1})
		}
		return &core.CertMsg{Stage: stage, View: 1, Seq: 5, Digest: d, Cert: c, Leader: 1, Sig: sig}
	}
	macVote := vote(core.StageCommit)
	macVote.Sig, macVote.Auth = nil, [][]byte{{1}, {2}, nil, {3}}
	checkpoint := &core.CheckpointMsg{Seq: 128, StateHash: types.Digest{4}, Replica: 2, Sig: sig}
	report := func(origin types.NodeID) core.Evidence {
		return &themis.ReportMsg{Origin: origin, RSeq: 3, Reqs: []*types.Request{req}, Sig: []byte{byte(origin)}}
	}
	return []orderingFixture{
		{"PRE-PREPARE", propose(1, 1)},
		{"PREPARE", vote(core.StagePrepare)},
		{"COMMIT", macVote},
		{"SBFT-PRE-PREPARE", propose(0, 0)},
		{"SBFT-SHARE-sign", vote(core.StageSign)},
		{"SBFT-SHARE-commit", vote(core.StageCommit)},
		{"SBFT-PROOF-prepare", cert(core.StagePrepare, 0, 1, 3)},
		{"SBFT-PROOF-commit", cert(core.StageCommit, 1, 2, 3)},
		{"SBFT-PROOF-fast-commit", cert(core.StageFastCommit, 0, 1, 2, 3)},
		{"ORDER-REQ", propose(1, 1)},
		{"ZYZ-CHECKPOINT", checkpoint},
		{"POE-PROPOSE", propose(1, 1)},
		{"POE-SHARE", vote(core.StageShare)},
		{"POE-CERTIFY", cert(core.StageShare, 0, 1, 2)},
		{"POE-CHECKPOINT", checkpoint},
		{"CHEAP-PROPOSE", propose(1, 1)},
		{"CHEAP-VOTE", vote(core.StageCommit)},
		{"FAB-PROPOSE", propose(1, 1)},
		{"FAB-ACCEPT", vote(core.StageAccept)},
		{"KAURI-PROPOSE", propose(1, 1)},
		{"KAURI-CERT-prepare", cert(core.StagePrepare, 1, 3, 0)},
		{"KAURI-CERT-commit", cert(core.StageCommit, 1, 2, 0)},
		{"THEMIS-PROPOSE", propose(1, 1, report(0), report(2), report(3), report(4))},
		{"THEMIS-prepare", vote(core.StagePrepare)},
		{"THEMIS-commit", vote(core.StageCommit)},
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
