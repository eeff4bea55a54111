package byz

import (
	"reflect"

	"bftkit/internal/types"
)

// sigDigester matches the repository-wide convention for signed
// protocol messages: SigDigest returns the digest the Sig field covers.
type sigDigester interface {
	SigDigest() types.Digest
}

// ReplaceBatch returns a deep-enough copy of m with its batch replaced
// by mut(batch). It understands the repository's message conventions by
// reflection, so one mutator serves every protocol:
//
//   - a `Batch *types.Batch` field at the top level (core.ProposeMsg,
//     the proposal of the eight stable-leader protocols, Tendermint's
//     ProposalMsg, …) or one pointer-to-struct level down (HotStuff's
//     ProposalMsg.Block);
//   - an optional `Digest types.Digest` field that equals the old
//     batch's digest is recomputed for the new batch;
//   - an optional `Sig []byte` field on a message implementing
//     SigDigest() is re-signed via sign, covering the mutated content.
//
// The original message is never modified (proposers keep pointers into
// their own log). ok is false when m carries no batch, or when mut leaves
// it as it is (ForkBatch does an empty one) — such messages pass through
// unchanged, which keeps generic behaviors best-effort rather than
// protocol-specific.
func ReplaceBatch(m types.Message, mut func(*types.Batch) *types.Batch, sign func(types.Digest) []byte) (types.Message, bool) {
	pv := reflect.ValueOf(m)
	if pv.Kind() != reflect.Ptr || pv.IsNil() || pv.Elem().Kind() != reflect.Struct {
		return m, false
	}
	clone := reflect.New(pv.Elem().Type())
	clone.Elem().Set(pv.Elem())

	host := clone.Elem() // struct holding the Batch field
	bf := host.FieldByName("Batch")
	if !batchField(bf) {
		// One nesting level: a pointer-to-struct field carrying the batch.
		host = reflect.Value{}
		for i := 0; i < clone.Elem().NumField(); i++ {
			f := clone.Elem().Field(i)
			if f.Kind() != reflect.Ptr || f.IsNil() || f.Elem().Kind() != reflect.Struct || !f.CanSet() {
				continue
			}
			if inner := f.Elem().FieldByName("Batch"); batchField(inner) {
				nested := reflect.New(f.Elem().Type())
				nested.Elem().Set(f.Elem())
				clone.Elem().Field(i).Set(nested)
				host = nested.Elem()
				bf = host.FieldByName("Batch")
				break
			}
		}
		if !host.IsValid() {
			return m, false
		}
	}

	oldBatch := bf.Interface().(*types.Batch)
	newBatch := mut(oldBatch)
	if newBatch == nil || newBatch == oldBatch {
		return m, false
	}
	bf.Set(reflect.ValueOf(newBatch))

	digestType := reflect.TypeOf(types.Digest{})
	for _, sv := range []reflect.Value{host, clone.Elem()} {
		if !sv.IsValid() {
			continue
		}
		if df := sv.FieldByName("Digest"); df.IsValid() && df.Type() == digestType && df.CanSet() {
			if df.Interface().(types.Digest) == oldBatch.Digest() {
				df.Set(reflect.ValueOf(newBatch.Digest()))
			}
		}
	}

	out := clone.Interface().(types.Message)
	if sd, ok := out.(sigDigester); ok && sign != nil {
		if sf := clone.Elem().FieldByName("Sig"); sf.IsValid() && sf.Type() == reflect.TypeOf([]byte(nil)) && sf.CanSet() && sf.Len() > 0 {
			sf.Set(reflect.ValueOf(sign(sd.SigDigest())))
		}
	}
	return out, true
}

func batchField(v reflect.Value) bool {
	return v.IsValid() && v.Type() == reflect.TypeOf((*types.Batch)(nil)) && !v.IsNil() && v.CanSet()
}

// ForkBatch is the canonical equivocation mutator: it returns a batch
// over the same validly-signed client requests whose digest differs
// from the original (reversed order, or the single request duplicated).
// It is deterministic, so every target of one equivocation sees the
// same alternative history. An empty batch has no requests to reorder and
// is returned as it is.
func ForkBatch(b *types.Batch) *types.Batch {
	if b == nil || b.Len() == 0 {
		return b
	}
	rs := make([]*types.Request, len(b.Requests))
	copy(rs, b.Requests)
	if len(rs) == 1 {
		rs = append(rs, rs[0])
	} else {
		for i, j := 0, len(rs)-1; i < j; i, j = i+1, j-1 {
			rs[i], rs[j] = rs[j], rs[i]
		}
	}
	return types.NewBatch(rs...)
}
