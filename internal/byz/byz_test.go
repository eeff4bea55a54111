package byz_test

import (
	"fmt"
	"testing"
	"time"

	"bftkit/internal/byz"
	"bftkit/internal/core"
	"bftkit/internal/crypto"
	"bftkit/internal/protocols/hotstuff"
	"bftkit/internal/types"
)

func req(i int) *types.Request {
	return &types.Request{Client: types.ClientIDBase, ClientSeq: uint64(i), Op: []byte(fmt.Sprintf("op%d", i))}
}

func TestForkBatchChangesDigestDeterministically(t *testing.T) {
	for _, reqs := range [][]*types.Request{
		{req(1)},
		{req(1), req(2), req(3)},
	} {
		b := types.NewBatch(reqs...)
		f1, f2 := byz.ForkBatch(b), byz.ForkBatch(b)
		if f1.Digest() == b.Digest() {
			t.Fatalf("fork of %d-request batch kept the digest", len(reqs))
		}
		if f1.Digest() != f2.Digest() {
			t.Fatal("fork is not deterministic")
		}
		// Same validly-signed requests, no fabricated ones.
		for _, r := range f1.Requests {
			found := false
			for _, orig := range reqs {
				if r == orig {
					found = true
				}
			}
			if !found {
				t.Fatal("fork introduced a request not in the original batch")
			}
		}
	}
}

func TestReplaceBatchTopLevel(t *testing.T) {
	auth := crypto.NewAuthority(7)
	signer := auth.Signer(0)
	b := types.NewBatch(req(1), req(2))
	orig := &core.ProposeMsg{View: 3, Seq: 9, Digest: b.Digest(), Batch: b, Sig: []byte("x")}
	orig.Sig = signer.Sign(orig.SigDigest())

	mm, ok := byz.ReplaceBatch(orig, byz.ForkBatch, signer.Sign)
	if !ok {
		t.Fatal("ReplaceBatch did not find the batch")
	}
	alt := mm.(*core.ProposeMsg)
	if alt == orig || alt.Batch == orig.Batch {
		t.Fatal("ReplaceBatch mutated the original message")
	}
	if orig.Digest != b.Digest() || orig.Batch.Digest() != b.Digest() {
		t.Fatal("original message changed")
	}
	if alt.Digest != alt.Batch.Digest() || alt.Digest == orig.Digest {
		t.Fatal("Digest field not recomputed for the forked batch")
	}
	if alt.View != orig.View || alt.Seq != orig.Seq {
		t.Fatal("unrelated fields changed")
	}
	// The equivocation must be validly signed — receivers can't tell it
	// from an honest proposal by authentication alone.
	if !auth.VerifierFor(1).VerifySig(0, alt.SigDigest(), alt.Sig) {
		t.Fatal("forked message is not validly re-signed")
	}
}

func TestReplaceBatchNested(t *testing.T) {
	auth := crypto.NewAuthority(7)
	signer := auth.Signer(0)
	b := types.NewBatch(req(1))
	blk := &hotstuff.Block{View: 1, Height: 4, Batch: b}
	orig := &hotstuff.ProposalMsg{Block: blk, Sig: signer.Sign((&hotstuff.ProposalMsg{Block: blk}).SigDigest())}

	mm, ok := byz.ReplaceBatch(orig, byz.ForkBatch, signer.Sign)
	if !ok {
		t.Fatal("ReplaceBatch did not find the nested batch")
	}
	alt := mm.(*hotstuff.ProposalMsg)
	if alt.Block == orig.Block {
		t.Fatal("nested Block not cloned")
	}
	if orig.Block.Batch != b {
		t.Fatal("original nested batch changed")
	}
	if alt.Block.Digest() == orig.Block.Digest() {
		t.Fatal("forked block digest unchanged")
	}
	if alt.Block.Height != orig.Block.Height || alt.Block.View != orig.Block.View {
		t.Fatal("unrelated nested fields changed")
	}
	if !auth.VerifierFor(1).VerifySig(0, alt.SigDigest(), alt.Sig) {
		t.Fatal("nested fork not validly re-signed")
	}
}

func TestReplaceBatchPassesThroughBatchlessMessages(t *testing.T) {
	if _, ok := byz.ReplaceBatch(&core.ProposeMsg{Batch: types.NewBatch()}, byz.ForkBatch, nil); ok {
		t.Fatal("empty batch should pass through")
	}
	if _, ok := byz.ReplaceBatch(&hotstuff.ProposalMsg{Block: &hotstuff.Block{}}, byz.ForkBatch, nil); ok {
		t.Fatal("batchless block should pass through")
	}
}

func TestParseCatalogRoundTrip(t *testing.T) {
	for _, e := range byz.Catalog() {
		b, err := byz.Parse(e.Name)
		if err != nil {
			t.Fatalf("Parse(%q): %v", e.Name, err)
		}
		if b.Name() != e.Name {
			t.Fatalf("Parse(%q).Name() = %q", e.Name, b.Name())
		}
		if a := b.New(); a == nil {
			t.Fatalf("%q produced a nil actor", e.Name)
		}
	}
	if _, err := byz.Parse("delay:2ms"); err != nil {
		t.Fatalf("delay with argument: %v", err)
	}
	if _, err := byz.Parse("nope"); err == nil {
		t.Fatal("unknown behavior must error")
	}
	if _, err := byz.Parse("delay:bogus"); err == nil {
		t.Fatal("bad duration must error")
	}
}

func TestCombinatorNames(t *testing.T) {
	b := byz.Compose(byz.Equivocate{}, byz.Targeted{Inner: byz.CorruptResults{Stuff: true}, Only: []types.NodeID{2}})
	if got, want := b.Name(), "equivocate+targeted(stuff)"; got != want {
		t.Fatalf("Name() = %q, want %q", got, want)
	}
	if b.New() == nil {
		t.Fatal("composite actor nil")
	}
	if d := (byz.DelayProposals{Delay: 3 * time.Millisecond}).Name(); d != "delay" {
		t.Fatalf("delay name %q", d)
	}
}
