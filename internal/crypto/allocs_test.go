//go:build !race

package crypto

import (
	"testing"

	"bftkit/internal/types"
)

// TestAllocsMAC holds the authenticators to their output: a MAC allocates
// its tag and nothing else, a MAC check allocates nothing, and a vector
// over four replicas allocates its slice headers and one array of tags.
func TestAllocsMAC(t *testing.T) {
	auth := NewAuthority(3)
	s, v := auth.Signer(1), auth.VerifierFor(2)
	d := types.DigestBytes([]byte("allocs"))
	tag := s.MAC(2, d) // derives the pair's pads
	peers := []types.NodeID{0, 1, 2, 3}
	s.AuthVector(d, peers)
	if n := testing.AllocsPerRun(100, func() { s.MAC(2, d) }); n > 1 {
		t.Errorf("MAC: %v allocs, want ≤ 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { v.VerifyMAC(1, 2, d, tag) }); n != 0 {
		t.Errorf("VerifyMAC: %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { s.AuthVector(d, peers) }); n > 2 {
		t.Errorf("AuthVector over 4 replicas: %v allocs, want ≤ 2", n)
	}
}
