package core

import (
	"cmp"
	"iter"

	"bftkit/internal/types"
)

// Vote is one authenticated sender's vote at a slot.
type Vote[V any] struct {
	From types.NodeID
	Val  V
}

// Tally is the one vote table every protocol counts quorums with: per
// slot key K (a sequence number, a view, a block digest, a reply's
// content …) it holds at most one vote per authenticated sender, in
// arrival order. Callers pass the transport-authenticated sender — never
// an identity claimed inside the message — so one Byzantine replica is
// one vote however many messages it signs. The zero value is ready to
// use.
//
// V is whatever the vote carries: the voted value itself (a state hash),
// a payload to assemble a certificate from (a signature, a view-change
// message), or struct{} when only presence counts.
type Tally[K comparable, V any] struct {
	slots map[K][]Vote[V]
	// voters is how many senders may vote at a slot, when the owner
	// knows it (NewTally).
	voters int
}

// NewTally returns an empty tally whose vote lists start with room for
// n voters, so a slot's list is allocated once at any cluster size.
func NewTally[K comparable, V any](n int) Tally[K, V] { return Tally[K, V]{voters: n} }

func (t *Tally[K, V]) index(k K, from types.NodeID) int {
	for i, v := range t.slots[k] {
		if v.From == from {
			return i
		}
	}
	return -1
}

// Add records from's vote at slot k and returns the slot's vote count,
// or 0 when from has already voted there: a second vote, matching or
// conflicting, is ignored. Counts therefore rise by exactly one per
// counted vote, so `Add(...) == threshold` is true exactly once per slot.
func (t *Tally[K, V]) Add(k K, from types.NodeID, v V) int {
	if t.index(k, from) >= 0 {
		return 0
	}
	if t.slots == nil {
		t.slots = make(map[K][]Vote[V])
	}
	votes := t.slots[k]
	if votes == nil {
		// Start with room for every voter (at least the smallest
		// cluster's four), not with append's 1-2-4-8 growth.
		votes = make([]Vote[V], 0, max(t.voters, 4))
	}
	votes = append(votes, Vote[V]{From: from, Val: v})
	t.slots[k] = votes
	return len(votes)
}

// Replace is Add for payloads a sender may legitimately reissue (a
// view-change message rebuilt after more slots prepared): a repeat vote
// overwrites the sender's earlier payload in place. The count still
// moves only on a sender's first vote. It returns the slot's vote count.
func (t *Tally[K, V]) Replace(k K, from types.NodeID, v V) int {
	if i := t.index(k, from); i >= 0 {
		t.slots[k][i].Val = v
		return len(t.slots[k])
	}
	return t.Add(k, from, v)
}

// Votes returns slot k's votes in arrival order. The slice is the
// tally's own; callers must not modify it.
func (t *Tally[K, V]) Votes(k K) []Vote[V] { return t.slots[k] }

// Count returns how many distinct senders voted at slot k.
func (t *Tally[K, V]) Count(k K) int { return len(t.slots[k]) }

// All iterates over every slot that holds a vote, in no particular order.
func (t *Tally[K, V]) All() iter.Seq2[K, []Vote[V]] {
	return func(yield func(K, []Vote[V]) bool) {
		for k, votes := range t.slots {
			if !yield(k, votes) {
				return
			}
		}
	}
}

// Delete forgets slot k.
func (t *Tally[K, V]) Delete(k K) { delete(t.slots, k) }

// Prune forgets every slot whose key satisfies drop (typically "at or
// below the new low-water mark / installed view").
func (t *Tally[K, V]) Prune(drop func(K) bool) {
	for k := range t.slots {
		if drop(k) {
			delete(t.slots, k)
		}
	}
}

// Senders returns the senders of a vote list, in arrival order.
func Senders[V any](votes []Vote[V]) []types.NodeID {
	ids := make([]types.NodeID, len(votes))
	for i, v := range votes {
		ids[i] = v.From
	}
	return ids
}

// Backers returns, in arrival order, the senders whose vote at slot k is
// exactly v. Because a sender has one vote per slot, a replica that
// votes for two values backs only the first.
func Backers[K, V comparable](t *Tally[K, V], k K, v V) []types.NodeID {
	var ids []types.NodeID
	for _, vote := range t.slots[k] {
		if vote.Val == v {
			ids = append(ids, vote.From)
		}
	}
	return ids
}

// Ahead counts the distinct senders, self excluded, that hold a vote at
// any slot strictly above the given one, and reports the lowest such
// slot. It is the evidence behind every "f+1 replicas have moved on"
// rule: a sender counts once however many future views it votes in.
func Ahead[K cmp.Ordered, V any](t *Tally[K, V], above K, self types.NodeID) (senders int, lowest K) {
	seen := make(map[types.NodeID]bool)
	for k, votes := range t.slots {
		if k <= above {
			continue
		}
		for _, v := range votes {
			if v.From == self {
				continue
			}
			if len(seen) == 0 || k < lowest {
				lowest = k
			}
			seen[v.From] = true
		}
	}
	return len(seen), lowest
}
