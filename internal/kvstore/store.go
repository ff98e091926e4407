// Package kvstore implements the distributed key-value substrate of the
// metadata service: an ordered in-memory store (a sorted sequence of
// fixed-capacity leaves) and a Ring that range-partitions the key space
// across server stores (§II-B3). The package is pure data structure:
// messaging and latency costs for remote operations are modelled by the
// callers that own the sim processes.
package kvstore

import (
	"slices"

	"univistor/internal/meta"
)

// leafCap is the record capacity of one leaf.
const leafCap = 64

// Store is an ordered map from meta.Key to meta.Record. Records live in
// sorted leaves of at most leafCap records; the leaves themselves are
// ordered, so the concatenation of all leaves is the store in key order.
// A lookup is a binary search over the leaves' first keys followed by one
// inside the leaf. The structure holds no randomness: identical operation
// sequences build identical stores.
type Store struct {
	leaves [][]meta.Record // non-empty, each sorted, ascending across leaves
	size   int
}

// NewStore returns an empty store.
func NewStore() *Store { return &Store{} }

// Len returns the number of records stored.
func (s *Store) Len() int { return s.size }

// leafFor returns the index of the leaf that holds key or would receive
// it: the last leaf whose first key is ≤ key, or leaf 0 when key precedes
// every leaf. The store must be non-empty.
func (s *Store) leafFor(key meta.Key) int {
	lo, hi := 1, len(s.leaves)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if key.Less(s.leaves[mid][0].Key()) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo - 1
}

// lowerBound returns the index of the first record in leaf whose key is
// ≥ key.
func lowerBound(leaf []meta.Record, key meta.Key) int {
	lo, hi := 0, len(leaf)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if leaf[mid].Key().Less(key) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// find locates key: its leaf index, its position in that leaf (the
// insertion point when absent), and whether it is present. The store must
// be non-empty.
func (s *Store) find(key meta.Key) (li, j int, ok bool) {
	li = s.leafFor(key)
	leaf := s.leaves[li]
	j = lowerBound(leaf, key)
	return li, j, j < len(leaf) && leaf[j].Key() == key
}

func newLeaf(r meta.Record) []meta.Record {
	leaf := make([]meta.Record, 1, leafCap)
	leaf[0] = r
	return leaf
}

// Put inserts or replaces the record stored under r.Key(). Replacing an
// existing key does not allocate.
func (s *Store) Put(r meta.Record) {
	if len(s.leaves) == 0 {
		s.leaves = append(s.leaves, newLeaf(r))
		s.size++
		return
	}
	li, j, ok := s.find(r.Key())
	if ok {
		s.leaves[li][j] = r
		return
	}
	s.size++
	leaf := s.leaves[li]
	if len(leaf) < leafCap {
		s.leaves[li] = slices.Insert(leaf, j, r)
		return
	}
	if j == len(leaf) && li == len(s.leaves)-1 {
		// Appending past the last key: start a new leaf and leave the full
		// one full, so ascending inserts pack leaves densely.
		s.leaves = append(s.leaves, newLeaf(r))
		return
	}
	// Split the full leaf in half and insert into the half that owns j.
	right := make([]meta.Record, leafCap-leafCap/2, leafCap)
	copy(right, leaf[leafCap/2:])
	clear(leaf[leafCap/2:])
	left := leaf[:leafCap/2]
	if j <= len(left) {
		left = slices.Insert(left, j, r)
	} else {
		right = slices.Insert(right, j-len(left), r)
	}
	s.leaves[li] = left
	s.leaves = slices.Insert(s.leaves, li+1, right)
}

// Get returns the record stored under key.
func (s *Store) Get(key meta.Key) (meta.Record, bool) {
	if len(s.leaves) == 0 {
		return meta.Record{}, false
	}
	li, j, ok := s.find(key)
	if !ok {
		return meta.Record{}, false
	}
	return s.leaves[li][j], true
}

// Delete removes the record stored under key, reporting whether it existed.
// A leaf left empty is dropped.
func (s *Store) Delete(key meta.Key) bool {
	if len(s.leaves) == 0 {
		return false
	}
	li, j, ok := s.find(key)
	if !ok {
		return false
	}
	if leaf := slices.Delete(s.leaves[li], j, j+1); len(leaf) > 0 {
		s.leaves[li] = leaf
	} else {
		s.leaves = slices.Delete(s.leaves, li, li+1)
	}
	s.size--
	return true
}

// Floor returns the record with the greatest key ≤ key, if any. Metadata
// lookups use it to find the segment covering an offset that is not itself
// a segment start.
func (s *Store) Floor(key meta.Key) (meta.Record, bool) {
	if len(s.leaves) == 0 {
		return meta.Record{}, false
	}
	li, j, ok := s.find(key)
	leaf := s.leaves[li]
	switch {
	case ok:
		return leaf[j], true
	case j > 0:
		return leaf[j-1], true
	default: // key precedes every record (only possible in leaf 0)
		return meta.Record{}, false
	}
}

// Scan visits, in key order, every record with lo ≤ key < hi, stopping
// early if fn returns false. fn must not mutate the store.
func (s *Store) Scan(lo, hi meta.Key, fn func(meta.Record) bool) {
	if len(s.leaves) == 0 {
		return
	}
	li, j, _ := s.find(lo)
	for ; li < len(s.leaves); li, j = li+1, 0 {
		for _, r := range s.leaves[li][j:] {
			if !r.Key().Less(hi) || !fn(r) {
				return
			}
		}
	}
}

// Ascend visits every record in key order, stopping early if fn returns
// false. fn must not mutate the store.
func (s *Store) Ascend(fn func(meta.Record) bool) {
	for _, leaf := range s.leaves {
		for _, r := range leaf {
			if !fn(r) {
				return
			}
		}
	}
}

// All returns every record in key order. Intended for tests and tools.
func (s *Store) All() []meta.Record {
	var out []meta.Record
	if s.size > 0 {
		out = make([]meta.Record, 0, s.size)
	}
	for _, leaf := range s.leaves {
		out = append(out, leaf...)
	}
	return out
}
