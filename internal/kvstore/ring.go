package kvstore

import (
	"cmp"
	"fmt"
	"slices"

	"univistor/internal/meta"
)

// Ring is the distributed metadata store: one ordered Store per metadata
// server, with keys assigned by the offset-range partitioner of §II-B3.
// Methods take and return plain data; the owning service layers in the
// messaging costs.
type Ring struct {
	part   meta.Partitioner
	stores []*Store
}

// NewRing builds a ring of n server stores partitioned at rangeSize
// granularity.
func NewRing(n int, rangeSize int64) *Ring {
	r := &Ring{part: meta.NewPartitioner(rangeSize, n)}
	for i := 0; i < n; i++ {
		r.stores = append(r.stores, NewStore())
	}
	return r
}

// Servers returns the number of server stores.
func (r *Ring) Servers() int { return len(r.stores) }

// Partitioner returns the offset-range partitioner in use.
func (r *Ring) Partitioner() meta.Partitioner { return r.part }

// Store returns server i's local store (for co-located, zero-cost access).
func (r *Ring) Store(i int) *Store { return r.stores[i] }

// HomeServer returns the server owning the record for (fid, offset).
func (r *Ring) HomeServer(offset int64) int { return r.part.ServerFor(offset) }

// Put stores the record on its home server and returns that server's index
// so the caller can charge the network hop.
func (r *Ring) Put(rec meta.Record) int {
	srv := r.part.ServerFor(rec.Offset)
	r.stores[srv].Put(rec)
	return srv
}

// Delete removes the record keyed exactly by (fid, offset), reporting
// whether it existed.
func (r *Ring) Delete(fid meta.FileID, offset int64) bool {
	return r.stores[r.part.ServerFor(offset)].Delete(meta.Key{FID: fid, Offset: offset})
}

// Get fetches the record keyed exactly by (fid, offset).
func (r *Ring) Get(fid meta.FileID, offset int64) (meta.Record, bool) {
	return r.stores[r.part.ServerFor(offset)].Get(meta.Key{FID: fid, Offset: offset})
}

// Covering returns, in offset order, every record of the file overlapping
// the byte range [offset, offset+size), together with the set of servers
// contacted. A record overlaps if rec.Offset < offset+size and
// rec.Offset+rec.Size > offset.
func (r *Ring) Covering(fid meta.FileID, offset, size int64) ([]meta.Record, []int) {
	return CoveringPartitioned(r.part.RangeSize, fid, offset, size, func(off int64) (int, *Store) {
		srv := r.part.ServerFor(off)
		return srv, r.stores[srv]
	})
}

// CoveringPartitioned is the covering query over a key space cut into
// rangeSize-byte partitions, each held by one store: locate returns the
// index and store owning the partition that contains an offset. It
// returns, in key order, every record of the file overlapping [offset,
// offset+size), and the indexes of the stores a charged query contacts:
// the ascending set owning a partition of the range, followed by the
// store one partition back when it holds a record straddling into the
// range and is not already in the set.
//
// Record sizes must not exceed rangeSize, so a straddling record starts
// at most one partition before the range.
func CoveringPartitioned(rangeSize int64, fid meta.FileID, offset, size int64,
	locate func(off int64) (int, *Store)) ([]meta.Record, []int) {
	if size <= 0 {
		return nil, nil
	}
	end := offset + size
	var recs []meta.Record
	var ids []int
	for off := offset; off < end; {
		partEnd := min((off/rangeSize+1)*rangeSize, end)
		id, st := locate(off)
		if !slices.Contains(ids, id) {
			ids = append(ids, id)
		}
		// A record starting earlier in this partition may cover the head.
		if prev, ok := st.Floor(meta.Key{FID: fid, Offset: off}); ok &&
			prev.FID == fid && prev.Offset < off && prev.Offset+prev.Size > off {
			recs = append(recs, prev)
		}
		st.Scan(meta.Key{FID: fid, Offset: off}, meta.Key{FID: fid, Offset: partEnd},
			func(rec meta.Record) bool {
				if rec.Offset+rec.Size > offset {
					recs = append(recs, rec)
				}
				return true
			})
		off = partEnd
	}
	slices.Sort(ids)
	// A record straddling the range's first partition boundary lives on the
	// store owning the previous partition.
	if partStart := offset / rangeSize * rangeSize; partStart > 0 {
		id, st := locate(partStart - 1)
		if prev, ok := st.Floor(meta.Key{FID: fid, Offset: partStart - 1}); ok &&
			prev.FID == fid && prev.Offset+prev.Size > offset {
			recs = append(recs, prev)
			if !slices.Contains(ids, id) {
				ids = append(ids, id)
			}
		}
	}
	// A store owning consecutive partitions can yield one record twice;
	// the stable sort keeps the first-found copy at the head of each run.
	slices.SortStableFunc(recs, compareKeys)
	recs = slices.CompactFunc(recs, func(a, b meta.Record) bool { return a.Key() == b.Key() })
	return recs, ids
}

func compareKeys(a, b meta.Record) int {
	return cmp.Or(cmp.Compare(a.FID, b.FID), cmp.Compare(a.Offset, b.Offset))
}

// CoveringStore returns, in offset order, every record of the file in a
// single store overlapping [offset, offset+size). It is the single-store
// analogue of Ring.Covering, used for the per-node shared metadata buffer
// of the location-aware read service.
func CoveringStore(st *Store, fid meta.FileID, offset, size int64) []meta.Record {
	if size <= 0 {
		return nil
	}
	var recs []meta.Record
	if prev, ok := st.Floor(meta.Key{FID: fid, Offset: offset}); ok &&
		prev.FID == fid && prev.Offset+prev.Size > offset && prev.Offset < offset+size {
		recs = append(recs, prev)
	}
	st.Scan(meta.Key{FID: fid, Offset: offset}, meta.Key{FID: fid, Offset: offset + size},
		func(rec meta.Record) bool {
			if len(recs) == 0 || recs[len(recs)-1].Key() != rec.Key() {
				recs = append(recs, rec)
			}
			return true
		})
	return recs
}

// Total returns the number of records across all servers.
func (r *Ring) Total() int {
	n := 0
	for _, s := range r.stores {
		n += s.Len()
	}
	return n
}

// Validate checks that every stored record lives on its home server.
func (r *Ring) Validate() error {
	for i, s := range r.stores {
		for _, rec := range s.All() {
			if home := r.part.ServerFor(rec.Offset); home != i {
				return fmt.Errorf("kvstore: record fid=%d off=%d on server %d, home %d",
					rec.FID, rec.Offset, i, home)
			}
		}
	}
	return nil
}
