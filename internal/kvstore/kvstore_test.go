package kvstore

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"univistor/internal/meta"
)

func rec(fid meta.FileID, off, size int64, proc int) meta.Record {
	return meta.Record{FID: fid, Offset: off, Size: size, Proc: proc, VA: off * 10}
}

func TestStorePutGetDelete(t *testing.T) {
	s := NewStore()
	s.Put(rec(1, 100, 10, 7))
	got, ok := s.Get(meta.Key{FID: 1, Offset: 100})
	if !ok || got.Proc != 7 {
		t.Fatalf("Get = %+v, %v", got, ok)
	}
	if _, ok := s.Get(meta.Key{FID: 1, Offset: 101}); ok {
		t.Error("Get of absent key succeeded")
	}
	// Replace.
	s.Put(rec(1, 100, 10, 9))
	got, _ = s.Get(meta.Key{FID: 1, Offset: 100})
	if got.Proc != 9 || s.Len() != 1 {
		t.Errorf("replace failed: %+v len=%d", got, s.Len())
	}
	if !s.Delete(meta.Key{FID: 1, Offset: 100}) {
		t.Error("Delete of present key failed")
	}
	if s.Delete(meta.Key{FID: 1, Offset: 100}) {
		t.Error("Delete of absent key succeeded")
	}
	if s.Len() != 0 {
		t.Errorf("Len = %d after delete", s.Len())
	}
}

func TestStoreOrderedScanAndFloor(t *testing.T) {
	s := NewStore()
	for _, off := range []int64{50, 10, 30, 20, 40} {
		s.Put(rec(1, off, 5, 0))
	}
	s.Put(rec(2, 15, 5, 0)) // other file
	var offs []int64
	s.Scan(meta.Key{FID: 1, Offset: 15}, meta.Key{FID: 1, Offset: 45}, func(r meta.Record) bool {
		offs = append(offs, r.Offset)
		return true
	})
	want := []int64{20, 30, 40}
	if len(offs) != 3 || offs[0] != 20 || offs[1] != 30 || offs[2] != 40 {
		t.Errorf("Scan = %v, want %v", offs, want)
	}
	f, ok := s.Floor(meta.Key{FID: 1, Offset: 35})
	if !ok || f.Offset != 30 {
		t.Errorf("Floor(35) = %+v, want offset 30", f)
	}
	f, ok = s.Floor(meta.Key{FID: 1, Offset: 10})
	if !ok || f.Offset != 10 {
		t.Errorf("Floor(10) = %+v, want exact match", f)
	}
	if _, ok := s.Floor(meta.Key{FID: 0, Offset: 5}); ok {
		t.Error("Floor below all keys succeeded")
	}
}

func TestScanEarlyStop(t *testing.T) {
	s := NewStore()
	for off := int64(0); off < 100; off += 10 {
		s.Put(rec(1, off, 10, 0))
	}
	n := 0
	s.Scan(meta.Key{FID: 1, Offset: 0}, meta.Key{FID: 1, Offset: 100}, func(r meta.Record) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Errorf("visited %d records, want 3", n)
	}
}

// Property: a store agrees with a reference map+sort model under random
// put/get/delete/scan sequences.
func TestStoreMatchesReferenceModel(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewStore()
		ref := map[meta.Key]meta.Record{}
		for i := 0; i < 300; i++ {
			off := int64(rng.Intn(100))
			key := meta.Key{FID: 1, Offset: off}
			switch rng.Intn(3) {
			case 0:
				r := rec(1, off, int64(rng.Intn(10)+1), rng.Intn(50))
				s.Put(r)
				ref[key] = r
			case 1:
				got, ok := s.Get(key)
				want, wok := ref[key]
				if ok != wok || (ok && got != want) {
					return false
				}
			case 2:
				if s.Delete(key) != (func() bool { _, ok := ref[key]; return ok })() {
					return false
				}
				delete(ref, key)
			}
		}
		if s.Len() != len(ref) {
			return false
		}
		// Full scan order equals sorted reference keys.
		var want []int64
		for k := range ref {
			want = append(want, k.Offset)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		all := s.All()
		if len(all) != len(want) {
			return false
		}
		for i, r := range all {
			if r.Offset != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}

	// At scale: 3 files and thousands of operations, enough to split and
	// empty leaves, with Floor and Scan checked against the model too.
	for _, order := range []string{"ascending", "random"} {
		order := order
		t.Run(order, func(t *testing.T) {
			prop := func(seed int64) bool {
				if err := runModel(rand.New(rand.NewSource(seed)), order == "ascending", 2500); err != nil {
					t.Log(err)
					return false
				}
				return true
			}
			if err := quick.Check(prop, &quick.Config{MaxCount: 10}); err != nil {
				t.Error(err)
			}
		})
	}
}

// model is the map+sort oracle the store is checked against.
type model map[meta.Key]meta.Record

// sorted returns the model's records in key order.
func (m model) sorted() []meta.Record {
	out := make([]meta.Record, 0, len(m))
	for _, r := range m {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key().Less(out[j].Key()) })
	return out
}

// runModel drives ops random operations over 3 files against both a store
// and the model. With ascending set, each file's puts mostly append past
// its highest offset (the way segments arrive); otherwise offsets are
// uniform. One operation in fifty deletes a run of 16 consecutive
// records, the way checkpoint retention drops a step.
func runModel(rng *rand.Rand, ascending bool, ops int) error {
	const fids = 3
	s := NewStore()
	ref := model{}
	var cursor [fids + 1]int64
	randKey := func() meta.Key {
		fid := meta.FileID(rng.Intn(fids) + 1)
		if ascending && rng.Intn(8) != 0 {
			return meta.Key{FID: fid, Offset: cursor[fid]}
		}
		return meta.Key{FID: fid, Offset: int64(rng.Intn(1500))}
	}
	for i := 0; i < ops; i++ {
		key := randKey()
		switch op := rng.Intn(100); {
		case op < 65:
			r := rec(key.FID, key.Offset, int64(rng.Intn(10)+1), rng.Intn(50))
			s.Put(r)
			ref[key] = r
			if key.Offset >= cursor[key.FID] {
				cursor[key.FID] = key.Offset + 1 + int64(rng.Intn(3))
			}
		case op < 73:
			got, ok := s.Get(key)
			if want, wok := ref[key]; ok != wok || got != want {
				return fmt.Errorf("op %d: Get(%v) = %+v,%v, want %+v,%v", i, key, got, ok, want, wok)
			}
		case op < 98:
			_, had := ref[key]
			if s.Delete(key) != had {
				return fmt.Errorf("op %d: Delete(%v) != %v", i, key, had)
			}
			delete(ref, key)
		default:
			all := ref.sorted()
			if len(all) == 0 {
				continue
			}
			from := rng.Intn(len(all))
			for _, r := range all[from:min(from+16, len(all))] {
				if !s.Delete(r.Key()) {
					return fmt.Errorf("op %d: run delete of %v failed", i, r.Key())
				}
				delete(ref, r.Key())
			}
		}
		if i%50 == 0 || i == ops-1 {
			if err := checkModel(s, ref, rng); err != nil {
				return fmt.Errorf("op %d: %v", i, err)
			}
		}
	}
	return nil
}

// checkModel compares the whole store, its leaf structure, and a batch of
// Floor and Scan queries against the model.
func checkModel(s *Store, ref model, rng *rand.Rand) error {
	want := ref.sorted()
	if s.Len() != len(want) {
		return fmt.Errorf("Len = %d, want %d", s.Len(), len(want))
	}
	if got := s.All(); !slices.Equal(got, want) {
		return fmt.Errorf("All differs from model (%d vs %d records)", len(got), len(want))
	}
	if err := s.checkLeaves(); err != nil {
		return err
	}
	probe := func() meta.Key {
		return meta.Key{FID: meta.FileID(rng.Intn(5)), Offset: int64(rng.Intn(1700)) - 100}
	}
	for q := 0; q < 20; q++ {
		key := probe()
		got, ok := s.Floor(key)
		i := sort.Search(len(want), func(i int) bool { return key.Less(want[i].Key()) })
		if wok := i > 0; ok != wok || (ok && got != want[i-1]) {
			return fmt.Errorf("Floor(%v) = %+v,%v, want ok=%v", key, got, ok, wok)
		}
		lo, hi := probe(), probe()
		if rng.Intn(2) == 0 { // a bound pair inside one file
			hi.FID = lo.FID
		}
		var scanned []meta.Record
		s.Scan(lo, hi, func(r meta.Record) bool { scanned = append(scanned, r); return true })
		var inRange []meta.Record
		for _, r := range want {
			if !r.Key().Less(lo) && r.Key().Less(hi) {
				inRange = append(inRange, r)
			}
		}
		if !slices.Equal(scanned, inRange) {
			return fmt.Errorf("Scan(%v, %v) = %d records, want %d", lo, hi, len(scanned), len(inRange))
		}
	}
	return nil
}

// checkLeaves verifies the leaf structure: every leaf non-empty and within
// capacity, keys strictly ascending across leaf boundaries, size exact.
func (s *Store) checkLeaves() error {
	n := 0
	var last meta.Key
	for li, leaf := range s.leaves {
		if len(leaf) == 0 || len(leaf) > leafCap {
			return fmt.Errorf("leaf %d holds %d records (cap %d)", li, len(leaf), leafCap)
		}
		for j, r := range leaf {
			if n > 0 && !last.Less(r.Key()) {
				return fmt.Errorf("leaf %d record %d key %v not after %v", li, j, r.Key(), last)
			}
			last = r.Key()
			n++
		}
	}
	if n != s.size {
		return fmt.Errorf("leaves hold %d records, size %d", n, s.size)
	}
	return nil
}

// Ascending inserts pack full leaves; deleting everything in 16-record runs
// empties and drops every leaf.
func TestStoreLeafSplitAndDrop(t *testing.T) {
	s := NewStore()
	const n = 10 * leafCap
	for off := int64(0); off < n; off++ {
		s.Put(rec(1, off, 1, 0))
	}
	if want := n / leafCap; len(s.leaves) != want {
		t.Errorf("ascending inserts built %d leaves, want %d full ones", len(s.leaves), want)
	}
	// Inserting into the middle of a full leaf splits it.
	s.Put(rec(0, 0, 1, 0))
	if len(s.leaves) != n/leafCap+1 || len(s.leaves[0]) != leafCap/2+1 {
		t.Errorf("split produced %d leaves, first holds %d", len(s.leaves), len(s.leaves[0]))
	}
	if err := s.checkLeaves(); err != nil {
		t.Fatal(err)
	}
	s.Delete(meta.Key{FID: 0, Offset: 0})
	for off := int64(0); off < n; off += 16 {
		for k := off; k < off+16; k++ {
			if !s.Delete(meta.Key{FID: 1, Offset: k}) {
				t.Fatalf("Delete(%d) failed", k)
			}
		}
		if err := s.checkLeaves(); err != nil {
			t.Fatalf("after deleting run at %d: %v", off, err)
		}
	}
	if s.Len() != 0 || len(s.leaves) != 0 {
		t.Errorf("emptied store: Len=%d leaves=%d", s.Len(), len(s.leaves))
	}
	if _, ok := s.Floor(meta.Key{FID: 9, Offset: 9}); ok {
		t.Error("Floor on an empty store succeeded")
	}
}

// Overwriting an existing key rewrites the record in place.
func TestStorePutExistingKeyAllocs(t *testing.T) {
	s := NewStore()
	for off := int64(0); off < 1000; off++ {
		s.Put(rec(1, off, 1, 0))
	}
	off := int64(0)
	allocs := testing.AllocsPerRun(100, func() {
		s.Put(rec(1, off%1000, 2, 1))
		off += 7
	})
	if allocs != 0 {
		t.Errorf("Put of an existing key allocates %v times, want 0", allocs)
	}
}

func BenchmarkStorePut(b *testing.B) {
	for _, order := range []string{"ascending", "random"} {
		b.Run(order, func(b *testing.B) {
			offs := make([]int64, b.N)
			rng := rand.New(rand.NewSource(1))
			for i := range offs {
				offs[i] = int64(i)
				if order == "random" {
					offs[i] = rng.Int63n(int64(b.N) * 4)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			s := NewStore()
			for i, off := range offs {
				s.Put(rec(meta.FileID(i%3), off, 1, i))
			}
		})
	}
}

func TestRingRoutesToHomeServers(t *testing.T) {
	r := NewRing(4, 100)
	for off := int64(0); off < 1600; off += 100 {
		srv := r.Put(rec(1, off, 100, 0))
		if want := int(off / 100 % 4); srv != want {
			t.Errorf("Put(off=%d) went to server %d, want %d", off, srv, want)
		}
	}
	if err := r.Validate(); err != nil {
		t.Error(err)
	}
	if r.Total() != 16 {
		t.Errorf("Total = %d, want 16", r.Total())
	}
	got, ok := r.Get(1, 700)
	if !ok || got.Offset != 700 {
		t.Errorf("Get(700) = %+v, %v", got, ok)
	}
}

func TestRingCoveringExactSegments(t *testing.T) {
	r := NewRing(2, 100)
	for off := int64(0); off < 1000; off += 50 {
		r.Put(rec(1, off, 50, int(off/50)))
	}
	recs, servers := r.Covering(1, 200, 300) // segments at 200..450
	if len(recs) != 6 {
		t.Fatalf("Covering returned %d records, want 6: %+v", len(recs), recs)
	}
	for i, rr := range recs {
		if want := int64(200 + 50*i); rr.Offset != want {
			t.Errorf("record %d offset %d, want %d", i, rr.Offset, want)
		}
	}
	if len(servers) == 0 {
		t.Error("no servers reported")
	}
}

func TestRingCoveringPartialOverlaps(t *testing.T) {
	r := NewRing(3, 100)
	r.Put(rec(1, 90, 50, 1))  // straddles boundary at 100, stored on server of 90
	r.Put(rec(1, 140, 20, 2)) // inside partition 1
	// Request [120, 150): overlaps both records.
	recs, _ := r.Covering(1, 120, 30)
	if len(recs) != 2 {
		t.Fatalf("Covering = %+v, want both overlapping records", recs)
	}
	if recs[0].Offset != 90 || recs[1].Offset != 140 {
		t.Errorf("records = %+v", recs)
	}
	// Request entirely within the straddler's tail partition.
	recs, _ = r.Covering(1, 100, 10)
	if len(recs) != 1 || recs[0].Offset != 90 {
		t.Errorf("tail lookup = %+v, want the straddling record", recs)
	}
}

func TestRingCoveringNoMatch(t *testing.T) {
	r := NewRing(2, 100)
	r.Put(rec(1, 0, 10, 0))
	recs, _ := r.Covering(1, 500, 50)
	if len(recs) != 0 {
		t.Errorf("Covering of empty range = %+v", recs)
	}
	recs, _ = r.Covering(2, 0, 10) // wrong file
	if len(recs) != 0 {
		t.Errorf("Covering of wrong file = %+v", recs)
	}
}

// Covering a range that spans several servers with interior gaps: only the
// stored segments come back (in offset order), and the contacted-server set
// covers every partition of the query, empty ones included — the caller
// charges a round trip per contacted server, gap or not.
func TestRingCoveringMultiServerWithGaps(t *testing.T) {
	r := NewRing(3, 100)
	// Partitions 0..5 map to servers 0,1,2,0,1,2. Populate partitions 0, 2,
	// and 5; leave 1, 3, 4 as gaps.
	r.Put(rec(1, 10, 40, 0))  // partition 0, server 0
	r.Put(rec(1, 220, 30, 1)) // partition 2, server 2
	r.Put(rec(1, 550, 20, 2)) // partition 5, server 2
	recs, servers := r.Covering(1, 0, 600)
	if len(recs) != 3 || recs[0].Offset != 10 || recs[1].Offset != 220 || recs[2].Offset != 550 {
		t.Fatalf("Covering = %+v, want the 3 stored segments in order", recs)
	}
	if len(servers) != 3 {
		t.Errorf("servers = %v, want all 3 servers of the 6-partition span", servers)
	}
	for i := 1; i < len(servers); i++ {
		if servers[i-1] >= servers[i] {
			t.Errorf("servers %v not strictly ascending", servers)
		}
	}
	// A sub-query covering only empty partitions returns nothing but still
	// reports the servers it had to ask.
	recs, servers = r.Covering(1, 300, 200) // partitions 3 and 4
	if len(recs) != 0 {
		t.Errorf("gap query returned %+v", recs)
	}
	if len(servers) != 2 {
		t.Errorf("gap query contacted %v, want the 2 owning servers", servers)
	}
}

// Delete routes by the key's home partition: deleting an offset that is
// covered by a straddling record (whose key lives one partition back, on a
// different server) must NOT remove the straddler — only an exact key on
// its own home server deletes.
func TestRingDeleteNonHomeKey(t *testing.T) {
	r := NewRing(3, 100)
	r.Put(rec(1, 90, 50, 1)) // key 90 on server 0; bytes extend into partition 1
	if r.Delete(1, 120) {    // offset 120's home is server 1, no key there
		t.Error("Delete(120) removed something on the non-home server")
	}
	if recs, _ := r.Covering(1, 100, 40); len(recs) != 1 || recs[0].Offset != 90 {
		t.Fatalf("straddler gone after non-home delete: %+v", recs)
	}
	if !r.Delete(1, 90) {
		t.Error("Delete of the exact home key failed")
	}
	if recs, _ := r.Covering(1, 100, 40); len(recs) != 0 {
		t.Errorf("straddler survived exact-key delete: %+v", recs)
	}
}

// Put of the same (fid, offset) key is an in-place overwrite, however many
// times it happens: the count stays 1, the latest payload wins, and
// Covering resolves the latest size.
func TestRingPutOverwriteAcrossRewrites(t *testing.T) {
	r := NewRing(4, 100)
	home := r.Put(rec(1, 250, 30, 0))
	for i := 1; i <= 5; i++ {
		size := int64(30 + i) // grow within the partition bound
		rc := rec(1, 250, size, i)
		if srv := r.Put(rc); srv != home {
			t.Errorf("rewrite %d routed to server %d, want home %d", i, srv, home)
		}
		if r.Total() != 1 {
			t.Fatalf("rewrite %d: Total = %d, want 1", i, r.Total())
		}
		got, ok := r.Get(1, 250)
		if !ok || got.Proc != i || got.Size != size {
			t.Fatalf("rewrite %d: Get = %+v, %v", i, got, ok)
		}
	}
	recs, _ := r.Covering(1, 280, 10) // only the grown record reaches 280+
	if len(recs) != 1 || recs[0].Size != 35 || recs[0].Proc != 5 {
		t.Errorf("Covering after rewrites = %+v, want the final 35-byte record", recs)
	}
	if err := r.Validate(); err != nil {
		t.Error(err)
	}
}

// Property: for random non-overlapping segment layouts, Covering returns
// exactly the segments overlapping the query (validated against a brute
// force scan), provided segments don't exceed the partition range size.
func TestRingCoveringProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rangeSize := int64(rng.Intn(90) + 10)
		servers := rng.Intn(5) + 1
		r := NewRing(servers, rangeSize)
		var all []meta.Record
		cur := int64(rng.Intn(20))
		for i := 0; i < 50; i++ {
			size := int64(rng.Intn(int(rangeSize))) + 1
			rc := rec(1, cur, size, i)
			r.Put(rc)
			all = append(all, rc)
			cur += size + int64(rng.Intn(15)) // optional gap
		}
		for q := 0; q < 20; q++ {
			qOff := int64(rng.Intn(int(cur + 10)))
			qSize := int64(rng.Intn(200) + 1)
			got, _ := r.Covering(1, qOff, qSize)
			var want []meta.Record
			for _, rc := range all {
				if rc.Offset < qOff+qSize && rc.Offset+rc.Size > qOff {
					want = append(want, rc)
				}
			}
			if len(got) != len(want) {
				return false
			}
			for i := range got {
				if got[i] != want[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
