package metaplane

import "univistor/internal/meta"

// OpKind enumerates metadata mutations shipped through a shard's WAL.
type OpKind uint8

const (
	// OpPut inserts or replaces the record stored under Rec.Key().
	OpPut OpKind = iota
	// OpDelete removes the record stored under (Rec.FID, Rec.Offset).
	OpDelete
)

// Entry is one WAL record: a mutation with its log index. Indexes are
// contiguous per shard, starting at 1.
type Entry struct {
	Index int64
	Kind  OpKind
	Rec   meta.Record // for OpDelete only FID and Offset are meaningful
}

// wal is a shard replica's mutation log: the entries since the last
// snapshot, plus the index the snapshot folded in. The WAL models the
// durable on-disk log — a crash loses nothing appended to it. Compaction
// shifts the retained tail to the front of the same buffer, so a replica's
// log reuses one allocation of about SnapshotEvery entries.
type wal struct {
	entries []Entry
	// snapIndex is the last index compacted into the replica's snapshot
	// (the store state at that index); entries[i].Index == snapIndex+1+i.
	snapIndex int64
}

// lastIndex returns the highest index present (appended or snapshotted).
func (w *wal) lastIndex() int64 {
	if n := len(w.entries); n > 0 {
		return w.entries[n-1].Index
	}
	return w.snapIndex
}

// append adds one entry; indexes must arrive contiguously.
func (w *wal) append(e Entry) {
	if want := w.lastIndex() + 1; e.Index != want {
		panic("metaplane: WAL gap: appending index out of order")
	}
	w.entries = append(w.entries, e)
}

// entriesFrom returns the suffix of entries with Index >= from, or nil if
// the log was truncated past from (the caller must install a snapshot).
// The suffix aliases the log's buffer, which truncate overwrites in place:
// callers must copy the entries out (applyTo into a store, Recover into
// another log) before the next truncate.
func (w *wal) entriesFrom(from int64) ([]Entry, bool) {
	if from <= w.snapIndex {
		return nil, false
	}
	i := from - w.snapIndex - 1
	if i > int64(len(w.entries)) {
		i = int64(len(w.entries))
	}
	return w.entries[i:], true
}

// truncate drops entries up to and including upTo, folding them into the
// snapshot baseline. upTo beyond the last entry is clamped. The surviving
// tail moves to the front of the buffer in place.
func (w *wal) truncate(upTo int64) {
	if upTo <= w.snapIndex {
		return
	}
	if last := w.lastIndex(); upTo > last {
		upTo = last
	}
	n := upTo - w.snapIndex
	w.entries = w.entries[:copy(w.entries, w.entries[n:])]
	w.snapIndex = upTo
}
