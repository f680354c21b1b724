package memdb

// Read fast lane. The target controller's call-processing traffic is
// overwhelmingly reads of the shared memory region; serializing them on the
// single-writer owner thread makes that thread the bottleneck. A View lets
// other goroutines read the region in place through the direct readers
// (TrueRecordOffset, ReadFieldDirect, StatusDirect) without weakening the
// single-writer contract for mutations and audits:
//
//   - Every region mutation runs inside db.mutate() (clientMutate() for the
//     Client mutators), which holds the region write lock for the whole
//     mutation.
//   - A View read holds the region read lock while it copies, so it never
//     observes a mutation (API write, audit repair, reload, log replay)
//     half done — no torn reads across the fields of one record.
//
// Deliberate trade-offs, documented in DESIGN.md: View reads use the
// schema's true layout (immune to on-region catalog corruption), skip the
// advisory table locks, skip the per-access audit notification (charge) and
// cost accounting, and batch their shadow read-frequency accounting through
// FoldViewReads instead of touching shadow metadata inline.

import "repro/internal/metrics"

// mutate brackets a region mutation: defer db.mutate()() holds the region
// write lock until the mutation is complete. Owner-thread only,
// non-reentrant.
//
// mutate is the one chokepoint every region writer outside the Client API
// goes through (FlipBit, the reloads, header and link repairs, Replay and
// the repairs that share its body, RestoreFrom, RebuildGroups), so it also
// marks the free floors stale: any of them may free a record below a
// floor, and a writer added later is safe by default.
func (db *DB) mutate() func() {
	db.regionMu.Lock()
	db.floorValid = false
	return db.regionMu.Unlock
}

// clientMutate is mutate for the five Client mutators (DBwrite_rec,
// DBwrite_fld, DBmove, DBalloc, DBfree). It keeps the free floors valid:
// Alloc and Free maintain them, and the other three never write a status
// byte while they address the table through its true layout (see
// locateMut).
func (db *DB) clientMutate() func() {
	db.regionMu.Lock()
	return db.regionMu.Unlock
}

// View provides read-locked reads of the region from goroutines other than
// the database owner. A View is safe for concurrent use by any number of
// goroutines and stays valid for the life of the DB.
type View struct {
	db *DB

	// reads counts answered View reads. The zero-value counter makes an
	// unbound View safe to use; BindMetrics repoints it into a registry.
	reads *metrics.Counter
}

// ReadView returns a read view over the database. Multiple calls return
// independent views over the same region.
func (db *DB) ReadView() *View {
	return &View{db: db, reads: &metrics.Counter{}}
}

// BindMetrics registers the fast-lane read counter in reg.
func (v *View) BindMetrics(reg *metrics.Registry) {
	v.reads = reg.Counter("fastlane.reads")
}

// Reads returns the count of answered View reads.
func (v *View) Reads() uint64 { return v.reads.Load() }

func (v *View) noteRead(table int) {
	v.reads.Inc()
	v.db.viewReads[table].Add(1)
}

// ReadRec returns all field values of record rec in table, like
// Client.ReadRec but without table locks or audit accounting.
func (v *View) ReadRec(table, rec int) ([]uint32, error) {
	db := v.db
	off, err := db.TrueRecordOffset(table, rec)
	if err != nil {
		return nil, err
	}
	vals := make([]uint32, len(db.schema.Tables[table].Fields))
	db.regionMu.RLock()
	for fi := range vals {
		vals[fi] = getU32(db.region, off+RecordHeaderSize+FieldSize*fi)
	}
	db.regionMu.RUnlock()
	v.noteRead(table)
	return vals, nil
}

// ReadFld returns one field value, like Client.ReadFld.
func (v *View) ReadFld(table, rec, field int) (uint32, error) {
	v.db.regionMu.RLock()
	val, err := v.db.ReadFieldDirect(table, rec, field)
	v.db.regionMu.RUnlock()
	if err != nil {
		return 0, err
	}
	v.noteRead(table)
	return val, nil
}

// Status returns the status byte of record rec in table, like
// Client.Status.
func (v *View) Status(table, rec int) (int, error) {
	v.db.regionMu.RLock()
	st, err := v.db.StatusDirect(table, rec)
	v.db.regionMu.RUnlock()
	if err != nil {
		return 0, err
	}
	v.noteRead(table)
	return st, nil
}

// FoldViewReads drains the per-table fast-lane read counts into the shadow
// activity stats so the prioritized audit trigger (§4.4.1) still sees read
// frequency for tables served mostly off the turn. Owner-thread only;
// RefreshMetrics calls it before publishing table gauges.
func (db *DB) FoldViewReads() {
	for i := range db.viewReads {
		if n := db.viewReads[i].Swap(0); n != 0 {
			db.shadow.tables[i].Reads += n
		}
	}
}
