package memdb

import "fmt"

// One way to change a record. Each write operation has one body that
// changes its bytes, shared by the Client call and by Replay; every record
// mutation then records itself through DB.stamp.

// putFields writes vals into consecutive fields of the record at off,
// starting at field fi (DBwrite_rec and DBwrite_fld).
func (db *DB) putFields(off, fi int, vals ...uint32) {
	for i, v := range vals {
		putU32(db.region, off+RecordHeaderSize+FieldSize*(fi+i), v)
	}
}

// activate marks record ri of table ti, at off, active in group (DBalloc
// and DBmove): a record already active is unlinked from its chain first,
// then the status byte is set and the record is linked onto group's chain,
// or, on a table without chains, its group word is written.
func (db *DB) activate(ti, ri, off, group int) error {
	if db.groupCount(ti) == 0 {
		db.region[off+1] = StatusActive
		putU16(db.region, off+4, uint16(group))
		return nil
	}
	if db.region[off+1] == StatusActive {
		if err := db.unlinkFromGroup(ti, ri); err != nil {
			return err
		}
	}
	db.region[off+1] = StatusActive
	return db.linkIntoGroup(ti, ri, group)
}

// freeAt releases record ri of table ti, at off (DBfree): it unlinks an
// active record from its chain, formats the header free, lowers the
// table's free floor, and resets every field to its default. The defaults
// come from the live catalog entry td for the API's DBfree, and from the
// schema when td is nil (replay and audit repair, which address records by
// their true layout).
func (db *DB) freeAt(ti, ri, off int, td *tableDesc) error {
	if db.groupCount(ti) > 0 && db.region[off+1] == StatusActive {
		if err := db.unlinkFromGroup(ti, ri); err != nil {
			return err
		}
	}
	formatHeader(db.region, off, ti, ri)
	db.allocFloor[ti] = min(db.allocFloor[ti], ri)
	if td == nil {
		for fi, f := range db.schema.Tables[ti].Fields {
			db.putFields(off, fi, f.Default)
		}
		return nil
	}
	for fi := 0; fi < td.NumFields; fi++ {
		fd, err := readFieldDesc(db.region, *td, fi)
		if err != nil {
			return err
		}
		db.putFields(off, fi, fd.Default)
	}
	return nil
}

// checkActive refuses a write to record ri of table ti, at off, that is
// not active.
func (db *DB) checkActive(ti, ri, off int) error {
	if db.region[off+1] != StatusActive {
		return fmt.Errorf("table %d record %d: %w", ti, ri, ErrNotActive)
	}
	return nil
}

// Replay applies one logged mutation — op is OpWriteRec, OpWriteFld,
// OpMove, OpAlloc or OpFree — to record ri of table ti. fi is the field of
// a write-fld, group the group of an alloc or move, and vals the values of
// a write. A logged mutation already passed the API's checks on the node
// that made it, so Replay addresses the record by its true layout, takes no
// table lock and opens no session, and runs the API's own body for op:
//
//   - write-rec and write-fld do not require an active record, since a
//     write may precede a later logged free;
//   - move requires an active record;
//   - alloc at the logged index first unlinks a record that is already
//     active, so replay over a partial checkpoint is idempotent;
//   - free unlinks the record if it is active.
//
// A replayed write counts as an access, like the Client call it repeats.
// Replay runs on the region's single writer: the recovering process before
// serving starts, or the standby applying shipped records.
func (db *DB) Replay(op Op, ti, ri, fi, group int, vals []uint32) error {
	return db.apply(op, ti, ri, fi, group, vals, replayPID)
}

// apply is Replay's body, which the audit repairs WriteFieldDirect and
// FreeRecordDirect share: it runs op on record ri of table ti inside the
// region write lock and stamps the record for pid.
func (db *DB) apply(op Op, ti, ri, fi, group int, vals []uint32, pid int) error {
	off, err := db.TrueRecordOffset(ti, ri)
	if err != nil {
		return err
	}
	nf := len(db.schema.Tables[ti].Fields)
	defer db.mutate()()
	switch op {
	case OpWriteRec:
		if len(vals) != nf {
			return fmt.Errorf("memdb: %v replay got %d values for %d fields", op, len(vals), nf)
		}
		db.putFields(off, 0, vals...)
	case OpWriteFld:
		if fi < 0 || fi >= nf {
			return &BoundsError{What: "field", Index: fi, Limit: nf}
		}
		if len(vals) != 1 {
			return fmt.Errorf("memdb: %v replay got %d values", op, len(vals))
		}
		db.putFields(off, fi, vals...)
	case OpMove:
		if err := db.checkActive(ti, ri, off); err != nil {
			return err
		}
		fallthrough
	case OpAlloc:
		if err := db.checkGroup(ti, group); err != nil {
			return err
		}
		err = db.activate(ti, ri, off, group)
	case OpFree:
		err = db.freeAt(ti, ri, off, nil)
	default:
		return fmt.Errorf("memdb: cannot replay %v", op)
	}
	if err != nil {
		return err
	}
	db.stamp(ti, ri, pid)
	return nil
}
