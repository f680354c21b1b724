package memdb

import "fmt"

// Direct mutators for log replay and replica apply. Like the audit's direct
// accessors these bypass locking and session state: a WAL record or a
// shipped replication record describes a mutation that already passed the
// API's checks on the originating node, so replay applies it by true offset,
// bumping shadow versions exactly as the API path would. All of them are
// single-writer calls — replay runs on the recovering process before serving
// starts, and replica apply runs on the standby's executor.

// WriteRecDirect writes all fields of record ri in table ti by true offset,
// without requiring active status (replay may apply a write that preceded a
// later logged Free).
func (db *DB) WriteRecDirect(ti, ri int, vals []uint32) error {
	off, err := db.TrueRecordOffset(ti, ri)
	if err != nil {
		return err
	}
	nf := len(db.schema.Tables[ti].Fields)
	if len(vals) != nf {
		return fmt.Errorf("memdb: WriteRecDirect got %d values for %d fields", len(vals), nf)
	}
	defer db.mutate()()
	for fi, v := range vals {
		putU32(db.region, off+RecordHeaderSize+FieldSize*fi, v)
	}
	db.shadow.noteWrite(ti, ri, 0, db.now())
	return nil
}

// AllocDirect activates record ri of table ti and assigns it to group — the
// replay of an Alloc whose chosen index was recorded in the log. A record
// already active is first unlinked so replay after a partial checkpoint is
// idempotent.
func (db *DB) AllocDirect(ti, ri, group int) error {
	off, err := db.TrueRecordOffset(ti, ri)
	if err != nil {
		return err
	}
	if err := db.checkGroup(ti, group); err != nil {
		return err
	}
	defer db.mutate()()
	if db.groupCount(ti) > 0 {
		if db.region[off+1] == StatusActive {
			if err := db.unlinkFromGroup(ti, ri); err != nil {
				return err
			}
		}
		db.region[off+1] = StatusActive
		if err := db.linkIntoGroup(ti, ri, group); err != nil {
			return err
		}
	} else {
		db.region[off+1] = StatusActive
		putU16(db.region, off+4, uint16(group))
	}
	db.shadow.noteWrite(ti, ri, 0, db.now())
	return nil
}

// MoveDirect reassigns record ri of table ti to newGroup (replay of DBmove).
func (db *DB) MoveDirect(ti, ri, newGroup int) error {
	off, err := db.TrueRecordOffset(ti, ri)
	if err != nil {
		return err
	}
	defer db.mutate()()
	if db.region[off+1] != StatusActive {
		return fmt.Errorf("table %d record %d: %w", ti, ri, ErrNotActive)
	}
	if err := db.checkGroup(ti, newGroup); err != nil {
		return err
	}
	if db.groupCount(ti) > 0 {
		if err := db.unlinkFromGroup(ti, ri); err != nil {
			return err
		}
		if err := db.linkIntoGroup(ti, ri, newGroup); err != nil {
			return err
		}
	} else {
		putU16(db.region, off+4, uint16(newGroup))
	}
	db.shadow.noteWrite(ti, ri, 0, db.now())
	return nil
}
