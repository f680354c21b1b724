package memdb

import (
	"fmt"
	"time"
)

// Client is one database connection (the paper's DBinit/DBclose session).
// Every call-processing thread owns a Client; the PID identifies it in
// lock tables, shadow metadata, and audit diagnoses.
type Client struct {
	db     *DB
	pid    int
	closed bool
	txn    map[int]bool // tables locked by an open transaction
}

// PID returns the client's process identifier.
func (c *Client) PID() int { return c.pid }

// Close releases the connection and its locks (DBclose).
func (c *Client) Close() error {
	defer c.db.guardEnter("DBclose")()
	if c.closed {
		return ErrClosed
	}
	c.db.charge(OpClose, c.pid, -1, -1)
	c.db.ReleaseAllLocks(c.pid)
	c.closed = true
	delete(c.db.clients, c.pid)
	c.txn = nil
	return nil
}

// Abandon simulates the client crashing without committing: the connection
// is dead but its locks stay held, the exact condition the progress
// indicator element exists to detect (§4.2).
func (c *Client) Abandon() {
	c.closed = true
	delete(c.db.clients, c.pid)
}

// Closed reports whether the connection is closed or abandoned.
func (c *Client) Closed() bool { return c.closed }

// Begin opens a transaction on table: the lock is held across operations
// until Commit. Nested Begin on the same table is a no-op.
func (c *Client) Begin(table int) error {
	defer c.db.guardEnter("DBbegin")()
	if c.closed {
		return ErrClosed
	}
	if err := c.db.acquire(table, c.pid); err != nil {
		return err
	}
	if c.txn == nil {
		c.txn = make(map[int]bool)
	}
	c.txn[table] = true
	return nil
}

// Commit releases every transaction lock held by the client.
func (c *Client) Commit() error {
	defer c.db.guardEnter("DBcommit")()
	if c.closed {
		return ErrClosed
	}
	for table := range c.txn {
		c.db.release(table, c.pid)
	}
	c.txn = nil
	return nil
}

// InTxn reports whether the client holds a transaction lock on table.
func (c *Client) InTxn(table int) bool { return c.txn[table] }

// admit is the admission every lock-taking call runs after its guard: it
// refuses a closed client, then takes table's lock. Once admit succeeds
// the caller defers c.settle, so a call is charged only when it took the
// lock.
func (c *Client) admit(table int) error {
	if c.closed {
		return ErrClosed
	}
	return c.db.acquire(table, c.pid)
}

// settle ends an admitted call: it charges op, then releases table's lock
// unless an open transaction holds it.
func (c *Client) settle(op Op, table, rec int) {
	c.db.charge(op, c.pid, table, rec)
	if !c.txn[table] {
		c.db.release(table, c.pid)
	}
}

// ReadRec reads all fields of record rec in table (DBread_rec).
func (c *Client) ReadRec(table, rec int) ([]uint32, error) {
	defer c.db.guardEnter("DBread_rec")()
	if err := c.admit(table); err != nil {
		return nil, err
	}
	defer c.settle(OpReadRec, table, rec)
	td, off, err := c.locate(table, rec)
	if err != nil {
		return nil, err
	}
	vals := make([]uint32, td.NumFields)
	for fi := range vals {
		vals[fi] = getU32(c.db.region, off+RecordHeaderSize+FieldSize*fi)
	}
	c.db.shadow.noteRead(table, rec, c.pid, c.db.now())
	return vals, nil
}

// ReadFld reads one field of a record (DBread_fld).
func (c *Client) ReadFld(table, rec, field int) (uint32, error) {
	defer c.db.guardEnter("DBread_fld")()
	if err := c.admit(table); err != nil {
		return 0, err
	}
	defer c.settle(OpReadFld, table, rec)
	td, off, err := c.locate(table, rec)
	if err != nil {
		return 0, err
	}
	if field < 0 || field >= td.NumFields {
		return 0, &BoundsError{What: "field", Index: field, Limit: td.NumFields}
	}
	c.db.shadow.noteRead(table, rec, c.pid, c.db.now())
	return getU32(c.db.region, off+RecordHeaderSize+FieldSize*field), nil
}

// WriteRec writes all fields of an active record (DBwrite_rec).
func (c *Client) WriteRec(table, rec int, vals []uint32) error {
	defer c.db.guardEnter("DBwrite_rec")()
	defer c.db.clientMutate()()
	if err := c.admit(table); err != nil {
		return err
	}
	defer c.settle(OpWriteRec, table, rec)
	td, off, err := c.locateMut(table, rec)
	if err != nil {
		return err
	}
	if len(vals) != td.NumFields {
		return fmt.Errorf("memdb: WriteRec got %d values for %d fields", len(vals), td.NumFields)
	}
	if err := c.db.checkActive(table, rec, off); err != nil {
		return err
	}
	c.db.putFields(off, 0, vals...)
	c.db.stamp(table, rec, c.pid)
	return nil
}

// WriteFld writes one field of an active record (DBwrite_fld).
func (c *Client) WriteFld(table, rec, field int, v uint32) error {
	defer c.db.guardEnter("DBwrite_fld")()
	defer c.db.clientMutate()()
	if err := c.admit(table); err != nil {
		return err
	}
	defer c.settle(OpWriteFld, table, rec)
	td, off, err := c.locateMut(table, rec)
	if err != nil {
		return err
	}
	if field < 0 || field >= td.NumFields {
		return &BoundsError{What: "field", Index: field, Limit: td.NumFields}
	}
	if err := c.db.checkActive(table, rec, off); err != nil {
		return err
	}
	c.db.putFields(off, field, v)
	c.db.stamp(table, rec, c.pid)
	return nil
}

// Move reassigns a record to another logical group (DBmove).
func (c *Client) Move(table, rec, newGroup int) error {
	defer c.db.guardEnter("DBmove")()
	defer c.db.clientMutate()()
	if err := c.admit(table); err != nil {
		return err
	}
	defer c.settle(OpMove, table, rec)
	_, off, err := c.locateMut(table, rec)
	if err != nil {
		return err
	}
	if err := c.db.checkActive(table, rec, off); err != nil {
		return err
	}
	if err := c.db.checkGroup(table, newGroup); err != nil {
		return err
	}
	if err := c.db.activate(table, rec, off, newGroup); err != nil {
		return err
	}
	c.db.stamp(table, rec, c.pid)
	return nil
}

// Alloc claims the first free record of table, assigns it to group, and
// returns its index. The pre-allocated table is a finite resource: records
// left allocated by failed clients are the "resource leaks" the semantic
// audit reclaims.
//
// The answer is exactly first fit — the lowest free index — in amortised
// O(1): the scan starts at the table's free floor (see DB.allocFloor),
// below which no record is free. Alloc raises the floor past the record it
// claims and Free lowers it to the record it frees; any other region write
// marks every floor stale, and the next Alloc rebuilds them as 0.
func (c *Client) Alloc(table, group int) (int, error) {
	defer c.db.guardEnter("DBalloc")()
	defer c.db.clientMutate()()
	if err := c.admit(table); err != nil {
		return 0, err
	}
	defer c.settle(OpAlloc, table, -1)
	db := c.db
	td, err := readTableDesc(db.region, table)
	if err != nil {
		return 0, err
	}
	if err := db.checkGroup(table, group); err != nil {
		return 0, err
	}
	// readTableDesc validated the table's extent, so every record offset
	// below NumRecords lies inside the region.
	ri := db.allocStart(table, td)
	off := td.Offset + groupDirSize(td.NumGroups) + td.RecordSize*ri
	for ri < td.NumRecords && db.region[off+1] != StatusFree {
		ri++
		off += td.RecordSize
	}
	if ri == td.NumRecords {
		db.allocFloor[table] = ri
		return 0, fmt.Errorf("table %d: %w", table, ErrNoFreeRecord)
	}
	if err := db.activate(table, ri, off, group); err != nil {
		db.region[off+1] = StatusFree
		db.allocFloor[table] = ri
		return 0, err
	}
	db.allocFloor[table] = ri + 1
	db.stamp(table, ri, c.pid)
	return ri, nil
}

// Free releases a record back to the table's free pool.
func (c *Client) Free(table, rec int) error {
	defer c.db.guardEnter("DBfree")()
	defer c.db.clientMutate()()
	if err := c.admit(table); err != nil {
		return err
	}
	defer c.settle(OpFree, table, rec)
	td, off, err := c.locateMut(table, rec)
	if err != nil {
		return err
	}
	if err := c.db.freeAt(table, rec, off, &td); err != nil {
		return err
	}
	c.db.stamp(table, rec, c.pid)
	return nil
}

// Status reports the header status byte of a record via the API path.
func (c *Client) Status(table, rec int) (int, error) {
	defer c.db.guardEnter("DBstatus")()
	if c.closed {
		return 0, ErrClosed
	}
	_, off, err := c.locate(table, rec)
	if err != nil {
		return 0, err
	}
	return int(c.db.region[off+1]), nil
}

// locate resolves (table, rec) through the on-region catalog, surfacing
// corruption as errors instead of wild addresses where detectable.
func (c *Client) locate(table, rec int) (tableDesc, int, error) {
	td, err := readTableDesc(c.db.region, table)
	if err != nil {
		return tableDesc{}, 0, err
	}
	off, err := recordOffset(c.db.region, td, rec)
	if err != nil {
		return tableDesc{}, 0, err
	}
	return td, off, nil
}

// locateMut is locate for the Client mutators. They keep the free floors
// valid only while they write through the table's true layout (see
// DB.floorSafe).
func (c *Client) locateMut(table, rec int) (tableDesc, int, error) {
	td, off, err := c.locate(table, rec)
	if err != nil {
		return tableDesc{}, 0, err
	}
	c.db.floorSafe(table, td)
	return td, off, nil
}

// allocStart returns the record index Alloc's first-fit scan of table
// starts from: the table's free floor, with every floor rebuilt as 0 when
// they are stale, or 0 when td is not the table's true layout.
func (db *DB) allocStart(table int, td tableDesc) int {
	if !db.floorSafe(table, td) {
		return 0
	}
	if !db.floorValid {
		clear(db.allocFloor)
		db.floorValid = true
	}
	return db.allocFloor[table]
}

// floorSafe reports whether td, the live-catalog descriptor a Client
// mutator addresses table through, matches the schema's layout, and marks
// the free floors stale when it does not: a write through a damaged
// descriptor can land on the status byte of any record, of any table.
func (db *DB) floorSafe(table int, td tableDesc) bool {
	t := db.schema.Tables[table]
	if td.Offset == db.tableOffs[table] && td.NumRecords == t.NumRecords &&
		td.NumFields == len(t.Fields) && td.NumGroups == t.Groups {
		return true
	}
	db.floorValid = false
	return false
}

// LastChargedCost returns the most recent charge for op — a convenience
// for workload code accumulating call setup time.
func (c *Client) LastChargedCost(op Op) time.Duration {
	return c.db.costs.Cost(op, c.db.audited)
}
