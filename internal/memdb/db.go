package memdb

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ipc"
)

// Extent is a half-open byte range [Off, Off+Len) of the region.
type Extent struct {
	Off, Len int
	Name     string
}

// lockState tracks a per-table lock. The API "maintains and manipulates
// locks transparently to the client processes" (§4.2); a crashed client can
// leave a lock behind, which the progress-indicator audit element resolves.
type lockState struct {
	held   bool
	holder int // client PID
	since  time.Duration
}

// DB is the in-memory database: one contiguous byte region, a pristine
// disk snapshot, lock table, shadow metadata, and the optional audit hook.
//
// DB has one owner goroutine: every Client call, mutation and audit runs on
// it (the simulation event loop, or a server core's turn holder), matching the
// single shared memory region of the target controller. Other goroutines
// may only read, through a View (see view.go).
type DB struct {
	schema   Schema
	region   []byte
	snapshot []byte // "permanent storage" copy for reload recovery
	shadow   *shadow
	locks    []lockState
	now      func() time.Duration
	costs    CostModel
	counts   *OpCounts
	queue    *ipc.Queue // audit notification channel; nil when unaudited
	audited  bool
	nextPID  int
	clients  map[int]*Client
	guard    *guardState   // debug concurrent-access detector; nil when off
	metrics  *boundMetrics // gauges published by RefreshMetrics; nil when unbound

	// tableOffs[t] is table t's region offset, computed once from the
	// schema: the true layout the audits and View reads address records by.
	tableOffs []int

	// Read fast lane (see view.go). regionMu serializes region access
	// between the single writer and View readers. viewReads accumulates
	// per-table View read counts off the owner thread until FoldViewReads
	// drains them into the shadow activity stats.
	regionMu  sync.RWMutex
	viewReads []atomic.Uint64

	// Free floors (see Client.Alloc). While floorValid is set, no record
	// of table t below allocFloor[t] is free, so DBalloc's first-fit scan
	// starts there. mutate and Raw clear the flag; only the Client
	// mutators, which maintain the floors, write the region without
	// clearing it.
	allocFloor []int
	floorValid bool
}

// Option configures a DB.
type Option func(*DB)

// WithClock supplies the virtual-time source for shadow timestamps and lock
// ages. Defaults to a zero clock.
func WithClock(now func() time.Duration) Option {
	return func(db *DB) { db.now = now }
}

// New builds the database region for schema, formats every table, and takes
// the startup snapshot.
func New(schema Schema, opts ...Option) (*DB, error) {
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	total, tableOffs, fieldOffs := layoutSize(schema)
	db := &DB{
		schema:     schema,
		region:     make([]byte, total),
		tableOffs:  tableOffs,
		allocFloor: make([]int, len(schema.Tables)),
		shadow:     newShadow(schema),
		locks:      make([]lockState, len(schema.Tables)),
		now:        func() time.Duration { return 0 },
		costs:      DefaultCostModel(),
		counts:     newOpCounts(),
		clients:    make(map[int]*Client),
	}
	db.viewReads = make([]atomic.Uint64, len(schema.Tables))
	for _, opt := range opts {
		opt(db)
	}
	writeCatalog(db.region, schema, tableOffs, fieldOffs)
	db.snapshot = make([]byte, total)
	copy(db.snapshot, db.region)
	return db, nil
}

// Schema returns the database schema.
func (db *DB) Schema() Schema { return db.schema }

// Size returns the region length in bytes.
func (db *DB) Size() int { return len(db.region) }

// EnableAudit attaches the IPC queue over which the modified API notifies
// the audit process, and switches the cost model to its audited overheads.
func (db *DB) EnableAudit(q *ipc.Queue) {
	db.queue = q
	db.audited = true
}

// DisableAudit detaches the audit hook (used by the Figure 4 overhead
// comparison and the "without audit" campaigns).
func (db *DB) DisableAudit() {
	db.queue = nil
	db.audited = false
}

// Audited reports whether audit support is enabled.
func (db *DB) Audited() bool { return db.audited }

// Counts returns the API invocation tally.
func (db *DB) Counts() *OpCounts { return db.counts }

// Connect opens a client connection (the paper's DBinit) and returns the
// session handle. Each connection carries a unique process ID.
func (db *DB) Connect() (*Client, error) {
	defer db.guardEnter("DBinit")()
	db.nextPID++
	pid := db.nextPID
	c := &Client{db: db, pid: pid}
	db.clients[pid] = c
	db.charge(OpInit, pid, -1, -1)
	return c, nil
}

// ClientByPID returns the connected client with the given PID, or nil.
func (db *DB) ClientByPID(pid int) *Client { return db.clients[pid] }

// charge accounts virtual cost for op and posts the audit notification.
// Returns the charged duration so clients can accumulate setup time.
func (db *DB) charge(op Op, pid, table, record int) time.Duration {
	d := db.costs.Cost(op, db.audited)
	db.counts.note(op, d)
	if db.queue != nil {
		kind := ipc.MsgDBAccess
		switch op {
		case OpWriteRec, OpWriteFld, OpMove, OpAlloc, OpFree:
			kind = ipc.MsgDBWrite
		}
		// A full queue only loses one notification; the audit process
		// recovers on the next message, so drops are tolerated here.
		_ = db.queue.TrySend(ipc.Message{
			Kind:   kind,
			PID:    pid,
			Table:  table,
			Record: record,
			Op:     op.String(),
			At:     db.now(),
		})
	}
	return d
}

// acquire takes table's lock for pid, or reports the holder.
func (db *DB) acquire(table, pid int) error {
	if table < 0 || table >= len(db.locks) {
		return &BoundsError{What: "table", Index: table, Limit: len(db.locks)}
	}
	l := &db.locks[table]
	if l.held && l.holder != pid {
		return fmt.Errorf("table %d held by pid %d since %v: %w", table, l.holder, l.since, ErrLocked)
	}
	if !l.held {
		l.held = true
		l.holder = pid
		l.since = db.now()
	}
	return nil
}

// release drops table's lock if pid holds it.
func (db *DB) release(table, pid int) {
	if table < 0 || table >= len(db.locks) {
		return
	}
	l := &db.locks[table]
	if l.held && l.holder == pid {
		*l = lockState{}
	}
}

// LockHolder reports the holder PID and hold duration of table's lock.
// held is false when the lock is free.
func (db *DB) LockHolder(table int) (pid int, heldFor time.Duration, held bool) {
	if table < 0 || table >= len(db.locks) {
		return 0, 0, false
	}
	l := db.locks[table]
	if !l.held {
		return 0, 0, false
	}
	return l.holder, db.now() - l.since, true
}

// ReleaseAllLocks force-releases every lock held by pid. The progress
// indicator calls this after terminating a stuck client (§4.2 recovery).
func (db *DB) ReleaseAllLocks(pid int) int {
	n := 0
	for i := range db.locks {
		if db.locks[i].held && db.locks[i].holder == pid {
			db.locks[i] = lockState{}
			n++
		}
	}
	return n
}

// --- Direct memory access (audit side) ---------------------------------
//
// Audit elements access the database directly, bypassing API locking, "to
// reduce contention with database clients" (§4). They use record versions
// from the shadow metadata to detect intervening updates.

// Raw returns the live region. Callers must treat it as volatile shared
// memory; it is exposed for audits and the error injector. Raw marks the
// free floors stale because its caller may write through the slice, so a
// slice kept across later Client calls must not be written: call Raw
// again for each write. Owner-thread only.
func (db *DB) Raw() []byte {
	db.floorValid = false
	return db.region
}

// SnapshotBytes returns the pristine startup image ("permanent storage").
func (db *DB) SnapshotBytes() []byte { return db.snapshot }

// FlipBit flips one bit of the live region — the injector's database error
// model (random bit errors, §5.1).
func (db *DB) FlipBit(byteOff int, bit uint) error {
	if byteOff < 0 || byteOff >= len(db.region) {
		return &BoundsError{What: "byte", Index: byteOff, Limit: len(db.region)}
	}
	if bit > 7 {
		return &BoundsError{What: "bit", Index: int(bit), Limit: 8}
	}
	defer db.mutate()()
	db.region[byteOff] ^= 1 << bit
	return nil
}

// ReloadExtent restores [off, off+n) from the snapshot — the paper's
// "reload the affected portion from permanent storage" recovery.
func (db *DB) ReloadExtent(off, n int) error {
	if off < 0 || n < 0 || off+n > len(db.region) {
		return &BoundsError{What: "extent", Index: off + n, Limit: len(db.region)}
	}
	defer db.mutate()()
	copy(db.region[off:off+n], db.snapshot[off:off+n])
	return nil
}

// ReloadAll restores the entire database from the snapshot — the recovery
// for structural damage spanning multiple records (§4.3.2).
func (db *DB) ReloadAll() {
	defer db.mutate()()
	copy(db.region, db.snapshot)
}

// CatalogExtent returns the byte range of the system catalog, computed from
// the schema (not the possibly corrupted on-region catalog).
func (db *DB) CatalogExtent() Extent {
	end := len(db.region)
	if len(db.tableOffs) > 0 {
		end = db.tableOffs[0]
	}
	return Extent{Off: 0, Len: end, Name: "catalog"}
}

// TableExtent returns the byte range of table ti, computed from the schema.
func (db *DB) TableExtent(ti int) (Extent, error) {
	if ti < 0 || ti >= len(db.schema.Tables) {
		return Extent{}, &BoundsError{What: "table", Index: ti, Limit: len(db.schema.Tables)}
	}
	t := db.schema.Tables[ti]
	recSize := RecordHeaderSize + FieldSize*len(t.Fields)
	length := groupDirSize(t.Groups) + recSize*t.NumRecords
	return Extent{Off: db.tableOffs[ti], Len: length, Name: t.Name}, nil
}

// StaticExtents returns the extents covered by the golden static checksum:
// the system catalog plus every non-dynamic table (§4.3.1).
func (db *DB) StaticExtents() []Extent {
	exts := []Extent{db.CatalogExtent()}
	for i, t := range db.schema.Tables {
		if t.Dynamic {
			continue
		}
		ext, err := db.TableExtent(i)
		if err != nil {
			continue
		}
		exts = append(exts, ext)
	}
	return exts
}

// TrueRecordOffset computes record ri of table ti's offset from the schema,
// independent of catalog state. The structural audit uses it: "calculates
// the offset of each record header ... based on record sizes stored in
// system tables (all record sizes are fixed and known)".
func (db *DB) TrueRecordOffset(ti, ri int) (int, error) {
	if ti < 0 || ti >= len(db.schema.Tables) {
		return 0, &BoundsError{What: "table", Index: ti, Limit: len(db.schema.Tables)}
	}
	t := db.schema.Tables[ti]
	if ri < 0 || ri >= t.NumRecords {
		return 0, &BoundsError{What: "record", Index: ri, Limit: t.NumRecords}
	}
	recSize := RecordHeaderSize + FieldSize*len(t.Fields)
	return db.tableOffs[ti] + groupDirSize(t.Groups) + recSize*ri, nil
}

// HeaderAt decodes the record header at a known-true offset.
func (db *DB) HeaderAt(off int) Header { return decodeHeader(db.region, off) }

// RewriteHeader restores the header of record ri in table ti to its correct
// identity, preserving status/group/link fields — the structural audit's
// single-error correction ("the correct record ID can be inferred from the
// offset within the database").
func (db *DB) RewriteHeader(ti, ri int) error {
	off, err := db.TrueRecordOffset(ti, ri)
	if err != nil {
		return err
	}
	defer db.mutate()()
	db.region[off] = uint8(ti)
	putU16(db.region, off+2, uint16(ri))
	return nil
}

// ResetLink restores the group-link header field of record ri in table ti
// to the unlinked state — the structural audit's repair for a corrupted
// logical-adjacency index.
func (db *DB) ResetLink(ti, ri int) error {
	off, err := db.TrueRecordOffset(ti, ri)
	if err != nil {
		return err
	}
	defer db.mutate()()
	putU16(db.region, off+6, NilIndex)
	return nil
}

// ReadFieldDirect reads field fi of record ri in table ti using true
// offsets (audit path, no locks, no catalog dependence).
func (db *DB) ReadFieldDirect(ti, ri, fi int) (uint32, error) {
	off, err := db.TrueRecordOffset(ti, ri)
	if err != nil {
		return 0, err
	}
	if fi < 0 || fi >= len(db.schema.Tables[ti].Fields) {
		return 0, &BoundsError{What: "field", Index: fi, Limit: len(db.schema.Tables[ti].Fields)}
	}
	return getU32(db.region, off+RecordHeaderSize+FieldSize*fi), nil
}

// WriteFieldDirect writes field fi of record ri in table ti (audit recovery
// resetting or restoring a field) and stamps the repair, which bumps the
// record's shadow version, so an in-flight audit of the record invalidates.
func (db *DB) WriteFieldDirect(ti, ri, fi int, v uint32) error {
	return db.apply(OpWriteFld, ti, ri, fi, 0, []uint32{v}, repairPID)
}

// FreeRecordDirect frees record ri of table ti (audit recovery: freeing a
// zombie record drops at most one active call, which the environment
// tolerates) and stamps the repair.
func (db *DB) FreeRecordDirect(ti, ri int) error {
	return db.apply(OpFree, ti, ri, 0, 0, nil, repairPID)
}

// StatusDirect reports the status byte of record ri in table ti.
func (db *DB) StatusDirect(ti, ri int) (int, error) {
	off, err := db.TrueRecordOffset(ti, ri)
	if err != nil {
		return 0, err
	}
	return int(db.region[off+1]), nil
}

// SnapshotField reads field fi of record ri in table ti from the pristine
// startup snapshot — the ground truth for static configuration data.
func (db *DB) SnapshotField(ti, ri, fi int) (uint32, error) {
	off, err := db.TrueRecordOffset(ti, ri)
	if err != nil {
		return 0, err
	}
	if fi < 0 || fi >= len(db.schema.Tables[ti].Fields) {
		return 0, &BoundsError{What: "field", Index: fi, Limit: len(db.schema.Tables[ti].Fields)}
	}
	return getU32(db.snapshot, off+RecordHeaderSize+FieldSize*fi), nil
}

// Location describes what a region byte offset belongs to.
type Location struct {
	// Catalog is true for bytes inside the system catalog.
	Catalog bool
	// Table and Record identify the containing record (when !Catalog).
	Table, Record int
	// GroupDir is true for bytes inside a table's logical-group chain
	// directory.
	GroupDir bool
	// Header is true for record-header bytes; otherwise Field names the
	// containing field.
	Header bool
	Field  int
}

// Locate maps a region byte offset to its logical location, using the
// schema's true layout. Experiments use it to classify injected errors by
// the audit technique responsible for that region.
func (db *DB) Locate(off int) (Location, error) {
	if off < 0 || off >= len(db.region) {
		return Location{}, &BoundsError{What: "byte", Index: off, Limit: len(db.region)}
	}
	tableOffs := db.tableOffs
	if len(tableOffs) == 0 || off < tableOffs[0] {
		return Location{Catalog: true, Table: -1, Record: -1, Field: -1}, nil
	}
	for ti := len(db.schema.Tables) - 1; ti >= 0; ti-- {
		if off < tableOffs[ti] {
			continue
		}
		t := db.schema.Tables[ti]
		recSize := RecordHeaderSize + FieldSize*len(t.Fields)
		rel := off - tableOffs[ti]
		if rel < groupDirSize(t.Groups) {
			return Location{Table: ti, Record: -1, Field: -1, GroupDir: true}, nil
		}
		rel -= groupDirSize(t.Groups)
		ri := rel / recSize
		if ri >= t.NumRecords {
			break
		}
		inRec := rel % recSize
		loc := Location{Table: ti, Record: ri, Field: -1}
		if inRec < RecordHeaderSize {
			loc.Header = true
		} else {
			loc.Field = (inRec - RecordHeaderSize) / FieldSize
		}
		return loc, nil
	}
	return Location{}, fmt.Errorf("memdb: offset %d in table padding", off)
}

// CatalogFieldSpec decodes field fi of table ti from the live on-region
// catalog. The dynamic-data audit reads its range rules this way (§4.3.1),
// so catalog corruption genuinely degrades audit rules, as in the paper.
func (db *DB) CatalogFieldSpec(ti, fi int) (FieldSpec, error) {
	td, err := readTableDesc(db.region, ti)
	if err != nil {
		return FieldSpec{}, err
	}
	fd, err := readFieldDesc(db.region, td, fi)
	if err != nil {
		return FieldSpec{}, err
	}
	return FieldSpec{
		Kind:     fd.Kind,
		HasRange: fd.HasRange,
		Min:      fd.Min,
		Max:      fd.Max,
		Default:  fd.Default,
	}, nil
}

// --- Shadow metadata accessors ------------------------------------------

// Meta returns a copy of the redundant metadata for record ri of table ti.
func (db *DB) Meta(ti, ri int) (RecordMeta, error) {
	if !db.shadow.valid(ti, ri) {
		return RecordMeta{}, &BoundsError{What: "record", Index: ri, Limit: -1}
	}
	return db.shadow.records[ti][ri], nil
}

// Version returns the shadow version counter of record ri in table ti; the
// audit reads it before and after a check to detect intervening updates.
func (db *DB) Version(ti, ri int) uint64 {
	if !db.shadow.valid(ti, ri) {
		return 0
	}
	return db.shadow.records[ti][ri].Version
}

// TableStats returns a copy of table ti's activity counters.
func (db *DB) TableStats(ti int) TableStats {
	if ti < 0 || ti >= len(db.shadow.tables) {
		return TableStats{}
	}
	return db.shadow.tables[ti]
}

// NoteAuditError records an error detected in table ti for the prioritized
// trigger's error history.
func (db *DB) NoteAuditError(ti int) {
	if ti < 0 || ti >= len(db.shadow.tables) {
		return
	}
	db.shadow.tables[ti].ErrorsLast++
	db.shadow.tables[ti].ErrorsAll++
}

// EndAuditCycle rolls the per-cycle error counters, returning the totals of
// the finished cycle.
func (db *DB) EndAuditCycle() []uint64 {
	out := make([]uint64, len(db.shadow.tables))
	for i := range db.shadow.tables {
		out[i] = db.shadow.tables[i].ErrorsLast
		db.shadow.tables[i].ErrorsLast = 0
	}
	return out
}
