package memdb

import "time"

// The framework adds redundancy "without modifying the original database
// structure" (§2, §4.3.3): per-record last-accessor identity, last-access
// time, and access counters live in shadow arrays alongside the region, and
// per-table counters feed prioritized audit triggering (§4.4.1).

// RecordMeta is the redundant data structure associated with each database
// record. The semantic audit uses LastPID to identify and terminate the
// client that owns a zombie record; the version counter lets audits detect
// intervening updates and invalidate their result (§4.3).
type RecordMeta struct {
	LastPID    int
	LastAccess time.Duration
	Reads      uint64
	Writes     uint64
	Version    uint64
}

// TableStats aggregates per-table activity and error history for
// prioritized audit triggering.
type TableStats struct {
	Reads      uint64
	Writes     uint64
	ErrorsLast uint64 // errors detected in the last audit cycle
	ErrorsAll  uint64 // errors detected since startup
}

// Accesses returns total reads+writes.
func (s TableStats) Accesses() uint64 { return s.Reads + s.Writes }

// shadow holds all per-record and per-table metadata.
type shadow struct {
	records [][]RecordMeta // [table][record]
	tables  []TableStats
}

func newShadow(s Schema) *shadow {
	sh := &shadow{
		records: make([][]RecordMeta, len(s.Tables)),
		tables:  make([]TableStats, len(s.Tables)),
	}
	for i, t := range s.Tables {
		sh.records[i] = make([]RecordMeta, t.NumRecords)
	}
	return sh
}

func (sh *shadow) noteRead(table, rec, pid int, now time.Duration) {
	if !sh.valid(table, rec) {
		return
	}
	m := &sh.records[table][rec]
	m.LastPID = pid
	m.LastAccess = now
	m.Reads++
	sh.tables[table].Reads++
}

// The PIDs a stamp carries besides a Client's, whose PIDs start at 1.
const (
	replayPID = 0  // a replayed write: an access by no live session
	repairPID = -1 // an audit repair: no access at all
)

// stamp records one mutation of record ri of table ti in its shadow
// metadata; every record mutation goes through it. It bumps the record's
// version, so an audit of the record in flight invalidates its result
// (§4.3). A write, from a Client (pid) or replayed (replayPID), also counts
// an access: LastPID, LastAccess, and the record's and the table's Writes.
// An audit repair (repairPID) counts none: the semantic audit still sees
// the record's last client and its age.
func (db *DB) stamp(ti, ri, pid int) {
	sh := db.shadow
	if !sh.valid(ti, ri) {
		return
	}
	m := &sh.records[ti][ri]
	m.Version++
	if pid == repairPID {
		return
	}
	m.LastPID = pid
	m.LastAccess = db.now()
	m.Writes++
	sh.tables[ti].Writes++
}

func (sh *shadow) valid(table, rec int) bool {
	return table >= 0 && table < len(sh.records) && rec >= 0 && rec < len(sh.records[table])
}
