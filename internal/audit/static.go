package audit

import (
	"fmt"
	"hash/crc32"

	"repro/internal/memdb"
)

// StaticCheck detects corruption in the static data region — the system
// catalog and static configuration tables — by comparing a golden 32-bit
// CRC taken at startup against a periodically recomputed one (§4.3.1).
// Recovery reloads the affected portion from permanent storage.
type StaticCheck struct {
	db       *memdb.DB
	recovery Recovery
	extents  []memdb.Extent
	golden   []uint32
	// DetectOnly runs the audit in shadow mode (hot standby): damage is
	// diagnosed and journaled but the extent is not reloaded.
	DetectOnly bool
}

var _ FullChecker = (*StaticCheck)(nil)

// NewStaticCheck computes the golden checksum of every static extent from
// permanent storage (db.SnapshotBytes), not from the live region: static
// data never legally changes, and a live region restored from a checkpoint
// or a corrupted image may already carry a flip, which a live golden would
// bless for the life of the process.
func NewStaticCheck(db *memdb.DB, rec Recovery) *StaticCheck {
	exts := db.StaticExtents()
	golden := make([]uint32, len(exts))
	for i, e := range exts {
		golden[i] = crc32.ChecksumIEEE(db.SnapshotBytes()[e.Off : e.Off+e.Len])
	}
	return &StaticCheck{db: db, recovery: rec, extents: exts, golden: golden}
}

// Name implements Checker.
func (c *StaticCheck) Name() string { return "static-data" }

// CheckAll audits every static extent.
func (c *StaticCheck) CheckAll() []Finding {
	var findings []Finding
	for i := range c.extents {
		findings = append(findings, c.checkExtent(i)...)
	}
	return findings
}

// CheckTable audits the static extent belonging to the given table, if the
// table is static; dynamic tables are out of this checker's purview. The
// catalog extent is audited under table index -1 by CheckAll only.
func (c *StaticCheck) CheckTable(table int) []Finding {
	for i, e := range c.extents {
		if e.Name == "catalog" {
			continue
		}
		ti := c.db.Schema().TableIndex(e.Name)
		if ti == table {
			return c.checkExtent(i)
		}
	}
	return nil
}

// checkExtent verifies extent i's checksum; on mismatch it diagnoses the
// damaged bytes against the snapshot, reloads them, and reports one finding
// per damaged byte run.
func (c *StaticCheck) checkExtent(i int) []Finding {
	e := c.extents[i]
	live := c.db.Raw()[e.Off : e.Off+e.Len]
	if crc32.ChecksumIEEE(live) == c.golden[i] {
		return nil
	}
	// Diagnose: static data never legally changes, so the snapshot is
	// ground truth. Locate damaged runs, then reload the extent.
	snap := c.db.SnapshotBytes()[e.Off : e.Off+e.Len]
	var findings []Finding
	run := -1
	table := c.db.Schema().TableIndex(e.Name) // -1 for the catalog
	action := ActionReload
	if c.DetectOnly {
		action = ActionNone
	}
	flush := func(end int) {
		if run < 0 {
			return
		}
		f := Finding{
			Class:  ClassStatic,
			Action: action,
			Table:  table,
			Record: -1,
			Field:  -1,
			Offset: e.Off + run,
			Length: end - run,
			Detail: fmt.Sprintf("static extent %q checksum mismatch", e.Name),
		}
		findings = append(findings, f)
		c.recovery.note(f)
		if table >= 0 {
			c.db.NoteAuditError(table)
		}
		run = -1
	}
	for j := 0; j < len(live); j++ {
		if live[j] != snap[j] {
			if run < 0 {
				run = j
			}
		} else {
			flush(j)
		}
	}
	flush(len(live))
	if c.DetectOnly {
		return findings
	}
	if err := c.db.ReloadExtent(e.Off, e.Len); err != nil {
		// Reload of a validated extent cannot fail; if it somehow does,
		// record the failure rather than dropping it silently.
		findings = append(findings, Finding{
			Class: ClassStatic, Action: ActionNone, Table: table,
			Record: -1, Field: -1, Offset: e.Off, Length: e.Len,
			Detail: fmt.Sprintf("reload failed: %v", err),
		})
	}
	return findings
}
