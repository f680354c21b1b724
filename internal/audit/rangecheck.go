package audit

import (
	"fmt"

	"repro/internal/memdb"
)

// RangeCheck is the dynamic-data audit (§4.3.1): for every active record of
// a dynamic table, each field whose allowable range is recorded in the
// system catalog is verified against that range. An out-of-range field is
// reset to its catalog default and — because the table is dynamic — the
// record is freed as a preemptive measure to stop error propagation. With a
// Restore hook a record whose every bad field has an in-range logged value
// gets those values back instead and stays active.
//
// The range rules are read from the live on-region catalog, so this audit
// genuinely loses rules when the catalog itself is damaged; fields with no
// declared range are unchecked ("lack of enforceable rule", Table 4). A
// table pass decodes the rules once and checks every record against them;
// a damaged field descriptor drops that field's rule for the whole pass.
type RangeCheck struct {
	db       *memdb.DB
	recovery Recovery
	// FreeOnError controls whether out-of-range records in dynamic
	// tables are freed after the field reset (paper default: true).
	FreeOnError bool
	// CheckFreeRecords extends the dynamic-data audit with a robust-
	// data-structure rule: a free record's fields must hold their
	// catalog defaults (Free resets them, and pristine records start
	// there), so any deviation in free space is corruption. Default
	// true.
	CheckFreeRecords bool
	// DetectOnly runs the audit in shadow mode: findings are produced
	// and journaled but no repair touches the region. A hot standby
	// audits this way — its region is the primary's replicated state,
	// and recoveries are deferred to the primary until promotion.
	DetectOnly bool
	// Restore, when set, returns the newest logged value of one field
	// (the operation log's LastField); it is asked once per bad field. A
	// record whose every bad field has an in-range logged value is
	// restored to those values and spared the preemptive free: dynamic
	// data has no pristine image, and the log holds the last value a
	// client was acknowledged for. Otherwise, with FreeOnError, every bad
	// field takes the paper's reset and the record is freed; without it,
	// each field with an in-range logged value is restored and the rest
	// are reset. Never called under DetectOnly.
	Restore func(table, rec, field int) (v uint32, ok bool)
}

var _ FullChecker = (*RangeCheck)(nil)

// NewRangeCheck returns a dynamic-data auditor with the paper's recovery.
func NewRangeCheck(db *memdb.DB, rec Recovery) *RangeCheck {
	return &RangeCheck{db: db, recovery: rec, FreeOnError: true, CheckFreeRecords: true}
}

// Name implements Checker.
func (c *RangeCheck) Name() string { return "dynamic-range" }

// CheckAll audits every dynamic table.
func (c *RangeCheck) CheckAll() []Finding {
	var findings []Finding
	for ti, t := range c.db.Schema().Tables {
		if !t.Dynamic {
			continue
		}
		findings = append(findings, c.CheckTable(ti)...)
	}
	return findings
}

// CheckTable audits every record of table ti against the table's range
// rules, decoded once from the live catalog for the whole pass.
func (c *RangeCheck) CheckTable(ti int) []Finding {
	schema := c.db.Schema()
	if ti < 0 || ti >= len(schema.Tables) || !schema.Tables[ti].Dynamic {
		return nil
	}
	rules := c.rangeRules(ti)
	var findings []Finding
	for ri := 0; ri < schema.Tables[ti].NumRecords; ri++ {
		st, err := c.db.StatusDirect(ti, ri)
		if err != nil {
			continue
		}
		fs := c.checkRecord(ti, ri, st, rules)
		if len(fs) > 0 {
			findings = append(findings, fs...)
			// A repair write cannot reach the catalog, but a damaged
			// table descriptor can point the rules at record bytes:
			// decode again, as per-record CheckRecord calls would.
			rules = c.rangeRules(ti)
		}
	}
	return findings
}

// CheckRecord audits one record; it is also the event-triggered audit's
// unit of work after a database write (§4.3). It decodes the table's range
// rules once per call.
func (c *RangeCheck) CheckRecord(ti, ri int) []Finding {
	st, err := c.db.StatusDirect(ti, ri)
	if err != nil {
		return nil
	}
	var rules []memdb.FieldSpec
	if st == memdb.StatusActive {
		rules = c.rangeRules(ti)
	}
	return c.checkRecord(ti, ri, st, rules)
}

// rangeRules decodes table ti's field rules from the live on-region
// catalog. A field whose descriptor cannot be decoded gets the zero spec,
// which declares no range: no enforceable rule.
func (c *RangeCheck) rangeRules(ti int) []memdb.FieldSpec {
	rules := make([]memdb.FieldSpec, len(c.db.Schema().Tables[ti].Fields))
	for fi := range rules {
		if spec, err := c.db.CatalogFieldSpec(ti, fi); err == nil {
			rules[fi] = spec
		}
	}
	return rules
}

// checkRecord audits record ri of table ti, whose status byte is st,
// against rules (one per field, as rangeRules decodes them).
func (c *RangeCheck) checkRecord(ti, ri, st int, rules []memdb.FieldSpec) []Finding {
	if st != memdb.StatusActive {
		if c.CheckFreeRecords {
			return c.checkFreeRecord(ti, ri)
		}
		return nil
	}
	// Audits access the database directly, bypassing API locks; an
	// intervening client update invalidates the result (§4.3). The
	// version is sampled before and re-validated after the scan.
	verBefore := c.db.Version(ti, ri)

	type bad struct {
		field    int
		value    uint32
		def      uint32
		min, max uint32
		logged   uint32 // the field's in-range logged value, when restorable
		restore  bool
	}
	var bads []bad
	for fi, spec := range rules {
		if !spec.HasRange {
			continue // no enforceable rule for this field
		}
		v, err := c.db.ReadFieldDirect(ti, ri, fi)
		if err != nil {
			continue
		}
		if v < spec.Min || v > spec.Max {
			bads = append(bads, bad{field: fi, value: v, def: spec.Default, min: spec.Min, max: spec.Max})
		}
	}
	if len(bads) == 0 {
		return nil
	}
	if c.db.Version(ti, ri) != verBefore {
		// Intervening update: result invalid, re-run later.
		return []Finding{{
			Class: ClassRange, Action: ActionNone, Table: ti, Record: ri,
			Field: -1, Offset: -1,
			Detail: "audit invalidated by intervening update",
		}}
	}

	restorable := 0
	if c.Restore != nil && !c.DetectOnly {
		for i := range bads {
			b := &bads[i]
			if v, ok := c.Restore(ti, ri, b.field); ok && v >= b.min && v <= b.max {
				b.logged, b.restore = v, true
				restorable++
			}
		}
	}
	// The preemptive free resets every field, so with FreeOnError a record
	// is restored from the log only when all its bad fields are: a partial
	// restore would be undone by the free that follows.
	free := c.FreeOnError && !c.DetectOnly && restorable < len(bads)

	var findings []Finding
	for _, b := range bads {
		off, err := c.db.TrueRecordOffset(ti, ri)
		if err != nil {
			continue
		}
		action, newVal := ActionReset, b.def
		detail := fmt.Sprintf("value %d outside declared range", b.value)
		if c.DetectOnly {
			action = ActionNone
			detail += " (shadow: recovery deferred)"
		} else {
			if b.restore && !free {
				action, newVal = ActionLogRestore, b.logged
				detail += fmt.Sprintf(", restored %d from the log", b.logged)
			}
			if err := c.db.WriteFieldDirect(ti, ri, b.field, newVal); err != nil {
				continue
			}
		}
		f := Finding{
			Class:  ClassRange,
			Action: action,
			Table:  ti,
			Record: ri,
			Field:  b.field,
			Offset: off + memdb.RecordHeaderSize + memdb.FieldSize*b.field,
			Length: memdb.FieldSize,
			Detail: detail,
		}
		findings = append(findings, f)
		c.recovery.note(f)
		c.db.NoteAuditError(ti)
	}
	// A record fully restored from the log holds its acknowledged values
	// again; freeing it would needlessly drop a live call.
	if free {
		off, _ := c.db.TrueRecordOffset(ti, ri)
		if err := c.db.FreeRecordDirect(ti, ri); err == nil {
			f := Finding{
				Class:  ClassRange,
				Action: ActionFree,
				Table:  ti,
				Record: ri,
				Field:  -1,
				Offset: off,
				Length: memdb.RecordHeaderSize,
				Detail: "record freed preemptively after range violation",
			}
			findings = append(findings, f)
			c.recovery.note(f)
		}
	}
	return findings
}

// checkFreeRecord verifies a free record still holds its catalog defaults
// and resets any deviating field.
func (c *RangeCheck) checkFreeRecord(ti, ri int) []Finding {
	schema := c.db.Schema()
	var findings []Finding
	for fi, spec := range schema.Tables[ti].Fields {
		v, err := c.db.ReadFieldDirect(ti, ri, fi)
		if err != nil || v == spec.Default {
			continue
		}
		off, err := c.db.TrueRecordOffset(ti, ri)
		if err != nil {
			continue
		}
		action := ActionReset
		detail := fmt.Sprintf("free record holds %d, expected default %d", v, spec.Default)
		if c.DetectOnly {
			action = ActionNone
			detail += " (shadow: recovery deferred)"
		} else if err := c.db.WriteFieldDirect(ti, ri, fi, spec.Default); err != nil {
			continue
		}
		f := Finding{
			Class:  ClassRange,
			Action: action,
			Table:  ti,
			Record: ri,
			Field:  fi,
			Offset: off + memdb.RecordHeaderSize + memdb.FieldSize*fi,
			Length: memdb.FieldSize,
			Detail: detail,
		}
		findings = append(findings, f)
		c.recovery.note(f)
		c.db.NoteAuditError(ti)
	}
	return findings
}
