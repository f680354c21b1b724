// Package audit implements the paper's database audit subsystem (§4): an
// extensible framework of audit elements — heartbeat, progress indicator,
// and the error-detection/recovery audits (static checksum, dynamic range
// check, structural check, semantic referential-integrity check) — driven
// by periodic and event triggers, with the prioritized-triggering and
// selective-monitoring optimizations of §4.4.
package audit

import (
	"fmt"

	"repro/internal/memdb"
)

// Class identifies which audit technique produced a finding, matching the
// error-type columns of the paper's Table 4.
type Class int

// Finding classes.
const (
	// ClassStatic: corruption in the static data region (catalog or
	// static tables) caught by the golden-checksum audit.
	ClassStatic Class = iota + 1
	// ClassStructural: record header misalignment or identity corruption
	// caught by the structural audit.
	ClassStructural
	// ClassRange: a dynamic field outside its catalog-declared bounds.
	ClassRange
	// ClassSemantic: a broken referential-integrity loop or orphan record.
	ClassSemantic
	// ClassSuspect: a statistically rare attribute value flagged by
	// selective monitoring; needs confirmation by other audits.
	ClassSuspect
	// ClassDeadlock: a stalled lock caught by the progress indicator.
	ClassDeadlock
	// ClassFailover: a durability/replication event that escalated past
	// in-place repair — most notably a standby promoting itself after
	// losing its primary.
	ClassFailover
	// ClassControlFlow: a PECOS assertion tripped inside a server-side
	// procedure — program text, not database data, is corrupt. Raised by
	// the serving plane so control-flow detections ride the same
	// escalation ladder as database audit findings.
	ClassControlFlow
)

// String returns the class name.
func (c Class) String() string {
	switch c {
	case ClassStatic:
		return "static"
	case ClassStructural:
		return "structural"
	case ClassRange:
		return "range"
	case ClassSemantic:
		return "semantic"
	case ClassSuspect:
		return "suspect"
	case ClassDeadlock:
		return "deadlock"
	case ClassFailover:
		return "failover"
	case ClassControlFlow:
		return "control-flow"
	default:
		return "unknown"
	}
}

// Action is the recovery applied to a finding (§4.3 recovery paragraphs).
type Action int

// Recovery actions.
const (
	// ActionNone: detected but no recovery applied (e.g. suspect values).
	ActionNone Action = iota + 1
	// ActionReset: field restored to its catalog default.
	ActionReset
	// ActionFree: record freed (drops at most one call — tolerable).
	ActionFree
	// ActionReload: extent reloaded from permanent storage.
	ActionReload
	// ActionReloadAll: entire database reloaded (structural damage).
	ActionReloadAll
	// ActionRewriteHeader: single header identity corrected from offset.
	ActionRewriteHeader
	// ActionTerminate: offending client process terminated.
	ActionTerminate
	// ActionRelink: logical-group chains rebuilt from record labels.
	ActionRelink
	// ActionLogRestore: field restored to its newest logged value from
	// the operation log — an extension of the paper's reset, used when
	// the static image cannot help (dynamic data has no pristine value).
	ActionLogRestore
	// ActionPromote: the fifth escalation level — the standby took over
	// as primary.
	ActionPromote
	// ActionReloadText: a registered procedure's live text segment was
	// restored from its pristine instrumented image — the paper's
	// "reload from permanent storage" applied to program text.
	ActionReloadText
)

// String returns the action name.
func (a Action) String() string {
	switch a {
	case ActionNone:
		return "none"
	case ActionReset:
		return "reset"
	case ActionFree:
		return "free"
	case ActionReload:
		return "reload"
	case ActionReloadAll:
		return "reload-all"
	case ActionRewriteHeader:
		return "rewrite-header"
	case ActionTerminate:
		return "terminate"
	case ActionRelink:
		return "relink"
	case ActionLogRestore:
		return "log-restore"
	case ActionPromote:
		return "promote"
	case ActionReloadText:
		return "reload-text"
	default:
		return "unknown"
	}
}

// Finding is one detected error together with the recovery applied.
type Finding struct {
	Class  Class
	Action Action
	Table  int // -1 when not table-scoped
	Record int // -1 when not record-scoped
	Field  int // -1 when not field-scoped
	Offset int // region byte offset of the damage when known, else -1
	Length int // damaged extent length when known, else 0
	PID    int // client terminated by recovery, 0 when none
	Detail string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s/%s t=%d r=%d f=%d off=%d %s",
		f.Class, f.Action, f.Table, f.Record, f.Field, f.Offset, f.Detail)
}

// Covers reports whether the finding's damage region covers the given
// region byte offset — used by experiments to match detected findings
// against injected errors.
func (f Finding) Covers(off int) bool {
	if f.Offset < 0 {
		return false
	}
	length := f.Length
	if length <= 0 {
		length = 1
	}
	return off >= f.Offset && off < f.Offset+length
}

// Recovery carries the environment hooks recovery actions need. Zero value
// disables client termination.
type Recovery struct {
	// TerminateClient kills the client process/thread owning a zombie
	// record or a stuck lock. May be nil.
	TerminateClient func(pid int)
	// OnFinding observes every finding as it is produced. May be nil.
	OnFinding func(Finding)
}

func (r Recovery) terminate(pid int) {
	if r.TerminateClient != nil && pid != 0 {
		r.TerminateClient(pid)
	}
}

func (r Recovery) note(f Finding) {
	if r.OnFinding != nil {
		r.OnFinding(f)
	}
}

// Stats aggregates findings by class.
type Stats struct {
	ByClass     map[Class]int
	Repairs     int
	Invalidated int // audits voided by an intervening client update
	Terminated  int
}

// NewStats returns an empty statistics accumulator.
func NewStats() *Stats {
	return &Stats{ByClass: make(map[Class]int)}
}

// Add folds a batch of findings into the stats.
func (s *Stats) Add(fs []Finding) {
	for _, f := range fs {
		s.ByClass[f.Class]++
		if f.Action != ActionNone {
			s.Repairs++
		}
		if f.Action == ActionTerminate || f.PID != 0 {
			s.Terminated++
		}
	}
}

// Total returns the total finding count.
func (s *Stats) Total() int {
	n := 0
	for _, v := range s.ByClass {
		n += v
	}
	return n
}

// Checker is one audit technique: given a scope it detects errors and
// applies recovery. New techniques implement Checker and register with the
// audit element — the paper's "new elements can be incorporated" claim.
type Checker interface {
	// Name identifies the technique.
	Name() string
	// CheckTable audits one table, returning findings (with recovery
	// already applied).
	CheckTable(table int) []Finding
}

// FullChecker is implemented by techniques that also support a whole-
// database pass not decomposable by table (e.g. the static checksum).
type FullChecker interface {
	Checker
	// CheckAll audits everything in the checker's purview.
	CheckAll() []Finding
}

// tableCount returns the number of schema tables, shared by checkers.
func tableCount(db *memdb.DB) int { return len(db.Schema().Tables) }
