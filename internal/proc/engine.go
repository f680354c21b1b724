package proc

import (
	"fmt"

	"repro/internal/memdb"
	"repro/internal/pecos"
	"repro/internal/trace"
	"repro/internal/vm"
	"repro/internal/wal"
)

// Status classifies one execution.
type Status int

// Execution outcomes.
const (
	// StatusOK: the program halted cleanly and its staged mutations were
	// applied.
	StatusOK Status = iota + 1
	// StatusViolation: a PECOS assertion caught an impending illegal
	// transfer; the procedure was aborted with no mutation committed.
	StatusViolation
	// StatusFault: the program crashed on an unhandled trap or exhausted
	// its step budget (hang); aborted with no mutation committed.
	StatusFault
	// StatusCommitFail: the program halted cleanly but a staged mutation
	// was rejected by the database API (bounds, inactive record, ...).
	// Mutations preceding the failure were applied.
	StatusCommitFail
)

// String returns the outcome name.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusViolation:
		return "violation"
	case StatusFault:
		return "fault"
	case StatusCommitFail:
		return "commit-fail"
	default:
		return "unknown"
	}
}

// Result is one execution's outcome.
type Result struct {
	Status Status
	// Out carries the values the program emitted (the PROC reply vector).
	Out []uint32
	// Steps is the instruction count executed.
	Steps uint64
	// Reason is the abort diagnostic for violations and faults.
	Reason string
	// AssertPC/Target are the offending signature pair on a violation.
	AssertPC uint32
	Target   uint32
	// Err is the database error on StatusCommitFail.
	Err error
	// Applied lists the mutations that reached the database, in program
	// order, as operation-log records (Seq and Trace unset; Rec is the
	// index the Session was called with), so the server logs procedure
	// effects like any other write.
	Applied []wal.Record
}

// Procedure syscall numbers — the ABI between the assembly library and the
// engine's database bridge. Inputs ride in r1..r4; results come back in r0
// with a 1/0 status in r15 (the bridge writes no other register).
const (
	sysArgc  = 1 // r0 = argument count
	sysArg   = 2 // r1 = index          → r0 = argument value (0 out of range)
	sysRdFld = 3 // r1,r2,r3 = t,r,f    → r0 = value (through the write set), r15 = ok
	sysWrFld = 4 // r1,r2,r3,r4 = t,r,f,v staged until commit
	sysAlloc = 5 // r1,r2 = table,group → r0 = record, or allocFail
	sysFree  = 6 // r1,r2 = table,rec     staged until commit
	sysMove  = 7 // r1,r2,r3 = t,r,group  staged until commit
	sysEmit  = 8 // r1 = value appended to the reply vector
)

// allocFail is the in-program allocation-failure sentinel (the same
// convention as the offline call-processing client).
const allocFail = 65535

// DefaultStepBudget bounds one execution; exhausting it with the thread
// still runnable is the engine's hang detector.
const DefaultStepBudget = 100_000

// maxEmit bounds the reply vector a procedure can build.
const maxEmit = 1024

// Session is the database surface a procedure execution drives: exactly
// the five calls the stage issues. *memdb.Client satisfies it, which is
// the direct single-database path; the sharded server substitutes an
// adapter that routes each call to the shard owning the record while
// every shard's turn is held at the procedure barrier.
type Session interface {
	ReadFld(table, rec, field int) (uint32, error)
	WriteFld(table, rec, field int, val uint32) error
	Alloc(table, group int) (int, error)
	Free(table, rec int) error
	Move(table, rec, group int) error
}

var _ Session = (*memdb.Client)(nil)

// Engine executes registered procedures against a live database session.
// One engine serves every procedure; only the turn holder uses it, like
// the session clients it drives.
type Engine struct {
	// Ring, when set, receives the PECOS violation events (trace-joined to
	// the request that ran the procedure).
	Ring *trace.Ring
}

// NewEngine builds an engine. Each execution runs on a vm.DefaultConfig VM
// for at most DefaultStepBudget steps.
func NewEngine() *Engine { return &Engine{} }

// Exec runs p against sess with the given arguments. tid correlates the
// execution's trace events with the originating request. The procedure's
// own counters are updated here (by the turn holder).
//
// Mutation discipline: writes, frees, and moves are staged and applied only
// after a clean halt, so an aborted procedure commits nothing. Reads see
// the procedure's own staged writes. Allocations apply eagerly (later
// operations need the record live) and are compensated by a free on abort.
func (e *Engine) Exec(p *Procedure, sess Session, args []uint32, tid uint64) Result {
	p.Execs++
	st := &stage{sess: sess, writes: make(map[[3]int]uint32)}
	out := make([]uint32, 0, 8)

	bridge := func(t *vm.Thread, num uint32) vm.Trap {
		switch num {
		case sysArgc:
			t.Regs[0] = uint32(len(args))
		case sysArg:
			t.Regs[0] = 0
			if i := int(t.Regs[1]); i >= 0 && i < len(args) {
				t.Regs[0] = args[i]
			}
		case sysRdFld:
			v, ok := st.read(int(t.Regs[1]), int(t.Regs[2]), int(t.Regs[3]))
			t.Regs[0], t.Regs[15] = v, boolReg(ok)
		case sysWrFld:
			st.write(int(t.Regs[1]), int(t.Regs[2]), int(t.Regs[3]), t.Regs[4])
			t.Regs[15] = 1
		case sysAlloc:
			t.Regs[0] = st.alloc(int(t.Regs[1]), int(t.Regs[2]))
		case sysFree:
			st.free(int(t.Regs[1]), int(t.Regs[2]))
			t.Regs[15] = 1
		case sysMove:
			st.move(int(t.Regs[1]), int(t.Regs[2]), int(t.Regs[3]))
			t.Regs[15] = 1
		case sysEmit:
			if len(out) < maxEmit {
				out = append(out, t.Regs[1])
			}
		default:
			return vm.TrapIllegal
		}
		return vm.TrapNone
	}

	m, err := vm.New(p.text, 1, vm.DefaultConfig(), bridge)
	if err != nil {
		p.Faults++
		return Result{Status: StatusFault, Reason: "vm: " + err.Error()}
	}
	rt := pecos.NewRuntime(p.ins)
	rt.Trace = e.Ring
	rt.TraceID = tid
	m.OnTrap = rt.OnTrap

	steps := m.Run(DefaultStepBudget)
	t := m.Thread(0)
	switch {
	case rt.Detections > 0:
		st.rollback()
		p.Violations++
		return Result{
			Status: StatusViolation, Steps: steps,
			AssertPC: t.TrapPC, Target: t.TrapTarget,
			Reason: "control-flow violation (PECOS assertion)",
		}
	case m.Crashed():
		st.rollback()
		p.Faults++
		return Result{
			Status: StatusFault, Steps: steps,
			Reason: fmt.Sprintf("trap %s at pc=%d", t.Trap, t.TrapPC),
		}
	case m.Runnable() > 0:
		st.rollback()
		p.Faults++
		return Result{Status: StatusFault, Steps: steps, Reason: "step budget exhausted (hang)"}
	}
	applied, err := st.commit()
	if err != nil {
		return Result{Status: StatusCommitFail, Steps: steps, Err: err, Applied: applied, Out: out}
	}
	return Result{Status: StatusOK, Steps: steps, Out: out, Applied: applied}
}

func boolReg(ok bool) uint32 {
	if ok {
		return 1
	}
	return 0
}

// stage is one execution's mutation buffer: the ordered operation list, the
// read-your-writes overlay, and the eager-allocation ledger.
type stage struct {
	sess   Session
	ops    []wal.Record
	writes map[[3]int]uint32
	allocs []wal.Record // eager allocations, for abort compensation
}

// read resolves a field through the staged write set, falling back to the
// live database. Staged frees and moves do not mask reads — the procedure
// observes the record state its writes will produce, not its releases.
func (st *stage) read(table, rec, field int) (uint32, bool) {
	if v, ok := st.writes[[3]int{table, rec, field}]; ok {
		return v, true
	}
	v, err := st.sess.ReadFld(table, rec, field)
	if err != nil {
		return 0, false
	}
	return v, true
}

func (st *stage) write(table, rec, field int, v uint32) {
	st.writes[[3]int{table, rec, field}] = v
	st.ops = append(st.ops, wal.Record{Op: wal.OpWriteFld, Table: int32(table), Rec: int32(rec),
		Field: int32(field), Vals: []uint32{v}})
}

// alloc claims a record immediately — later syscalls address it by index —
// and records the claim both in program order (for the commit log) and in
// the compensation ledger (freed again on abort).
func (st *stage) alloc(table, group int) uint32 {
	ri, err := st.sess.Alloc(table, group)
	if err != nil {
		return allocFail
	}
	m := wal.Record{Op: wal.OpAlloc, Table: int32(table), Rec: int32(ri), Aux: int32(group)}
	st.ops = append(st.ops, m)
	st.allocs = append(st.allocs, m)
	return uint32(ri)
}

func (st *stage) free(table, rec int) {
	st.ops = append(st.ops, wal.Record{Op: wal.OpFree, Table: int32(table), Rec: int32(rec)})
}

func (st *stage) move(table, rec, group int) {
	st.ops = append(st.ops, wal.Record{Op: wal.OpMove, Table: int32(table), Rec: int32(rec), Aux: int32(group)})
}

// commit applies the staged operations in program order. Allocations were
// already applied at execution time and only join the applied list here.
// On the first API rejection the remaining operations are dropped and any
// not-yet-reported allocation is compensated, so nothing half-built leaks.
func (st *stage) commit() ([]wal.Record, error) {
	applied := make([]wal.Record, 0, len(st.ops))
	for i, m := range st.ops {
		table, rec := int(m.Table), int(m.Rec)
		var err error
		switch m.Op {
		case wal.OpWriteFld:
			err = st.sess.WriteFld(table, rec, int(m.Field), m.Vals[0])
		case wal.OpFree:
			err = st.sess.Free(table, rec)
		case wal.OpMove:
			err = st.sess.Move(table, rec, int(m.Aux))
		case wal.OpAlloc:
			// Applied eagerly during execution.
		}
		if err != nil {
			for j := len(st.ops) - 1; j > i; j-- {
				if st.ops[j].Op == wal.OpAlloc {
					_ = st.sess.Free(int(st.ops[j].Table), int(st.ops[j].Rec))
				}
			}
			return applied, err
		}
		applied = append(applied, m)
	}
	return applied, nil
}

// rollback compensates the eager allocations, newest first. Staged writes,
// frees, and moves never touched the database, so dropping them is free.
func (st *stage) rollback() {
	for i := len(st.allocs) - 1; i >= 0; i-- {
		_ = st.sess.Free(int(st.allocs[i].Table), int(st.allocs[i].Rec))
	}
}
