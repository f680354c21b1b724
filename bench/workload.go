package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"time"
)

// The controller schema dbserve builds (internal/callproc.Schema), restated
// here so the end-to-end driver depends on the wire protocol only. A drift
// is caught on the first verified read: fresh records must read back as
// fieldDefault, and an out-of-range write would surface as an audit finding.
const (
	tblConfig = 0
	tblProc   = 1
	tblConn   = 2
	tblRes    = 3
	numTables = 4

	resBanks     = 4 // logical groups of the Resource table
	fldResStatus = 1
	fldResQual   = 2
)

// fieldMax is the largest value the driver writes per field. Index-typed
// fields (range 0..call-records-1) stay below the smallest table any
// workload serves; Connection.CallerID is unbounded in the schema.
var fieldMax = [numTables][]uint32{
	tblProc: {23, 3},
	tblConn: {23, 1 << 30, 4},
	tblRes:  {23, 2, 100},
}

var fieldDefault = [numTables][]uint32{
	tblProc: {0, 0},
	tblConn: {0, 0, 0},
	tblRes:  {0, 0, 50},
}

const (
	// numConns is the number of load connections: the reference host has
	// two CPUs and the server needs one of them.
	numConns = 2
	// auditPeriod is every workload's -audit-period.
	auditPeriod = 100 * time.Millisecond
	// shotPeriod is the static-mode injector period while a phase measures
	// detection latency. It is coprime with the audit period in ms, so the
	// shots sweep every phase of the audit cycle evenly instead of
	// phase-locking to it (which would make the median depend on the
	// start offset of the run).
	shotPeriod = 13 * time.Millisecond
	// openWindow caps the requests one connection keeps in flight during
	// the open phase: a backlog after a server stall is sent as a burst.
	openWindow = 64
	// scanLen is the record count of one res_scan procedure call.
	scanLen = 16
)

// opKind is one wire request shape of the generated plan.
type opKind uint8

const (
	kWriteFld opKind = iota + 1
	kWriteRec
	kReadFld
	kReadRec
	kMove
	kStatus
	kFree
	kAlloc
	kBegin
	kCommit
	kProcTouch
	kProcScan
	numKinds
)

var kindNames = [numKinds]string{
	kWriteFld: "write_fld", kWriteRec: "write_rec", kReadFld: "read_fld", kReadRec: "read_rec",
	kMove: "move", kStatus: "status", kFree: "free", kAlloc: "alloc",
	kBegin: "begin", kCommit: "commit", kProcTouch: "proc_res_touch", kProcScan: "proc_res_scan",
}

// planOp is one request of a connection's plan. It names the connection's
// slot, not a record index: the record a slot holds is whatever DBalloc
// returned, so the plan is a function of the seed alone.
type planOp struct {
	Kind  opKind
	Table int
	Slot  int
	Field int
	Aux   int // group for move/alloc
	Vals  [3]uint32
	NVals int
}

// appendTo encodes the op for the plan-determinism check.
func (o planOp) appendTo(dst []byte) []byte {
	dst = append(dst, byte(o.Kind), byte(o.Table), byte(o.Field), byte(o.Aux), byte(o.NVals))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(o.Slot))
	for _, v := range o.Vals[:o.NVals] {
		dst = binary.LittleEndian.AppendUint32(dst, v)
	}
	return dst
}

// mix is the share of each request unit in percent; the entries sum to 100.
// Churn is one DBfree + DBalloc pair, txn one DBbegin + DBwrite_fld +
// DBcommit triple; every request of a unit counts as one operation.
type mix struct {
	write, read, move, status, churn, txn, procTouch, procScan int
}

// workloadSpec is one served workload: the server it needs, the traffic it
// offers, and the frozen open-phase rate.
type workloadSpec struct {
	name       string
	serverArgs []string
	wal        bool // serve from a WAL directory in the run's scratch space
	window     int  // requests in flight per connection in the closed phase
	// openRate is the total open-phase request rate, frozen at a round
	// number at or below half the closed-phase capacity measured on the
	// commit that introduced the benchmark. It is never scaled with the code
	// under test.
	openRate int
	mix      mix
	// tables lists, per connection, the tables its single-record requests
	// address. slots is the number of records a connection owns in each.
	tables [numConns][]int
	slots  int
	// txnTable is the table a connection's transactions lock. Table locks
	// refuse rather than wait, and every read or write locks its table for
	// the call, so a workload with transactions gives each connection a
	// table nobody else touches.
	txnTable [numConns]int
}

var allCallTables = []int{tblProc, tblConn, tblRes}

var workloads = []workloadSpec{
	{
		name:       "call-mix",
		serverArgs: []string{"-call-records", "4096", "-config-records", "256"},
		window:     1,
		openRate:   5000,
		mix:        mix{write: 45, read: 35, move: 10, status: 5, churn: 5},
		tables:     [numConns][]int{allCallTables, allCallTables},
		slots:      2048,
	},
	{
		name:       "read-pipelined",
		serverArgs: []string{"-call-records", "4096", "-config-records", "256"},
		window:     16,
		openRate:   50000,
		mix:        mix{write: 5, read: 95},
		tables:     [numConns][]int{allCallTables, allCallTables},
		slots:      2048,
	},
	{
		name:       "wal-write",
		serverArgs: []string{"-call-records", "64"},
		wal:        true,
		window:     1,
		openRate:   750,
		mix:        mix{write: 100},
		tables:     [numConns][]int{{tblRes}, {tblRes}},
		slots:      16,
	},
	{
		name:       "sharded-proc",
		serverArgs: []string{"-shards", "2", "-call-records", "1024"},
		window:     8,
		openRate:   30000,
		mix:        mix{write: 60, read: 25, procTouch: 5, procScan: 5, txn: 5},
		tables:     [numConns][]int{{tblProc, tblRes}, {tblConn, tblRes}},
		slots:      384,
		txnTable:   [numConns]int{tblProc, tblConn},
	},
}

func findWorkload(name string) (*workloadSpec, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// generator draws one connection's plan from the seed. next is a pure
// function of the generator state, so the op sequence does not depend on
// how fast the server answers.
type generator struct {
	spec  *workloadSpec
	conn  int
	rng   *rand.Rand
	zipf  *rand.Zipf
	perm  []int    // Zipf rank → slot, so hot slots are not neighbours
	queue []planOp // rest of a multi-request unit
}

func newGenerator(spec *workloadSpec, conn int, seed int64) *generator {
	// math/rand's seeded generators are frozen by the Go 1 promise, so a
	// seed reproduces the plan across toolchains.
	rng := rand.New(rand.NewSource(seed*7919 + int64(conn)*104729 + 1))
	return &generator{
		spec: spec, conn: conn, rng: rng,
		zipf: rand.NewZipf(rng, 1.1, 1, uint64(spec.slots-1)),
		perm: rng.Perm(spec.slots),
	}
}

func (g *generator) slot() int { return g.perm[g.zipf.Uint64()] }

func (g *generator) table() int {
	ts := g.spec.tables[g.conn]
	return ts[g.rng.Intn(len(ts))]
}

func (g *generator) value(table, field int) uint32 {
	return uint32(g.rng.Int63n(int64(fieldMax[table][field]) + 1))
}

func (g *generator) writeFld(table, slot int) planOp {
	f := g.rng.Intn(len(fieldMax[table]))
	op := planOp{Kind: kWriteFld, Table: table, Slot: slot, Field: f, NVals: 1}
	op.Vals[0] = g.value(table, f)
	return op
}

func (g *generator) next() planOp {
	if len(g.queue) > 0 {
		op := g.queue[0]
		g.queue = g.queue[1:]
		return op
	}
	m := g.spec.mix
	r := g.rng.Intn(100)
	switch {
	case r < m.write:
		t, s := g.table(), g.slot()
		if g.rng.Intn(2) == 0 {
			return g.writeFld(t, s)
		}
		op := planOp{Kind: kWriteRec, Table: t, Slot: s, NVals: len(fieldMax[t])}
		for f := 0; f < op.NVals; f++ {
			op.Vals[f] = g.value(t, f)
		}
		return op
	case r < m.write+m.read:
		t, s := g.table(), g.slot()
		if g.rng.Intn(2) == 0 {
			return planOp{Kind: kReadFld, Table: t, Slot: s, Field: g.rng.Intn(len(fieldMax[t]))}
		}
		return planOp{Kind: kReadRec, Table: t, Slot: s}
	case r < m.write+m.read+m.move:
		return planOp{Kind: kMove, Table: tblRes, Slot: g.slot(), Aux: g.rng.Intn(resBanks)}
	case r < m.write+m.read+m.move+m.status:
		return planOp{Kind: kStatus, Table: g.table(), Slot: g.slot()}
	case r < m.write+m.read+m.move+m.status+m.churn:
		t, s := g.table(), g.slot()
		g.queue = append(g.queue[:0], planOp{Kind: kAlloc, Table: t, Slot: s, Aux: g.rng.Intn(resBanks)})
		return planOp{Kind: kFree, Table: t, Slot: s}
	case r < m.write+m.read+m.move+m.status+m.churn+m.txn:
		t := g.spec.txnTable[g.conn]
		g.queue = append(g.queue[:0], g.writeFld(t, g.slot()), planOp{Kind: kCommit})
		return planOp{Kind: kBegin, Table: t}
	case r < m.write+m.read+m.move+m.status+m.churn+m.txn+m.procTouch:
		op := planOp{Kind: kProcTouch, Table: tblRes, Slot: g.slot(), NVals: 1}
		// res_touch clamps above 100; draw a few values that exercise it.
		op.Vals[0] = uint32(g.rng.Intn(121))
		return op
	default:
		return planOp{Kind: kProcScan, Table: tblRes, Slot: g.slot()}
	}
}
