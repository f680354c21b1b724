package scenario

import (
	"math"

	"repro/internal/sim"
)

// OpKind enumerates the workload operations a pattern mixes. Each maps to
// one or more wire calls against a worker's slice of the Resource table.
type OpKind int

const (
	OpReadRec  OpKind = iota // DBread_rec, verified against the golden copy
	OpReadFld                // DBread_fld of Quality, verified
	OpWriteRec               // DBwrite_rec of a fresh record image
	OpWriteFld               // DBwrite_fld of Quality
	OpMove                   // DBmove to another resource bank
	OpStatus                 // DBstatus probe
	OpChurn                  // deregister/re-register: Free + Alloc in a new bank + seed write
	OpProc                   // PROC res_touch through the PECOS-checked interpreter
	OpTxn                    // Begin + DBwrite_fld of Quality + Commit
	numOpKinds
)

// New kinds go at the end: a zero weight there leaves WeightedIndex's walk
// over the earlier ones, and so every seeded draw, unchanged.
var opKindNames = [numOpKinds]string{
	"read-rec", "read-fld", "write-rec", "write-fld",
	"move", "status", "churn", "proc", "txn",
}

func (k OpKind) String() string {
	if k >= 0 && int(k) < len(opKindNames) {
		return opKindNames[k]
	}
	return "op?"
}

// Pattern is the op-selection layer of a scenario: a weighted op mix plus a
// Zipf exponent for slot (hot-record) skew. Weights need not sum to any
// particular total; all-zero means uniform.
type Pattern struct {
	Mix  [numOpKinds]float64
	Zipf float64 // slot-popularity exponent; 0 = uniform, higher = hotter head
}

// zipfWeights precomputes the slot-popularity distribution 1/rank^s for
// WeightedIndex: slot 0 is every worker's hottest record.
func zipfWeights(slots int, s float64) []float64 {
	w := make([]float64, slots)
	for i := range w {
		if s <= 0 {
			w[i] = 1
			continue
		}
		w[i] = 1 / math.Pow(float64(i+1), s)
	}
	return w
}

// plannedOp is one fully determined unit of work: everything the worker
// needs at run time is drawn here, at plan time, so the op sequence for a
// seed is fixed before the first byte hits the wire.
type plannedOp struct {
	Kind OpKind
	Slot int    // index into the worker's slot table
	Val  uint32 // quality value for writes / proc calls / transactions
	Arg  int    // status code for write-rec, bank delta for move/churn, nonzero = res_scan for proc
}

// draw picks the next op from the pattern. The number of RNG draws varies
// by kind, which is fine: the stream is per-worker and consumed in plan
// order only.
func (p Pattern) draw(rng *sim.RNG, zipfW []float64, banks int) plannedOp {
	op := plannedOp{
		Kind: OpKind(rng.WeightedIndex(p.Mix[:])),
		Slot: rng.WeightedIndex(zipfW),
	}
	switch op.Kind {
	case OpWriteRec:
		op.Val = uint32(rng.Intn(101))
		op.Arg = rng.Intn(3)
	case OpWriteFld, OpProc:
		op.Val = uint32(rng.Intn(101))
	case OpMove, OpChurn:
		// 1..banks-1 so the target bank always differs from the current one.
		op.Arg = 1 + rng.Intn(banks-1)
	}
	return op
}
