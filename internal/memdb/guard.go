package memdb

import (
	"sync/atomic"
	"time"
)

// Concurrent-access detector. DB is documented as not safe for concurrent
// use: every access must be serialized — on the simulation event loop, or
// by the network server core's turn holder. A violation of that
// contract does not fail fast on its own; it silently corrupts the shared
// region, exactly the class of damage the audits exist to catch, except
// self-inflicted. The guard makes violations fail loudly instead: when
// enabled, every Table 1 API entry takes a busy flag with an atomic
// compare-and-swap; a second entry observing the flag held is, by the
// single-writer contract, proof of concurrent (or re-entrant) API use.
//
// The guard is a debug facility — enabled in tests and optionally by the
// server — and costs one nil check per API call when disabled.
//
// View readers are exempt: View reads (see view.go) run concurrently with
// API calls by design, excluded from mutations by the region read lock
// instead of by serialization, so they never take the busy flag.
type guardState struct {
	busy       atomic.Int32
	violations atomic.Uint64
	// onViolation, when non-nil, observes violations instead of
	// panicking; it is fixed at enable time so the guard itself needs no
	// further synchronization.
	onViolation func(op string)
}

// EnableConcurrencyCheck arms the single-writer violation detector.
// onViolation receives the API operation name of the losing entry; a nil
// handler makes violations panic, so unsupervised code fails loudly.
// Enabling while API calls are in flight is itself a violation of the
// contract and unsupported.
func (db *DB) EnableConcurrencyCheck(onViolation func(op string)) {
	db.guard = &guardState{onViolation: onViolation}
}

// DisableConcurrencyCheck disarms the detector.
func (db *DB) DisableConcurrencyCheck() { db.guard = nil }

// GuardViolations reports how many concurrent-access violations the
// detector has observed since it was enabled.
func (db *DB) GuardViolations() uint64 {
	if db.guard == nil {
		return 0
	}
	return db.guard.violations.Load()
}

// guardNoop is the shared exit function for the disabled-guard fast path.
var guardNoop = func() {}

// guardEnter marks one API call in flight and returns its exit function.
// When another call already holds the busy flag the violation is recorded
// and the entry proceeds unguarded (the damage is done; the point is the
// loud report, not mutual exclusion).
func (db *DB) guardEnter(op string) func() {
	g := db.guard
	if g == nil {
		return guardNoop
	}
	if !g.busy.CompareAndSwap(0, 1) {
		g.violations.Add(1)
		if g.onViolation == nil {
			panic("memdb: concurrent API access detected during " + op +
				" (DB is single-writer; serialize all access)")
		}
		g.onViolation(op)
		return guardNoop
	}
	return func() { g.busy.Store(0) }
}

// SetClock replaces the virtual-time source after construction. The network
// server binds an already-built database (often loaded from an image) to
// its core's clock this way; nil is ignored.
func (db *DB) SetClock(now func() time.Duration) {
	if now != nil {
		db.now = now
	}
}
