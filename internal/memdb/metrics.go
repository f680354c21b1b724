package memdb

import "repro/internal/metrics"

// Metrics bridge. DB is single-writer: its shadow counters (TableStats,
// lock table, client map) are plain fields mutated only by the owning
// thread, so they cannot be read directly from a metrics snapshot taken on
// another goroutine. The bridge resolves that with a publish step: the
// owner thread calls RefreshMetrics at its own cadence (the network
// server's turn holder does it on every clock tick), copying the counters
// into atomic gauges that any snapshot may then read race-free.

// tableGauges is the published per-table activity state feeding the same
// signals the §4.4.1 prioritized trigger consumes: access frequency and
// error history.
type tableGauges struct {
	reads, writes *metrics.Gauge
	errorsLast    *metrics.Gauge
	errorsAll     *metrics.Gauge
}

// boundMetrics holds every gauge BindMetrics registered.
type boundMetrics struct {
	tables    []tableGauges
	locksHeld *metrics.Gauge
	clients   *metrics.Gauge
	guardViol *metrics.Gauge
}

// BindMetrics registers the database's observable state in reg under
// "memdb.": per-table read/write counters and audit error history
// ("memdb.table.<name>.reads" etc.), held lock count, connected client
// count, and concurrency-guard violations. The gauges update only when the
// owner thread calls RefreshMetrics. Binding twice replaces the previous
// binding.
func (db *DB) BindMetrics(reg *metrics.Registry) {
	bm := &boundMetrics{
		tables:    make([]tableGauges, len(db.schema.Tables)),
		locksHeld: reg.Gauge("memdb.locks.held"),
		clients:   reg.Gauge("memdb.clients"),
		guardViol: reg.Gauge("memdb.guard.violations"),
	}
	for i, t := range db.schema.Tables {
		p := "memdb.table." + t.Name
		bm.tables[i] = tableGauges{
			reads:      reg.Gauge(p + ".reads"),
			writes:     reg.Gauge(p + ".writes"),
			errorsLast: reg.Gauge(p + ".errors_last"),
			errorsAll:  reg.Gauge(p + ".errors_all"),
		}
	}
	db.metrics = bm
	db.RefreshMetrics()
}

// RefreshMetrics publishes the current shadow counters into the bound
// gauges. Owner thread only (the same serialization contract as every
// other DB method); a no-op when BindMetrics was never called.
func (db *DB) RefreshMetrics() {
	bm := db.metrics
	if bm == nil {
		return
	}
	db.FoldViewReads()
	for i := range bm.tables {
		st := db.shadow.tables[i]
		bm.tables[i].reads.Set(int64(st.Reads))
		bm.tables[i].writes.Set(int64(st.Writes))
		bm.tables[i].errorsLast.Set(int64(st.ErrorsLast))
		bm.tables[i].errorsAll.Set(int64(st.ErrorsAll))
	}
	held := 0
	for i := range db.locks {
		if db.locks[i].held {
			held++
		}
	}
	bm.locksHeld.Set(int64(held))
	bm.clients.Set(int64(len(db.clients)))
	bm.guardViol.Set(int64(db.GuardViolations()))
}
