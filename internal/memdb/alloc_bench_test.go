// External test package: the served schema comes from callproc, which
// imports memdb.
package memdb_test

import (
	"math/rand"
	"testing"

	"repro/internal/callproc"
	"repro/internal/memdb"
)

// benchCallRecords sizes the three call tables like the served call-mix
// workload (dbserve -call-records 4096 -config-records 256).
const benchCallRecords = 4096

func benchDB(b *testing.B) (*memdb.DB, *memdb.Client) {
	b.Helper()
	db, err := memdb.New(callproc.Schema(callproc.SchemaConfig{
		ConfigRecords: 256, ConfigFields: 4, CallRecords: benchCallRecords,
	}))
	if err != nil {
		b.Fatal(err)
	}
	c, err := db.Connect()
	if err != nil {
		b.Fatal(err)
	}
	return db, c
}

// fillCallTables allocates every record of the Process, Connection and
// Resource tables, in the order a call set-up preload does.
func fillCallTables(b *testing.B, c *memdb.Client) {
	b.Helper()
	for ri := 0; ri < benchCallRecords; ri++ {
		for _, ti := range []int{callproc.TblProc, callproc.TblConn, callproc.TblRes} {
			got, err := c.Alloc(ti, ri%callproc.ResourceBanks)
			if err != nil || got != ri {
				b.Fatalf("table %d: alloc = %d, %v; want %d", ti, got, err, ri)
			}
		}
	}
}

// BenchmarkAllocFill times filling 3 × 4096 call records from empty: one
// op is the whole fill (12,288 DBalloc calls).
func BenchmarkAllocFill(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		_, c := benchDB(b)
		b.StartTimer()
		fillCallTables(b, c)
	}
}

// BenchmarkAllocChurnFull times one DBfree of a random record of a full
// 4096-record table followed by the DBalloc that must reclaim it.
func BenchmarkAllocChurnFull(b *testing.B) {
	_, c := benchDB(b)
	fillCallTables(b, c)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ri := rng.Intn(benchCallRecords)
		if err := c.Free(callproc.TblProc, ri); err != nil {
			b.Fatal(err)
		}
		if got, err := c.Alloc(callproc.TblProc, 0); err != nil || got != ri {
			b.Fatalf("alloc = %d, %v; want %d", got, err, ri)
		}
	}
}
