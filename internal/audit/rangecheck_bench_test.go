// External test package: the served schema comes from callproc, which
// imports audit.
package audit_test

import (
	"testing"

	"repro/internal/audit"
	"repro/internal/callproc"
	"repro/internal/memdb"
)

// BenchmarkRangeSweep times one dynamic-data audit pass (CheckAll) over the
// served call-mix region: 3 × 4096 active call records, every field in
// range, so the pass finds nothing and repairs nothing.
func BenchmarkRangeSweep(b *testing.B) {
	const records = 4096
	db, err := memdb.New(callproc.Schema(callproc.SchemaConfig{
		ConfigRecords: 256, ConfigFields: 4, CallRecords: records,
	}))
	if err != nil {
		b.Fatal(err)
	}
	c, err := db.Connect()
	if err != nil {
		b.Fatal(err)
	}
	for ri := 0; ri < records; ri++ {
		for _, ti := range []int{callproc.TblProc, callproc.TblConn, callproc.TblRes} {
			if _, err := c.Alloc(ti, ri%callproc.ResourceBanks); err != nil {
				b.Fatal(err)
			}
		}
	}
	rc := audit.NewRangeCheck(db, audit.Recovery{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if fs := rc.CheckAll(); len(fs) != 0 {
			b.Fatalf("sweep of a clean region found %v", fs)
		}
	}
}
