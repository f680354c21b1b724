// Quickstart: build the dependability framework over the controller
// database, corrupt it, and watch the audit subsystem detect and repair
// the damage.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/audit"
	"repro/internal/callproc"
	"repro/internal/framework"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// The controller database: a static configuration table plus the
	// Process/Connection/Resource tables whose records form the semantic
	// referential-integrity loop.
	schema := callproc.Schema(callproc.DefaultSchemaConfig())
	fw, err := framework.New(framework.DefaultConfig(schema, callproc.CallLoop()))
	if err != nil {
		return err
	}
	fw.SetFindingObserver(func(f audit.Finding) {
		fmt.Printf("t=%-6v audit finding: %v\n", fw.Env().Now(), f)
	})
	if err := fw.Start(); err != nil {
		return err
	}

	// Corrupt three different parts of the database mid-run: the static
	// configuration, a record header, and an active record's field.
	db := fw.DB()
	fw.Env().Schedule(3*time.Second, func() {
		ext, _ := db.TableExtent(callproc.TblConfig)
		_ = db.FlipBit(ext.Off+12, 5) // static data
		off, _ := db.TrueRecordOffset(callproc.TblConn, 2)
		db.Raw()[off+2] ^= 0x0F // record identifier
	})
	fw.Env().Schedule(5*time.Second, func() {
		c, _ := db.Connect()
		ri, _ := c.Alloc(callproc.TblProc, 1)
		// Out-of-range status: the dynamic-data range audit's target.
		_ = db.WriteFieldDirect(callproc.TblProc, ri, callproc.FldProcStatus, 999)
	})

	// Advance virtual time; the periodic audit sweeps every 10 s.
	if err := fw.Run(30 * time.Second); err != nil {
		return err
	}
	fw.Stop()

	stats := fw.AuditProcess().Stats()
	fmt.Printf("\nfindings by class: ")
	for _, class := range []audit.Class{audit.ClassStatic, audit.ClassStructural, audit.ClassRange, audit.ClassSemantic} {
		fmt.Printf("%v=%d ", class, stats.ByClass[class])
	}
	fmt.Printf("\nrepairs applied: %d\n", stats.Repairs)
	return nil
}
