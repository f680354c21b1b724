package framework_test

import (
	"fmt"
	"time"

	"repro/internal/audit"
	"repro/internal/callproc"
	"repro/internal/framework"
)

// Example builds the integrated framework over the controller schema,
// corrupts the static configuration, and lets the periodic audit detect
// and repair the damage.
func Example() {
	schema := callproc.Schema(callproc.DefaultSchemaConfig())
	fw, err := framework.New(framework.DefaultConfig(schema, callproc.CallLoop()))
	if err != nil {
		fmt.Println("build:", err)
		return
	}
	fw.SetFindingObserver(func(f audit.Finding) {
		fmt.Printf("finding: %v repaired by %v\n", f.Class, f.Action)
	})
	if err := fw.Start(); err != nil {
		fmt.Println("start:", err)
		return
	}
	defer fw.Stop()

	ext, _ := fw.DB().TableExtent(callproc.TblConfig)
	_ = fw.DB().FlipBit(ext.Off+8, 1) // corrupt a configuration byte

	_ = fw.Run(15 * time.Second) // one 10 s audit sweep passes
	// Output:
	// finding: static repaired by reload
}
