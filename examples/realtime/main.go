// Realtime: the same protected call-processing environment as the other
// examples, but paced by the wall clock through sim.RealtimeRunner — the
// deployment mode, where audits genuinely run every 10 (virtual) seconds.
// The example runs 120 virtual seconds at 60× (≈2 real seconds).
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/audit"
	"repro/internal/callproc"
	"repro/internal/framework"
	"repro/internal/sim"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	schema := callproc.Schema(callproc.DefaultSchemaConfig())
	fw, err := framework.New(framework.DefaultConfig(schema, callproc.CallLoop()))
	if err != nil {
		return err
	}
	fw.SetFindingObserver(func(f audit.Finding) {
		fmt.Printf("[virtual %v] %v\n", fw.Env().Now().Round(time.Millisecond), f)
	})
	wl, err := callproc.New(fw.Env(), fw.DB(), callproc.DefaultConfig(), callproc.Events{})
	if err != nil {
		return err
	}
	fw.SetTerminator(wl.TerminateThread)
	if err := fw.Start(); err != nil {
		return err
	}
	if err := wl.Start(); err != nil {
		return err
	}

	// Periodic corruption so the audits have something to do live.
	tk, err := fw.Env().NewTicker(25*time.Second, func() {
		off := int(fw.Env().RNG().Uint64()) % fw.DB().Size()
		if off < 0 {
			off = -off
		}
		_ = fw.DB().FlipBit(off, 1)
		fmt.Printf("[virtual %v] injected bit error at offset %d\n", fw.Env().Now(), off)
	})
	if err != nil {
		return err
	}
	defer tk.Stop()

	runner, err := sim.NewRealtimeRunner(fw.Env(), 60)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	start := time.Now()
	if err := runner.Run(ctx, 120*time.Second); err != nil {
		return err
	}
	wl.Stop()
	fw.Stop()

	fmt.Printf("\nran 120 virtual seconds in %v real time\n", time.Since(start).Round(time.Millisecond))
	fmt.Printf("calls completed: %d, findings: %v\n",
		wl.Stats().Completed, fw.AuditProcess().Stats().ByClass)
	return nil
}
