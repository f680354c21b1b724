// Callcenter: the full protected call-processing environment — the
// multi-threaded client workload of the paper's Figure 2 running against
// the audited database while random bit errors strike it, with the manager
// restarting a crashed audit process along the way.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/audit"
	"repro/internal/callproc"
	"repro/internal/framework"
	"repro/internal/inject"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	schema := callproc.Schema(callproc.SchemaConfig{
		ConfigRecords: 56, ConfigFields: 20, CallRecords: 24,
	})
	fw, err := framework.New(framework.DefaultConfig(schema, callproc.CallLoop()))
	if err != nil {
		return err
	}
	env, db := fw.Env(), fw.DB()

	// The emulated call-processing client (Table 2 parameters: 16
	// threads, 20–30 s calls, 10 s mean inter-arrival).
	wl, err := callproc.New(env, db, callproc.DefaultConfig(), callproc.Events{
		OnMismatch: func(m callproc.Mismatch) {
			fmt.Printf("t=%-8v client observed corrupt data: table=%d rec=%d field=%d got=%d want=%d\n",
				m.At.Round(time.Millisecond), m.Table, m.Record, m.Field, m.Got, m.Want)
		},
	})
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

	// Random bit errors into the shared database region, one every 20 s.
	di := inject.NewDBInjector(db, env.RNG().Split())
	fw.SetFindingObserver(func(f audit.Finding) {
		if f.Offset >= 0 {
			di.MarkCaught(f.Offset, f.Length, env.Now())
		}
	})
	tick, err := env.NewTicker(20*time.Second, func() {
		if inj, err := di.InjectRandomBit(env.Now()); err == nil {
			fmt.Printf("t=%-8v injected bit error at offset %d\n", env.Now(), inj.Offset)
		}
	})
	if err != nil {
		return err
	}
	defer tick.Stop()

	// Crash the audit process mid-run; the manager's heartbeat notices
	// and restarts it.
	env.Schedule(90*time.Second, func() {
		fmt.Printf("t=%-8v audit process crashes\n", env.Now())
		fw.AuditProcess().Crash()
	})

	if err := fw.Run(300 * time.Second); err != nil {
		return err
	}
	wl.Stop()
	fw.Stop()
	di.Finalize(env.Now())

	st := wl.Stats()
	tally := di.Tally()
	fmt.Printf("\n== 300 virtual seconds ==\n")
	fmt.Printf("calls: %d completed, %d dropped, %d terminated, avg setup %v\n",
		st.Completed, st.Dropped, st.Terminated, st.AvgSetup().Round(time.Millisecond))
	fmt.Printf("injected errors: %d caught by audits, %d escaped to client, %d latent\n",
		tally[inject.DBCaught], tally[inject.DBEscaped], tally[inject.DBNoEffect])
	fmt.Printf("audit process restarts by manager: %d\n", fw.Manager().Restarts())
	fmt.Printf("findings: %v\n", fw.AuditProcess().Stats().ByClass)
	return nil
}
