package experiment

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/audit"
	"repro/internal/callproc"
	"repro/internal/framework"
	"repro/internal/inject"
	"repro/internal/memdb"
)

// ResilienceResult measures the framework's tolerance of audit-process
// failures: the manager detects a crashed audit process by heartbeat and
// restarts it (§4.1), so detection coverage should degrade only by the
// errors that strike during the detection+restart gaps.
type ResilienceResult struct {
	// Baseline is the caught% with a healthy audit process.
	Baseline float64
	// WithCrashes is the caught% while the audit process is crashed
	// every CrashPeriod.
	WithCrashes float64
	// Restarts observed across the crash runs.
	Restarts    int
	CrashPeriod time.Duration
}

// RunResilience executes the Table 3 "with audits" experiment twice — once
// healthy, once with the audit process crashing periodically — and
// compares detection coverage.
func RunResilience(scale float64) (*ResilienceResult, error) {
	if scale <= 0 || scale > 1 {
		return nil, fmt.Errorf("experiment: scale %v out of (0,1]", scale)
	}
	cfg := DefaultEffectConfig()
	cfg.Runs = atLeast(int(float64(cfg.Runs)*scale), 2)
	cfg.Duration = time.Duration(float64(cfg.Duration) * scale)
	if cfg.Duration < 300*time.Second {
		cfg.Duration = 300 * time.Second
	}

	baseline, err := RunEffect(cfg)
	if err != nil {
		return nil, err
	}

	res := &ResilienceResult{
		Baseline:    baseline.CaughtPct(),
		CrashPeriod: 60 * time.Second,
	}
	var caught, injected, restarts int
	for run := 0; run < cfg.Runs; run++ {
		c, i, r, err := resilienceRun(cfg, res.CrashPeriod, cfg.Seed+int64(run)*104729)
		if err != nil {
			return nil, fmt.Errorf("experiment: resilience run %d: %w", run, err)
		}
		caught += c
		injected += i
		restarts += r
	}
	res.WithCrashes = pct(caught, injected)
	res.Restarts = restarts
	return res, nil
}

// resilienceRun is one audited run with periodic audit-process crashes.
func resilienceRun(cfg EffectConfig, crashPeriod time.Duration, seed int64) (caught, injected, restarts int, err error) {
	schema := callproc.Schema(callproc.SchemaConfig{
		ConfigRecords: cfg.ConfigRecords,
		ConfigFields:  cfg.ConfigFields,
		CallRecords:   cfg.CallRecords,
	})
	fcfg := framework.DefaultConfig(schema, callproc.CallLoop())
	fcfg.Seed = seed
	fcfg.AuditPeriod = cfg.AuditPeriod
	fw, err := framework.New(fcfg)
	if err != nil {
		return 0, 0, 0, err
	}
	env, db := fw.Env(), fw.DB()

	di := inject.NewDBInjector(db, env.RNG().Split())
	fw.SetFindingObserver(func(f audit.Finding) {
		if f.Offset >= 0 {
			di.MarkCaught(f.Offset, f.Length, env.Now())
		}
	})
	wl, err := callproc.New(env, db, callproc.DefaultConfig(), callproc.Events{
		OnMismatch: func(m callproc.Mismatch) {
			if m.Offset >= 0 {
				di.MarkEscaped(m.Offset, memdb.FieldSize, env.Now())
			}
		},
	})
	if err != nil {
		return 0, 0, 0, err
	}
	fw.SetTerminator(wl.TerminateThread)
	if err := fw.Start(); err != nil {
		return 0, 0, 0, err
	}
	if err := wl.Start(); err != nil {
		return 0, 0, 0, err
	}

	jitter := env.RNG().Split()
	errTick, err := env.NewTicker(cfg.ErrorInterArrival, func() {
		env.Schedule(jitter.Uniform(0, cfg.ErrorInterArrival-1), func() {
			_, _ = di.InjectRandomBit(env.Now())
		})
	})
	if err != nil {
		return 0, 0, 0, err
	}
	defer errTick.Stop()

	// Periodically crash whatever audit process is currently alive; the
	// manager's heartbeat restarts it.
	crashTick, err := env.NewTicker(crashPeriod, func() {
		if p := fw.AuditProcess(); p != nil && p.Alive() {
			p.Crash()
		}
	})
	if err != nil {
		return 0, 0, 0, err
	}
	defer crashTick.Stop()

	if err := env.Run(cfg.Duration); err != nil {
		return 0, 0, 0, err
	}
	wl.Stop()
	restarts = fw.Manager().Restarts()
	fw.Stop()
	di.Finalize(env.Now())
	tally := di.Tally()
	return tally[inject.DBCaught], len(di.Injections()), restarts, nil
}

// Render prints the comparison.
func (r *ResilienceResult) Render() string {
	var b strings.Builder
	b.WriteString("Audit-process failure resilience (manager heartbeat + restart, §4.1)\n")
	fmt.Fprintf(&b, "caught%% healthy audit process:            %5.1f%%\n", r.Baseline)
	fmt.Fprintf(&b, "caught%% with a crash every %v:           %5.1f%%  (%d restarts)\n",
		r.CrashPeriod, r.WithCrashes, r.Restarts)
	b.WriteString("(coverage should degrade only by errors striking the detection+restart gaps)\n")
	return b.String()
}
