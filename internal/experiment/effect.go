// Package experiment regenerates every table and figure of the paper's
// evaluation (§5 and §6): the audit-effectiveness comparison (Table 3),
// the per-technique breakdown (Table 4), the escape-rate sweep (Figure 3),
// the database-API overhead (Figure 4), the prioritized-triggering
// comparison (Figures 5 and 6 over the Table 5 parameters), the
// control-flow-injection campaigns (Tables 8 and 9), and the system-wide
// coverage estimate (Table 10), plus the selective-monitoring study the
// paper defers to [LIU00] and several ablations.
package experiment

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/audit"
	"repro/internal/callproc"
	"repro/internal/framework"
	"repro/internal/inject"
	"repro/internal/memdb"
)

// EffectConfig parameterizes one audit-effectiveness run set — the
// paper's Table 2 experiment parameters.
type EffectConfig struct {
	// Runs is the number of independent runs aggregated (paper: 30).
	Runs int
	// Duration of each run (paper: 2000 s).
	Duration time.Duration
	// ErrorInterArrival is the fixed error injection period (paper
	// sweeps 2–20 s; Table 3 uses 20 s).
	ErrorInterArrival time.Duration
	// AuditPeriod is the periodic audit interval (paper: 10 s).
	AuditPeriod time.Duration
	// WithAudit enables the audit subsystem.
	WithAudit bool
	// EventTriggered additionally audits each record immediately after a
	// client write (§4.3) — the trigger ablation's knob.
	EventTriggered bool
	// Seed drives all randomness.
	Seed int64
	// ConfigRecords/ConfigFields/CallRecords size the controller schema.
	// The defaults approximate the target controller's composition,
	// where configuration data dominates the database image.
	ConfigRecords int
	ConfigFields  int
	CallRecords   int
	// Workload overrides; zero value uses callproc defaults.
	Workload callproc.Config
}

// DefaultEffectConfig returns the Table 2 parameters.
func DefaultEffectConfig() EffectConfig {
	return EffectConfig{
		Runs:              30,
		Duration:          2000 * time.Second,
		ErrorInterArrival: 20 * time.Second,
		AuditPeriod:       10 * time.Second,
		WithAudit:         true,
		Seed:              1,
		ConfigRecords:     56,
		ConfigFields:      20,
		CallRecords:       24,
		Workload:          callproc.DefaultConfig(),
	}
}

// EscapeReason explains why an injected error escaped the audits,
// mirroring Table 4's escape columns.
type EscapeReason int

// Escape reasons.
const (
	// EscapeTiming: the client used the corrupted data before the audit
	// reached it.
	EscapeTiming EscapeReason = iota + 1
	// EscapeNoRule: no enforceable audit rule covers that field.
	EscapeNoRule
)

// EffectResult aggregates the audit-effectiveness runs.
type EffectResult struct {
	Config EffectConfig

	Injected int
	Escaped  int
	Caught   int
	NoEffect int

	// CaughtByClass splits detections by audit technique.
	CaughtByClass map[audit.Class]int
	// EscapedByReason splits escapes (timing vs. lack of rule).
	EscapedByReason map[EscapeReason]int
	// Region classification of injections (structural = record headers,
	// static = catalog + static tables, dynamic = dynamic-table fields),
	// each split detected/escaped/no-effect — the Table 4 axes.
	ByRegion map[string]*RegionTally

	// AvgSetup is the mean call setup time across runs.
	AvgSetup time.Duration
	// CallsProcessed across all runs.
	CallsProcessed int
	// MeanDetectionLatency over caught injections.
	MeanDetectionLatency time.Duration
}

// RegionTally is one Table 4 row.
type RegionTally struct {
	Detected int
	Escaped  int
	NoEffect int
}

// EscapedPct returns escaped/injected.
func (r *EffectResult) EscapedPct() float64 { return pct(r.Escaped, r.Injected) }

// CaughtPct returns caught/injected.
func (r *EffectResult) CaughtPct() float64 { return pct(r.Caught, r.Injected) }

// NoEffectPct returns no-effect/injected.
func (r *EffectResult) NoEffectPct() float64 { return pct(r.NoEffect, r.Injected) }

func pct(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}

// RunEffect executes the audit-effectiveness experiment.
func RunEffect(cfg EffectConfig) (*EffectResult, error) {
	if cfg.Runs <= 0 || cfg.Duration <= 0 || cfg.ErrorInterArrival <= 0 {
		return nil, fmt.Errorf("experiment: invalid config %+v", cfg)
	}
	res := &EffectResult{
		Config:          cfg,
		CaughtByClass:   make(map[audit.Class]int),
		EscapedByReason: make(map[EscapeReason]int),
		ByRegion: map[string]*RegionTally{
			"structural": {}, "static": {}, "dynamic": {},
		},
	}
	var setupTotal time.Duration
	var setupRuns int
	var latencyTotal time.Duration
	var latencyCount int

	for run := 0; run < cfg.Runs; run++ {
		if err := oneEffectRun(cfg, cfg.Seed+int64(run)*104729, res,
			&setupTotal, &setupRuns, &latencyTotal, &latencyCount); err != nil {
			return nil, fmt.Errorf("experiment: run %d: %w", run, err)
		}
	}
	if setupRuns > 0 {
		res.AvgSetup = setupTotal / time.Duration(setupRuns)
	}
	if latencyCount > 0 {
		res.MeanDetectionLatency = latencyTotal / time.Duration(latencyCount)
	}
	return res, nil
}

// oneEffectRun wires one simulated run and folds its tallies into res.
func oneEffectRun(cfg EffectConfig, seed int64, res *EffectResult,
	setupTotal *time.Duration, setupRuns *int,
	latencyTotal *time.Duration, latencyCount *int) error {

	schema := callproc.Schema(callproc.SchemaConfig{
		ConfigRecords: cfg.ConfigRecords,
		ConfigFields:  cfg.ConfigFields,
		CallRecords:   cfg.CallRecords,
	})
	fcfg := framework.DefaultConfig(schema, callproc.CallLoop())
	fcfg.Seed = seed
	fcfg.AuditPeriod = cfg.AuditPeriod
	fcfg.EventTriggered = cfg.EventTriggered
	fw, err := framework.New(fcfg)
	if err != nil {
		return err
	}
	env, db := fw.Env(), fw.DB()
	if !cfg.WithAudit {
		db.DisableAudit()
	}

	di := inject.NewDBInjector(db, env.RNG().Split())
	caughtClass := make(map[*inject.DBInjection]audit.Class)

	// Audit findings mark covered injections caught, attributed by class.
	fw.SetFindingObserver(func(f audit.Finding) {
		if f.Offset < 0 {
			return
		}
		for _, inj := range di.Mark(f.Offset, f.Length, env.Now(), inject.DBCaught) {
			caughtClass[inj] = f.Class
		}
	})

	// Client observations mark covered injections escaped.
	events := callproc.Events{
		OnMismatch: func(m callproc.Mismatch) {
			if m.Offset >= 0 {
				di.MarkEscaped(m.Offset, memdb.FieldSize, env.Now())
			}
		},
		OnOpFailure: func(f callproc.OpFailure) {
			if errors.Is(f.Err, memdb.ErrCorruptCatalog) {
				// The operation failed inside catalog decoding: the
				// damage that impacted the client lives in the catalog
				// extent, not at the record address.
				cat := db.CatalogExtent()
				di.MarkEscaped(cat.Off, cat.Len, env.Now())
				return
			}
			if f.Offset >= 0 {
				di.MarkEscaped(f.Offset, memdb.RecordHeaderSize, env.Now())
			}
		},
	}
	wcfg := cfg.Workload
	if wcfg.Threads == 0 {
		wcfg = callproc.DefaultConfig()
	}
	wl, err := callproc.New(env, db, wcfg, events)
	if err != nil {
		return err
	}
	fw.SetTerminator(wl.TerminateThread)

	if cfg.WithAudit {
		if err := fw.Start(); err != nil {
			return err
		}
	}
	if err := wl.Start(); err != nil {
		return err
	}

	// Fixed-period error process (Table 2: error inter-arrival time),
	// with sub-period jitter so the injection instants do not phase-lock
	// to the audit sweep (real hardware has no such alignment).
	jitter := env.RNG().Split()
	tk, err := env.NewTicker(cfg.ErrorInterArrival, func() {
		env.Schedule(jitter.Uniform(0, cfg.ErrorInterArrival-1), func() {
			_, _ = di.InjectRandomBit(env.Now())
		})
	})
	if err != nil {
		return err
	}
	defer tk.Stop()

	if err := env.Run(cfg.Duration); err != nil {
		return err
	}
	wl.Stop()
	fw.Stop()
	di.Finalize(env.Now())

	// Fold tallies.
	for _, inj := range di.Injections() {
		res.Injected++
		region := regionOf(db, inj.Offset)
		switch inj.State {
		case inject.DBCaught:
			res.Caught++
			res.CaughtByClass[caughtClass[inj]]++
			res.ByRegion[region].Detected++
			*latencyTotal += inj.DecidedAt - inj.At
			*latencyCount++
		case inject.DBEscaped:
			res.Escaped++
			res.ByRegion[region].Escaped++
			res.EscapedByReason[escapeReason(db, inj.Offset)]++
		default:
			res.NoEffect++
			res.ByRegion[region].NoEffect++
		}
	}
	st := wl.Stats()
	res.CallsProcessed += st.Completed
	*setupTotal += st.SetupTotal
	*setupRuns += st.SetupCount
	return nil
}

// regionOf classifies an injection offset into the Table 4 error-type rows.
func regionOf(db *memdb.DB, off int) string {
	loc, err := db.Locate(off)
	if err != nil {
		return "dynamic"
	}
	switch {
	case loc.Catalog:
		return "static"
	case loc.Header:
		return "structural"
	case !db.Schema().Tables[loc.Table].Dynamic:
		return "static"
	default:
		return "dynamic"
	}
}

// escapeReason decides whether an escape was a timing race or a field with
// no enforceable audit rule.
func escapeReason(db *memdb.DB, off int) EscapeReason {
	loc, err := db.Locate(off)
	if err != nil || loc.Catalog || loc.Header || loc.Field < 0 {
		return EscapeTiming
	}
	t := db.Schema().Tables[loc.Table]
	if !t.Dynamic {
		return EscapeTiming
	}
	if !t.Fields[loc.Field].HasRange {
		// No range rule — but the free-record default check still
		// covers free records, so only errors used while the record was
		// active are genuinely rule-less.
		return EscapeNoRule
	}
	return EscapeTiming
}
