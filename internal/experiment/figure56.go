package experiment

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/audit"
	"repro/internal/framework"
	"repro/internal/inject"
	"repro/internal/memdb"
)

// The §5.3 prioritized-audit experiment uses the paper's Table 5
// parameters: six tables with relative sizes 7:18:1:125:8:4 and access-
// frequency ratio 6:5:4:3:2:1, 16 application threads at 20 database
// operations per second each, audits covering one table every 5 seconds,
// and exponentially distributed errors with mean inter-arrival 1, 2, or 4
// seconds, under uniform and access-proportional error placement.

// priorityTableSizes are the Table 5 relative sizes, scaled ×4.
var priorityTableSizes = []int{28, 72, 4, 500, 32, 16}

// priorityAccessWeights are the Table 5 access-frequency ratios.
var priorityAccessWeights = []float64{6, 5, 4, 3, 2, 1}

// prioritySchema builds the six-table database. Every field carries a
// degenerate range (min = max = default) so the audit can decide
// correctness of any field — the experiment isolates *scheduling* quality,
// not rule quality.
func prioritySchema() memdb.Schema {
	const fieldsPerRecord = 8
	var s memdb.Schema
	for ti, n := range priorityTableSizes {
		fields := make([]memdb.FieldSpec, fieldsPerRecord)
		for fi := range fields {
			def := uint32(1000*ti + fi)
			fields[fi] = memdb.FieldSpec{
				Name: fmt.Sprintf("F%d", fi), Kind: memdb.Dynamic,
				HasRange: true, Min: def, Max: def, Default: def,
			}
		}
		s.Tables = append(s.Tables, memdb.TableSpec{
			Name:       fmt.Sprintf("T%d", ti),
			Dynamic:    true,
			NumRecords: n,
			Fields:     fields,
		})
	}
	return s
}

// PriorityConfig parameterizes one §5.3 run.
type PriorityConfig struct {
	Duration time.Duration
	// MTBF is the mean error inter-arrival time (exponential).
	MTBF time.Duration
	// Prioritized selects the §4.4.1 scheduler over fixed round-robin.
	Prioritized bool
	// Proportional places errors proportionally to table access
	// frequency instead of uniformly over the data region.
	Proportional bool
	// AuditSlot is the per-table audit period (Table 5: one table / 5 s).
	AuditSlot time.Duration
	// Threads × OpsPerThread give the aggregate access rate (Table 5:
	// 16 threads × 20 ops/s).
	Threads      int
	OpsPerThread float64
	// ReadFraction is the share of operations that read (and therefore
	// can observe corrupted data); the rest are updates that silently
	// overwrite it.
	ReadFraction float64
	// Runs is the number of independent seeded runs aggregated.
	Runs int
	Seed int64
}

// DefaultPriorityConfig returns the Table 5 parameters.
func DefaultPriorityConfig() PriorityConfig {
	return PriorityConfig{
		Duration:     400 * time.Second,
		MTBF:         2 * time.Second,
		AuditSlot:    5 * time.Second,
		Threads:      16,
		OpsPerThread: 20,
		ReadFraction: 0.25,
		Runs:         6,
		Seed:         1,
	}
}

// PriorityResult is one run's outcome.
type PriorityResult struct {
	Config      PriorityConfig
	Injected    int
	Escaped     int
	Caught      int
	NoEffect    int
	MeanLatency time.Duration
}

// EscapedPct is the share of injected errors seen by the application.
func (r *PriorityResult) EscapedPct() float64 { return pct(r.Escaped, r.Injected) }

// RunPriority executes the §5.3 experiment, aggregating cfg.Runs seeded
// runs.
func RunPriority(cfg PriorityConfig) (*PriorityResult, error) {
	if cfg.Duration <= 0 || cfg.MTBF <= 0 || cfg.Threads <= 0 {
		return nil, fmt.Errorf("experiment: invalid priority config %+v", cfg)
	}
	runs := cfg.Runs
	if runs <= 0 {
		runs = 1
	}
	agg := &PriorityResult{Config: cfg}
	var latSum time.Duration
	var latN int
	for r := 0; r < runs; r++ {
		one := cfg
		one.Runs = 1
		one.Seed = cfg.Seed + int64(r)*60013
		res, lsum, ln, err := runPriorityOnce(one)
		if err != nil {
			return nil, fmt.Errorf("experiment: priority run %d: %w", r, err)
		}
		agg.Injected += res.Injected
		agg.Escaped += res.Escaped
		agg.Caught += res.Caught
		agg.NoEffect += res.NoEffect
		latSum += lsum
		latN += ln
	}
	if latN > 0 {
		agg.MeanLatency = latSum / time.Duration(latN)
	}
	return agg, nil
}

// runPriorityOnce executes a single seeded run, returning the latency sum
// and count for cross-run aggregation.
func runPriorityOnce(cfg PriorityConfig) (*PriorityResult, time.Duration, int, error) {
	schema := prioritySchema()
	fcfg := framework.DefaultConfig(schema)
	fcfg.Seed = cfg.Seed
	fcfg.AuditPeriod = cfg.AuditSlot
	fcfg.Trigger = framework.SlicedRoundRobin
	if cfg.Prioritized {
		fcfg.Trigger = framework.SlicedPrioritized
	}
	fw, err := framework.New(fcfg)
	if err != nil {
		return nil, 0, 0, err
	}
	env, db := fw.Env(), fw.DB()

	// Activate every record: the controller database is fully populated.
	cl, err := db.Connect()
	if err != nil {
		return nil, 0, 0, err
	}
	for ti, t := range schema.Tables {
		for ri := 0; ri < t.NumRecords; ri++ {
			if _, err := cl.Alloc(ti, 0); err != nil {
				return nil, 0, 0, fmt.Errorf("experiment: populate table %d: %w", ti, err)
			}
		}
	}

	di := inject.NewDBInjector(db, env.RNG().Split())
	fw.SetFindingObserver(func(f audit.Finding) {
		if f.Offset >= 0 {
			di.MarkCaught(f.Offset, f.Length, env.Now())
		}
	})
	if err := fw.Start(); err != nil {
		return nil, 0, 0, err
	}

	// Application threads: field-granular reads and updates at the
	// Table 5 access ratios.
	appRNG := env.RNG().Split()
	opPeriod := time.Duration(float64(time.Second) / (float64(cfg.Threads) * cfg.OpsPerThread))
	fieldsPer := len(schema.Tables[0].Fields)
	appTick, err := env.NewTicker(opPeriod, func() {
		ti := appRNG.WeightedIndex(priorityAccessWeights)
		ri := appRNG.Intn(schema.Tables[ti].NumRecords)
		fi := appRNG.Intn(fieldsPer)
		if appRNG.Float64() < cfg.ReadFraction {
			v, err := cl.ReadFld(ti, ri, fi)
			if err != nil {
				return
			}
			if v != schema.Tables[ti].Fields[fi].Default {
				if off, oerr := db.TrueRecordOffset(ti, ri); oerr == nil {
					di.MarkEscaped(off+memdb.RecordHeaderSize+memdb.FieldSize*fi,
						memdb.FieldSize, env.Now())
				}
			}
			return
		}
		// Update: rewrites the field, silently repairing any corruption.
		_ = cl.WriteFld(ti, ri, fi, schema.Tables[ti].Fields[fi].Default)
	})
	if err != nil {
		return nil, 0, 0, err
	}
	defer appTick.Stop()

	// Error process.
	errRNG := env.RNG().Split()
	extents := make([]memdb.Extent, len(schema.Tables))
	var totalLen int
	for ti := range schema.Tables {
		ext, err := db.TableExtent(ti)
		if err != nil {
			return nil, 0, 0, err
		}
		extents[ti] = ext
		totalLen += ext.Len
	}
	injectOne := func() {
		var ext memdb.Extent
		if cfg.Proportional {
			ext = extents[errRNG.WeightedIndex(priorityAccessWeights)]
		} else {
			// Uniform over the data region: weight tables by size.
			x := errRNG.Intn(totalLen)
			for _, e := range extents {
				if x < e.Len {
					ext = e
					break
				}
				x -= e.Len
			}
		}
		di.Extent = &ext
		_, _ = di.InjectRandomBit(env.Now())
	}
	var schedule func()
	schedule = func() {
		env.Schedule(errRNG.Exp(cfg.MTBF), func() {
			injectOne()
			schedule()
		})
	}
	schedule()

	if err := env.Run(cfg.Duration); err != nil {
		return nil, 0, 0, err
	}
	fw.Stop()
	di.Finalize(env.Now())

	res := &PriorityResult{Config: cfg}
	tally := di.Tally()
	res.Injected = len(di.Injections())
	res.Escaped = tally[inject.DBEscaped]
	res.Caught = tally[inject.DBCaught]
	res.NoEffect = tally[inject.DBNoEffect]
	lats := di.DetectionLatencies()
	var sum time.Duration
	for _, l := range lats {
		sum += l
	}
	if len(lats) > 0 {
		res.MeanLatency = sum / time.Duration(len(lats))
	}
	return res, sum, len(lats), nil
}

// PriorityComparison pairs unprioritized and prioritized runs at one MTBF.
type PriorityComparison struct {
	MTBF          time.Duration
	Unprioritized *PriorityResult
	Prioritized   *PriorityResult
}

// EscapeReductionPct is the relative reduction in escaped errors from
// prioritization — the paper's headline bars.
func (c *PriorityComparison) EscapeReductionPct() float64 {
	u := c.Unprioritized.EscapedPct()
	if u == 0 {
		return 0
	}
	return 100 * (u - c.Prioritized.EscapedPct()) / u
}

// Figure56 is the full Figure 5 (uniform) or Figure 6 (proportional) data.
type Figure56 struct {
	Proportional bool
	Comparisons  []PriorityComparison
}

// RunFigure5 regenerates Figure 5 (uniform error distribution).
func RunFigure5(scale float64) (*Figure56, error) { return runFigure56(scale, false) }

// RunFigure6 regenerates Figure 6 (access-proportional error distribution).
func RunFigure6(scale float64) (*Figure56, error) { return runFigure56(scale, true) }

func runFigure56(scale float64, proportional bool) (*Figure56, error) {
	if scale <= 0 || scale > 1 {
		return nil, fmt.Errorf("experiment: scale %v out of (0,1]", scale)
	}
	fig := &Figure56{Proportional: proportional}
	for _, mtbfSec := range []int{1, 2, 4} {
		base := DefaultPriorityConfig()
		base.MTBF = time.Duration(mtbfSec) * time.Second
		base.Proportional = proportional
		base.Duration = time.Duration(float64(base.Duration) * scale)
		if base.Duration < 100*time.Second {
			base.Duration = 100 * time.Second
		}
		cmpRuns := [2]*PriorityResult{}
		for i, prio := range []bool{false, true} {
			cfg := base
			cfg.Prioritized = prio
			res, err := RunPriority(cfg)
			if err != nil {
				return nil, err
			}
			cmpRuns[i] = res
		}
		fig.Comparisons = append(fig.Comparisons, PriorityComparison{
			MTBF:          base.MTBF,
			Unprioritized: cmpRuns[0],
			Prioritized:   cmpRuns[1],
		})
	}
	return fig, nil
}

// Render prints the figure's two panels: escaped-error share and mean
// detection latency, unprioritized vs prioritized.
func (f *Figure56) Render() string {
	var b strings.Builder
	name, paper := "Figure 5 (uniform error distribution)", "paper: 14.6–25.5% reduction, slightly higher latency"
	if f.Proportional {
		name, paper = "Figure 6 (access-proportional error distribution)", "paper: ≈25% escapes, 10.5–12.5% reduction, ≈equal latency"
	}
	fmt.Fprintf(&b, "%s\n", name)
	b.WriteString("MTBF   escaped%% unprio   escaped%% prio   reduction   latency unprio   latency prio\n")
	for _, c := range f.Comparisons {
		fmt.Fprintf(&b, "%4v %16.1f%% %14.1f%% %10.1f%% %16v %14v\n",
			c.MTBF, c.Unprioritized.EscapedPct(), c.Prioritized.EscapedPct(),
			c.EscapeReductionPct(),
			c.Unprioritized.MeanLatency.Round(time.Millisecond*100),
			c.Prioritized.MeanLatency.Round(time.Millisecond*100))
	}
	rows := make([]barRow, 0, 2*len(f.Comparisons))
	for _, c := range f.Comparisons {
		rows = append(rows,
			barRow{
				Label:  c.MTBF.String() + " round-robin ",
				Value:  c.Unprioritized.EscapedPct(),
				Suffix: fmt.Sprintf("%.1f%%", c.Unprioritized.EscapedPct()),
			},
			barRow{
				Label:  c.MTBF.String() + " prioritized ",
				Value:  c.Prioritized.EscapedPct(),
				Suffix: fmt.Sprintf("%.1f%%", c.Prioritized.EscapedPct()),
			},
		)
	}
	b.WriteString(asciiBars("", rows, 40))
	fmt.Fprintf(&b, "(%s)\n", paper)
	return b.String()
}
