package inject

import (
	"fmt"
	"math"
	"time"

	"repro/internal/audit"
	"repro/internal/callproc"
	"repro/internal/isa"
	"repro/internal/memdb"
	"repro/internal/pecos"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vm"
)

// Outcome classifies one error-injection run, following the paper's
// Table 7.
type Outcome int

// Run outcomes (Table 7).
const (
	// OutcomeNotActivated: the erroneous instruction was never reached;
	// the run is discarded from analysis.
	OutcomeNotActivated Outcome = iota + 1
	// OutcomeNotManifested: executed but behaviour stayed correct.
	OutcomeNotManifested
	// OutcomePECOS: a PECOS assertion block caught the error first.
	OutcomePECOS
	// OutcomeAudit: an audit mechanism detected an error in the database.
	OutcomeAudit
	// OutcomeSystem: the operating system detected the error (signal)
	// and the client crashed.
	OutcomeSystem
	// OutcomeHang: the client dead/live-locked and made no progress.
	OutcomeHang
	// OutcomeFSV: the client wrote incorrect data to the database —
	// a fail-silence violation.
	OutcomeFSV
)

// String returns the Table 7 name.
func (o Outcome) String() string {
	switch o {
	case OutcomeNotActivated:
		return "error-not-activated"
	case OutcomeNotManifested:
		return "activated-not-manifested"
	case OutcomePECOS:
		return "pecos-detection"
	case OutcomeAudit:
		return "audit-detection"
	case OutcomeSystem:
		return "system-detection"
	case OutcomeHang:
		return "client-hang"
	case OutcomeFSV:
		return "fail-silence-violation"
	default:
		return "unknown"
	}
}

// Campaign configures one error-injection campaign (one cell row of
// Tables 8/9: an error model × target class × detector configuration).
type Campaign struct {
	Model    ErrorModel
	Directed bool // true: inject only into CFIs; false: whole text segment
	UsePECOS bool
	UseAudit bool
	// Runs is the number of injection runs (paper: 200).
	Runs int
	// Threads is the client thread count per run.
	Threads int
	// Iterations is each thread's Figure 8 loop count.
	Iterations int
	// StepBudget bounds a run; exhaustion with runnable threads = hang.
	StepBudget uint64
	// AuditEverySteps is the periodic-audit interval in VM steps.
	AuditEverySteps uint64
	// WindowSteps is the injector's restoration window.
	WindowSteps uint64
	// Granularity selects which CFIs PECOS protects (zero value:
	// ProtectAll) — the instrumentation-granularity ablation.
	Granularity pecos.Granularity
	// DBErrorShare makes this a mixed campaign: each run injects a
	// database bit flip instead of a text error with this probability
	// (the paper's Table 10 assumes 0.75 database / 0.25 client).
	// Zero keeps the pure client-injection campaigns of Tables 8/9.
	DBErrorShare float64
	// Seed makes the campaign deterministic.
	Seed int64
	// Trace, when set, turns the campaign into a replayable journal: each
	// run emits its shot metadata onto the "inject" ring, audit findings
	// onto the "audit" ring, PECOS violations onto the "pecos" ring, and
	// its Table 7 classification as a run-outcome event — all correlated
	// by a per-run shot ID.
	Trace *trace.Recorder
}

// DefaultCampaign returns the paper's campaign shape for the given knobs.
func DefaultCampaign(model ErrorModel, directed, usePECOS, useAudit bool) Campaign {
	return Campaign{
		Model:           model,
		Directed:        directed,
		UsePECOS:        usePECOS,
		UseAudit:        useAudit,
		Runs:            200,
		Threads:         4,
		Iterations:      12,
		StepBudget:      400_000,
		AuditEverySteps: 150,
		WindowSteps:     32,
		Seed:            1,
	}
}

// Result aggregates a campaign.
type Result struct {
	Campaign Campaign
	Counts   map[Outcome]int
	// Injected is the number of runs analysed (the paper's "total number
	// of injected errors" row counts runs where the client started).
	Injected int
	// Activated is Injected minus not-activated runs.
	Activated int
	// MultiActivations counts runs where more than one thread executed
	// the erroneous instruction (the §6.1.2 multi-thread effect).
	MultiActivations int
}

// Rate returns the share of ACTIVATED runs with the given outcome —
// the denominators used in Tables 8 and 9.
func (r *Result) Rate(o Outcome) float64 {
	if r.Activated == 0 {
		return 0
	}
	return float64(r.Counts[o]) / float64(r.Activated)
}

// ConfidenceInterval returns the 95% binomial confidence interval of the
// outcome's rate over activated runs, matching the paper's parenthesised
// ranges.
func (r *Result) ConfidenceInterval(o Outcome) (lo, hi float64) {
	n := float64(r.Activated)
	if n == 0 {
		return 0, 0
	}
	p := r.Rate(o)
	half := 1.96 * math.Sqrt(p*(1-p)/n)
	lo, hi = p-half, p+half
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}

// Run executes the campaign.
func (c Campaign) Run() (*Result, error) {
	if c.Runs <= 0 || c.Threads <= 0 || c.Iterations <= 0 {
		return nil, fmt.Errorf("inject: invalid campaign %+v", c)
	}
	res := &Result{Campaign: c, Counts: make(map[Outcome]int)}
	for run := 0; run < c.Runs; run++ {
		out, multi, err := c.oneRun(run, c.Seed+int64(run)*7919)
		if err != nil {
			return nil, fmt.Errorf("inject: run %d: %w", run, err)
		}
		res.Injected++
		res.Counts[out]++
		if out != OutcomeNotActivated {
			res.Activated++
		}
		if multi {
			res.MultiActivations++
		}
	}
	return res, nil
}

// oneRun performs a single injection run and classifies it.
func (c Campaign) oneRun(run int, seed int64) (Outcome, bool, error) {
	rng := sim.NewRNG(seed)
	dbError := c.DBErrorShare > 0 && rng.Bool(c.DBErrorShare)

	// Flight recording: one shot ID correlates this run's injection,
	// detections, and outcome across the journal.
	var injRing *trace.Ring
	var auditTracer *audit.Tracer
	var shotID uint64
	if c.Trace != nil {
		injRing = c.Trace.Ring("inject", 0)
		auditTracer = audit.NewTracer(c.Trace)
		shotID = c.Trace.NextTrace()
		auditTracer.Resolve = func(audit.Finding) uint64 { return shotID }
	}

	var steps uint64
	clock := stepClock(&steps)
	db, err := memdb.New(callproc.Schema(callproc.SchemaConfig{
		ConfigRecords: 8,
		CallRecords:   c.Threads*3 + 8,
	}), memdb.WithClock(clock))
	if err != nil {
		return 0, false, err
	}

	// Build the client, optionally PECOS-instrumented.
	prog, err := isa.AssembleWithInfo(ClientSource(c.Iterations))
	if err != nil {
		return 0, false, err
	}
	text := prog.Text
	var rt *pecos.Runtime
	if c.UsePECOS {
		opts := pecos.DefaultOptions()
		if c.Granularity != 0 {
			opts.Granularity = c.Granularity
		}
		ins, err := pecos.Instrument(prog, opts)
		if err != nil {
			return 0, false, err
		}
		text = ins.Text
		rt = pecos.NewRuntime(ins)
	}

	// The real client binary's text segment is far larger than its hot
	// call-processing loop: most of it (library code, cold features) is
	// never executed in a run. Model that with a cold region appended
	// after the code — random injections landing there never activate,
	// and wild transfers into it fault.
	cold := make([]uint32, len(text))
	for i := range cold {
		cold[i] = 0xEE000000 | uint32(i&0xFFFF) // undefined opcode
	}
	text = append(append(make([]uint32, 0, 2*len(text)), text...), cold...)

	env := NewClientEnv(db)
	machine, err := vm.New(text, c.Threads, vm.DefaultConfig(), env.Syscall)
	if err != nil {
		return 0, false, err
	}
	if rt != nil {
		machine.OnTrap = rt.OnTrap
		if c.Trace != nil {
			rt.Trace = c.Trace.Ring("pecos", 0)
			rt.TraceID = shotID
		}
	}

	// Audit stack, when enabled.
	var checks []audit.FullChecker
	if c.UseAudit {
		rec := audit.Recovery{}
		sem, err := audit.NewSemanticCheck(db, rec, clock, callproc.CallLoop())
		if err != nil {
			return 0, false, err
		}
		// The grace window must exceed a full interleaved call setup
		// (≈Threads × setup length in global steps) so in-flight chains
		// are not reclaimed, while staying under the hold phase so
		// corrupted chains are caught while their call is active.
		sem.GraceAge = 250 * time.Microsecond // 250 VM steps in stepClock units
		sem.TerminateOwners = false
		checks = []audit.FullChecker{
			audit.NewStaticCheck(db, rec),
			audit.NewStructuralCheck(db, rec),
			audit.NewRangeCheck(db, rec),
			sem,
		}
	}

	// Choose the error: a breakpoint in the client text, or — in mixed
	// campaigns — a bit flip into the database region at a random point
	// of the run.
	var injector *TextInjector
	dbFlipAt := uint64(0)
	dbFlipped := false
	if dbError {
		dbFlipAt = uint64(rng.Intn(int(c.StepBudget/64) + 1))
	} else {
		var target uint32
		if c.Directed {
			cfis := pecos.ScanCFIs(text)
			if len(cfis) == 0 {
				return 0, false, fmt.Errorf("inject: client has no CFIs")
			}
			target = cfis[rng.Intn(len(cfis))]
		} else {
			target = uint32(rng.Intn(len(text)))
		}
		injector = NewTextInjector(c.Model, rng.Split(), target)
		injector.WindowSteps = c.WindowSteps
		if err := injector.Attach(machine); err != nil {
			return 0, false, err
		}
		if injRing != nil {
			injRing.Emit(trace.Event{
				Kind: trace.KindShot, Trace: shotID, Op: c.Model.String(),
				Arg: int64(target), Aux: int64(run),
			})
		}
	}

	// Interleave execution quanta with periodic audits. Findings made
	// while the client is still alive count as live audit detections;
	// findings from the post-mortem sweep only matter for runs the
	// system did not already flag by crashing the client.
	pecosDetected, auditLive, auditPost, crashed := false, false, false, false
	quantum := c.AuditEverySteps
	if quantum == 0 || quantum > c.StepBudget {
		quantum = c.StepBudget
	}
	runAudits := func(live bool) {
		for _, chk := range checks {
			fs := chk.CheckAll()
			if auditTracer != nil {
				for _, f := range fs {
					auditTracer.Note(f)
				}
			}
			if len(fs) > 0 {
				if live {
					auditLive = true
				} else {
					auditPost = true
				}
			}
		}
	}
	for steps < c.StepBudget && !machine.Done() {
		env.Steps = steps
		ran := machine.Run(quantum)
		steps += ran
		env.Steps = steps
		if dbError && !dbFlipped && steps >= dbFlipAt {
			// Mixed campaign: the database error strikes now, at a
			// uniformly random byte of the shared region.
			off, bit := RandomBit(rng, db.Size())
			_ = db.FlipBit(off, bit)
			dbFlipped = true
			if injRing != nil {
				injRing.Emit(trace.Event{
					Kind: trace.KindShot, Trace: shotID, Op: "dbflip",
					Arg: int64(off), Code: int64(bit), Aux: int64(run),
				})
			}
		}
		if rt != nil && rt.Detections > 0 {
			pecosDetected = true
		}
		if machine.Crashed() {
			crashed = true
		}
		runAudits(!crashed)
		if ran == 0 {
			break
		}
	}
	hang := steps >= c.StepBudget && machine.Runnable() > 0 && !machine.Crashed()

	// The audit process keeps running after the client is gone: advance
	// the virtual clock past the semantic grace window and audit once
	// more, so wreckage left behind is still diagnosed and repaired.
	if len(checks) > 0 {
		steps += 4 * c.AuditEverySteps
		env.Steps = steps
		runAudits(!crashed && !hang)
	}

	// finish stamps the run's classification into the journal before
	// returning it, closing the shot→detection→outcome chain.
	finish := func(o Outcome, multi bool) (Outcome, bool, error) {
		if injRing != nil {
			injRing.Emit(trace.Event{
				Kind: trace.KindOutcome, Trace: shotID, Op: o.String(),
				Aux: int64(run),
			})
		}
		return o, multi, nil
	}

	multi := false
	if injector != nil {
		multi = len(injector.ActivatedThreads) > 1
		if !injector.Activated() {
			return finish(OutcomeNotActivated, multi)
		}
	} else if !dbFlipped {
		return finish(OutcomeNotActivated, false)
	}

	// Fail-silence evidence: the client flagged a mismatch, or the final
	// sweep finds a written record differing from its golden copy.
	fsv := env.FlagErrSteps >= 0 || env.FinalSweepMismatch()

	// Table 7 classification precedence: PECOS detection comes "prior to
	// any other detection technique or any other result"; audit
	// detection while the client still ran precedes its eventual fate;
	// a crash is system detection even if the post-mortem audit also
	// found damage; then hang, audit-after-the-fact, and fail-silence.
	switch {
	case pecosDetected:
		return finish(OutcomePECOS, multi)
	case auditLive:
		return finish(OutcomeAudit, multi)
	case crashed:
		return finish(OutcomeSystem, multi)
	case hang:
		return finish(OutcomeHang, multi)
	case auditPost:
		return finish(OutcomeAudit, multi)
	case fsv:
		return finish(OutcomeFSV, multi)
	default:
		return finish(OutcomeNotManifested, multi)
	}
}
