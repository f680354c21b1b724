package scenario

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"repro/internal/health"
	"repro/internal/metrics"
	"repro/internal/wire"
)

// ErrStopped reports a run cut short by the caller's stop channel.
var ErrStopped = errors.New("scenario: run stopped")

// RunOptions parameterize a live run on top of the plan options.
type RunOptions struct {
	Options
	Addrs []string
	Out   io.Writer       // progress + ScenarioThroughput lines; nil = silent
	Stop  <-chan struct{} // optional cancellation
}

// Run builds the plan for (scenario, seed) and replays it against the
// server: workers pace their pre-drawn ops along the tick schedule, a
// sampler polls STATS2 each tick, and phase boundaries apply the
// timeline's injector changes via InjectCtl. The returned report is
// non-nil whenever the run got far enough to measure, even if it also
// returns an error (failed acceptance still wants the artifact).
func Run(sc *Scenario, opts RunOptions) (*Report, error) {
	plan, err := Build(sc, opts.Options)
	if err != nil {
		return nil, err
	}
	out := opts.Out
	if out == nil {
		out = io.Discard
	}
	if len(opts.Addrs) == 0 {
		return nil, errors.New("scenario: no server address")
	}

	ctl, err := DialPrimary(opts.Addrs)
	if err != nil {
		return nil, err
	}
	defer ctl.Close()

	fmt.Fprintf(out, "scenario %s: seed=%d conns=%d slots=%d scale=%g ticks=%d target-ops=%d\n",
		sc.Name, plan.Seed, plan.Conns, plan.Slots, plan.Scale, len(plan.Ticks), plan.Summary.TotalOps)

	// Teardown is best-effort: the measurements are already taken by then,
	// so its errors are not interesting.
	workers := make([]*worker, 0, plan.Conns)
	defer func() {
		for _, w := range workers {
			_ = w.close()
		}
	}()
	for i := 0; i < plan.Conns; i++ {
		w := &worker{
			id: i, addrs: opts.Addrs, lax: sc.Lax,
			phaseDone: make([]int, len(sc.Phases)), phaseEnd: make([]time.Duration, len(sc.Phases)),
		}
		workers = append(workers, w)
		if err := w.open(plan.Slots); err != nil {
			return nil, fmt.Errorf("worker %d setup: %w", i, err)
		}
	}

	hasInject := false
	for _, ph := range sc.Phases {
		if ph.Inject.Set {
			hasInject = true
		}
	}

	start0, err := ctl.Stats2()
	if err != nil {
		return nil, fmt.Errorf("STATS2: %w", err)
	}
	snap0, err := metrics.ParseSnapshot(start0)
	if err != nil {
		return nil, fmt.Errorf("STATS2 decode: %w", err)
	}

	samp := &sampler{ctl: ctl, base0: snap0}

	// The timeline's first injector change belongs before the first op.
	if sc.Phases[0].Inject.Set {
		in := scaleInject(sc.Phases[0].Inject, plan.Scale)
		if err := ctl.InjectCtl(in.Period, in.ProcPeriod, in.Mode); err != nil {
			return nil, fmt.Errorf("InjectCtl: %w", err)
		}
	}

	base := time.Now()
	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			w.run(plan, base, opts.Stop)
		}(w)
	}

	// Sampler loop: at each phase boundary apply the injector change, at
	// each tick end take a sample. Runs on the caller's goroutine.
	stopped := false
	curPhase := 0
	for ti := range plan.Ticks {
		tp := &plan.Ticks[ti]
		if tp.Phase != curPhase {
			curPhase = tp.Phase
			if ph := &sc.Phases[curPhase]; ph.Inject.Set {
				sleepUntil(base.Add(tp.Start), opts.Stop)
				in := scaleInject(ph.Inject, plan.Scale)
				if err := ctl.InjectCtl(in.Period, in.ProcPeriod, in.Mode); err != nil {
					stopped = true
					samp.err = fmt.Errorf("InjectCtl: %w", err)
					break
				}
				fmt.Fprintf(out, "scenario %s: phase %q: inject %s\n", sc.Name, ph.Name, ph.Inject.Describe())
			}
		}
		if !sleepUntil(base.Add(tp.Start+plan.Tick), opts.Stop) {
			stopped = true
			break
		}
		samp.take(base, sc.Phases[tp.Phase].Name, workers)
	}
	wg.Wait()
	elapsed := time.Since(base)

	// Quiesce the injectors before the verification sweeps, whatever state
	// the timeline left them in.
	if hasInject {
		if err := ctl.InjectCtl(0, 0, wire.InjectModeRandom); err != nil && samp.err == nil {
			samp.err = fmt.Errorf("InjectCtl disarm: %w", err)
		}
	}

	// Forced sweeps until clean: the first repairs anything still damaged
	// (catching the shots it covers in the server's ledger); a clean pass
	// proves the repairs held.
	sweeps, found := 0, 0
	for sweeps < 5 {
		n, err := ctl.Sweep()
		if err != nil {
			if samp.err == nil {
				samp.err = fmt.Errorf("SWEEP: %w", err)
			}
			break
		}
		sweeps++
		found += n
		if n == 0 {
			break
		}
	}
	endDoc, err := ctl.Stats2()
	if err != nil {
		return nil, fmt.Errorf("STATS2: %w", err)
	}
	endSnap, err := metrics.ParseSnapshot(endDoc)
	if err != nil {
		return nil, fmt.Errorf("STATS2 decode: %w", err)
	}

	rep := buildReport(plan, workers, samp, endSnap, elapsed, sweeps, found)
	if hasInject {
		rep.Detection = detection(samp.base0, endSnap)
	}
	for _, pr := range rep.Phases {
		fmt.Fprintf(out, "ScenarioThroughput/%s/%s %.0f ops/s\n", sc.Name, pr.Name, pr.OpsPerSec)
	}
	for _, pr := range rep.Phases {
		if pr.Health != "" {
			fmt.Fprintf(out, "scenario %s: health[%s]: worst=%s max_open=%d max_debt=%d\n",
				sc.Name, pr.Name, pr.Health, pr.MaxOpen, pr.MaxDebt)
		}
	}
	if rep.Detection != nil {
		fmt.Fprintf(out, "scenario %s: detection: shots=%d joined=%d unjoined=%d p50=%.1fms max=%.1fms\n",
			sc.Name, rep.Detection.Shots, rep.Detection.Joined, rep.Detection.Unjoined,
			rep.Detection.P50ms, rep.Detection.MaxMs)
	}

	if stopped && samp.err == nil {
		return rep, ErrStopped
	}
	if samp.err != nil {
		return rep, samp.err
	}
	for _, w := range workers {
		if w.err != nil {
			return rep, w.err
		}
	}
	return rep, acceptance(sc, rep)
}

// acceptance applies the scenario's pass/fail rules to the finished report.
func acceptance(sc *Scenario, rep *Report) error {
	if sc.RequireJoin {
		if rep.Detection == nil {
			return fmt.Errorf("scenario %s: no detection evidence", sc.Name)
		}
		if rep.Detection.Shots == 0 {
			return fmt.Errorf("scenario %s: injector armed but no shots recorded", sc.Name)
		}
		if rep.Detection.Unjoined > 0 {
			return fmt.Errorf("scenario %s: %d of %d injected faults never joined a finding",
				sc.Name, rep.Detection.Unjoined, rep.Detection.Shots)
		}
	}
	if !sc.Lax {
		if rep.Mismatches > 0 {
			return fmt.Errorf("scenario %s: %d golden-copy mismatches", sc.Name, rep.Mismatches)
		}
		if rep.Server.FinalSweepFound > 0 {
			return fmt.Errorf("scenario %s: final sweep found %d findings on a clean run",
				sc.Name, rep.Server.FinalSweepFound)
		}
	}
	if rep.Server.FinalSweepFound > 0 && rep.Server.FinalSweepCount >= 5 {
		return fmt.Errorf("scenario %s: %d forced sweeps never came back clean", sc.Name, rep.Server.FinalSweepCount)
	}
	return nil
}

// sleepUntil waits for the deadline; false means the stop channel fired.
func sleepUntil(at time.Time, stop <-chan struct{}) bool {
	d := time.Until(at)
	if d <= 0 {
		select {
		case <-stop:
			return false
		default:
			return true
		}
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-stop:
		return false
	}
}

// sampler owns the per-tick observation state: STATS2 polls relative to
// the run's starting snapshot.
type sampler struct {
	ctl      *wire.Conn
	base0    metrics.Snapshot
	samples  []Sample
	prevDone int64
	prevAt   time.Time
	err      error
}

func (sm *sampler) take(base time.Time, phase string, workers []*worker) {
	doc, err := sm.ctl.Stats2()
	if err != nil {
		if sm.err == nil {
			sm.err = fmt.Errorf("STATS2: %w", err)
		}
		return
	}
	snap, err := metrics.ParseSnapshot(doc)
	if err != nil {
		if sm.err == nil {
			sm.err = fmt.Errorf("STATS2 decode: %w", err)
		}
		return
	}
	var done int64
	for _, w := range workers {
		done += w.done.Load()
	}
	now := time.Now()
	rate := 0.0
	if !sm.prevAt.IsZero() {
		if dt := now.Sub(sm.prevAt).Seconds(); dt > 0 {
			rate = float64(done-sm.prevDone) / dt
		}
	} else if dt := now.Sub(base).Seconds(); dt > 0 {
		rate = float64(done) / dt
	}
	sm.prevDone, sm.prevAt = done, now

	var findings uint64
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, "audit.findings.") {
			findings += v - sm.base0.Counters[name]
		}
	}
	s := Sample{
		AtSec:      now.Sub(base).Seconds(),
		Phase:      phase,
		OpsPerSec:  rate,
		QueueDepth: snap.Gauges["server.queue.depth"],
		Shed:       snap.Gauges["server.queue.dropped"] - sm.base0.Gauges["server.queue.dropped"],
		Findings:   findings,
		Sweeps:     snap.Counters["audit.sweeps"] - sm.base0.Counters["audit.sweeps"],
	}
	if hstate, ok := snap.Gauges["health.state"]; ok {
		s.Health = health.State(hstate).String()
		s.OpenShots = snap.Gauges["health.detect.open_shots"]
		s.AuditDebt = snap.Gauges["audit.debt.behind"]
	}
	sm.samples = append(sm.samples, s)
}

// buildReport assembles the JSON artifact from the plan, the workers'
// client-side tallies, the sampler's timeline, and the final snapshot.
func buildReport(plan *Plan, workers []*worker, samp *sampler, end metrics.Snapshot,
	elapsed time.Duration, sweeps, found int) *Report {
	rep := &Report{
		Summary:    plan.Summary,
		ElapsedSec: elapsed.Seconds(),
		OpStats:    map[string]OpStat{},
		Samples:    samp.samples,
	}
	if rep.Samples == nil {
		rep.Samples = []Sample{}
	}

	// Per-phase achieved throughput: ops done over the phase's measured
	// span (scheduled start to the latest worker activity in it).
	phaseStart := make([]time.Duration, len(plan.Summary.Phases))
	phaseEnd := make([]time.Duration, len(plan.Summary.Phases))
	seen := make([]bool, len(plan.Summary.Phases))
	for _, tp := range plan.Ticks {
		if !seen[tp.Phase] {
			phaseStart[tp.Phase], seen[tp.Phase] = tp.Start, true
		}
		phaseEnd[tp.Phase] = tp.Start + plan.Tick
	}
	for pi, ps := range plan.Summary.Phases {
		prDone := 0
		endAt := phaseEnd[pi]
		for _, w := range workers {
			prDone += w.phaseDone[pi]
			if w.phaseEnd[pi] > endAt {
				endAt = w.phaseEnd[pi]
			}
		}
		span := (endAt - phaseStart[pi]).Seconds()
		pr := PhaseResult{Name: ps.Name, TargetOps: ps.TargetOps, DoneOps: prDone, ElapsedSec: span}
		if span > 0 {
			pr.OpsPerSec = float64(prDone) / span
		}
		rep.Phases = append(rep.Phases, pr)
	}

	// Condense each phase's health timeline from its samples: worst SLO
	// state, peak undetected-fault count, peak audit debt.
	for i := range rep.Phases {
		worst, seen := health.OK, false
		var maxOpen, maxDebt int64
		for _, s := range samp.samples {
			if s.Phase != rep.Phases[i].Name || s.Health == "" {
				continue
			}
			if st, ok := health.ParseState(s.Health); ok {
				seen = true
				if st > worst {
					worst = st
				}
			}
			if s.OpenShots > maxOpen {
				maxOpen = s.OpenShots
			}
			if s.AuditDebt > maxDebt {
				maxDebt = s.AuditDebt
			}
		}
		if seen {
			rep.Phases[i].Health = worst.String()
			rep.Phases[i].MaxOpen = maxOpen
			rep.Phases[i].MaxDebt = maxDebt
		}
	}

	for k := OpKind(0); k < numOpKinds; k++ {
		var lats []time.Duration
		for _, w := range workers {
			lats = append(lats, w.lats[k]...)
		}
		if len(lats) > 0 {
			rep.OpStats[k.String()] = opStat(lats)
		}
	}
	for _, w := range workers {
		rep.Mismatches += w.Mismatches
		rep.ProcAborts += w.ProcAborts
	}

	sv := ServerStats{
		Executed:        end.Gauges["server.executed"] - samp.base0.Gauges["server.executed"],
		Shed:            end.Gauges["server.queue.dropped"] - samp.base0.Gauges["server.queue.dropped"],
		Sweeps:          end.Counters["audit.sweeps"] - samp.base0.Counters["audit.sweeps"],
		ProcExecs:       int64(end.Counters["proc.execs"] - samp.base0.Counters["proc.execs"]),
		ProcViolations:  int64(end.Counters["proc.violations"] - samp.base0.Counters["proc.violations"]),
		ProcReloads:     int64(end.Counters["proc.reloads"] - samp.base0.Counters["proc.reloads"]),
		LiveFindings:    end.Gauges["server.audit.findings"],
		FinalSweepCount: sweeps,
		FinalSweepFound: found,
	}
	for name, v := range end.Counters {
		if cls, ok := strings.CutPrefix(name, "audit.findings."); ok {
			if d := int64(v - samp.base0.Counters[name]); d != 0 {
				if sv.FindingsByClass == nil {
					sv.FindingsByClass = map[string]int64{}
				}
				sv.FindingsByClass[cls] = d
			}
		}
		if act, ok := strings.CutPrefix(name, "audit.actions."); ok {
			if d := int64(v - samp.base0.Counters[name]); d != 0 {
				if sv.ActionsByKind == nil {
					sv.ActionsByKind = map[string]int64{}
				}
				sv.ActionsByKind[act] = d
			}
		}
	}
	rep.Server = sv
	return rep
}

// detection reads the run's shot outcomes from the server's shot ledger:
// the counts are STATS2 deltas over the run, the latencies come from the
// ledger's lifetime histogram.
func detection(base, end metrics.Snapshot) *Detection {
	delta := func(g string) int { return int(end.Gauges[g] - base.Gauges[g]) }
	lat := end.Histograms["health.detect.latency"]
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	det := &Detection{
		Shots:     delta("health.detect.shots"),
		Joined:    delta("health.detect.joined"),
		TextShots: int(end.Counters["proc.shots"] - base.Counters["proc.shots"]),
		P50ms:     ms(lat.P50),
		P95ms:     ms(lat.P95),
		MaxMs:     ms(lat.Max),
	}
	det.Unjoined = det.Shots - det.Joined
	return det
}

// run paces the worker's column of the plan along the tick schedule
// against wall clock: sleep to each tick's start, then issue that tick's
// ops back-to-back.
func (w *worker) run(plan *Plan, base time.Time, stop <-chan struct{}) {
	for ti := range plan.Ticks {
		tp := &plan.Ticks[ti]
		if !sleepUntil(base.Add(tp.Start), stop) {
			w.err = ErrStopped
			return
		}
		for _, op := range plan.Ops[w.id][ti] {
			err := w.exec(op)
			w.phaseDone[tp.Phase]++
			if err != nil {
				w.err = fmt.Errorf("worker %d: %w", w.id, err)
				return
			}
		}
		if end := time.Since(base); end > w.phaseEnd[tp.Phase] {
			w.phaseEnd[tp.Phase] = end
		}
	}
}
