package scenario

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// Report is the per-run JSON artifact: the deterministic plan summary plus
// the measured timeline. Only Summary is golden-testable; the rest depends
// on real scheduling and wall time.
type Report struct {
	Summary    Summary           `json:"summary"`
	ElapsedSec float64           `json:"elapsed_sec"`
	Phases     []PhaseResult     `json:"phases"`
	OpStats    map[string]OpStat `json:"op_stats"`
	Server     ServerStats       `json:"server"`
	// Detection is present when the timeline armed the injectors: the
	// run's shot outcomes as the server's shot ledger counted them.
	Detection  *Detection `json:"detection,omitempty"`
	Samples    []Sample   `json:"samples"`
	Mismatches int        `json:"mismatches"`
	ProcAborts int        `json:"proc_aborts"`
}

// PhaseResult reports achieved throughput for one timeline phase, plus the
// phase's health timeline condensed from the samples (absent when the
// server's health plane is off): the worst overall SLO state observed, the
// peak count of injected-but-undetected faults, and the peak audit
// sweeps-behind debt.
type PhaseResult struct {
	Name       string  `json:"name"`
	TargetOps  int     `json:"target_ops"`
	DoneOps    int     `json:"done_ops"`
	ElapsedSec float64 `json:"elapsed_sec"`
	OpsPerSec  float64 `json:"ops_per_sec"`
	Health     string  `json:"health,omitempty"`
	MaxOpen    int64   `json:"max_open_shots,omitempty"`
	MaxDebt    int64   `json:"max_audit_debt,omitempty"`
}

// OpStat is the client-side latency profile for one op kind.
type OpStat struct {
	Count int     `json:"count"`
	P50us float64 `json:"p50_us"`
	P95us float64 `json:"p95_us"`
	P99us float64 `json:"p99_us"`
	MaxUs float64 `json:"max_us"`
}

// ServerStats is the end-of-run server-side tally pulled from STATS2.
type ServerStats struct {
	Executed        int64            `json:"executed"`
	Shed            int64            `json:"shed"`
	Sweeps          uint64           `json:"sweeps"`
	FindingsByClass map[string]int64 `json:"findings_by_class,omitempty"`
	ActionsByKind   map[string]int64 `json:"actions_by_kind,omitempty"`
	ProcExecs       int64            `json:"proc_execs"`
	ProcViolations  int64            `json:"proc_violations"`
	ProcReloads     int64            `json:"proc_reloads"`
	LiveFindings    int64            `json:"live_findings"`
	FinalSweepCount int              `json:"final_sweep_count"`
	FinalSweepFound int              `json:"final_sweep_found"`
}

// Detection is the run's share of the server's shot ledger: how many region
// shots the injector fired during the run and how many an audit finding
// caught, read as STATS2 deltas. The latency fields cover the server's
// whole lifetime, not just this run: they come from the ledger's
// shot-to-first-catch histogram, whose quantiles are interpolated from its
// buckets and whose max is exact.
type Detection struct {
	Shots     int     `json:"shots"`      // region (dbflip) shots recorded in the ledger
	Joined    int     `json:"joined"`     // shots a finding caught
	Unjoined  int     `json:"unjoined"`   // Shots − Joined (must be 0 under RequireJoin)
	TextShots int     `json:"text_shots"` // proc textflip shots (join via PECOS, not the ledger)
	P50ms     float64 `json:"p50_ms"`     // lifetime, interpolated
	P95ms     float64 `json:"p95_ms"`     // lifetime, interpolated
	MaxMs     float64 `json:"max_ms"`     // lifetime, exact
}

// Sample is one per-tick observation of the run. The health fields are
// populated only when the server publishes the health plane's gauges.
type Sample struct {
	AtSec      float64 `json:"at_sec"`
	Phase      string  `json:"phase"`
	OpsPerSec  float64 `json:"ops_per_sec"` // achieved since the previous sample
	QueueDepth int64   `json:"queue_depth"`
	Shed       int64   `json:"shed"`
	Findings   uint64  `json:"findings"` // cumulative, all classes
	Sweeps     uint64  `json:"sweeps"`   // cumulative
	Health     string  `json:"health,omitempty"`
	OpenShots  int64   `json:"open_shots,omitempty"` // injected, not yet detected
	AuditDebt  int64   `json:"audit_debt,omitempty"` // periodic sweeps behind schedule
}

// Encode renders the full report as indented JSON, newline-terminated.
func (r *Report) Encode() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// WriteFile writes the encoded report to path.
func (r *Report) WriteFile(path string) error {
	b, err := r.Encode()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// DurPct returns the p-quantile (p in [0,1]) of an ascending duration
// slice — the one latency-percentile rule the reports share.
func DurPct(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return sorted[i]
}

// opStat condenses one kind's latency samples.
func opStat(lats []time.Duration) OpStat {
	st := OpStat{Count: len(lats)}
	if len(lats) == 0 {
		return st
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	st.P50us = us(DurPct(lats, 0.50))
	st.P95us = us(DurPct(lats, 0.95))
	st.P99us = us(DurPct(lats, 0.99))
	st.MaxUs = us(lats[len(lats)-1])
	return st
}
