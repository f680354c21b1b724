package experiment

import (
	"strings"
	"testing"
	"time"

	"repro/internal/inject"
)

// The experiment tests assert the paper's qualitative results — who wins,
// by roughly what factor, where the crossovers fall — at reduced scale so
// the suite stays fast. EXPERIMENTS.md records the full-scale numbers.

func TestTable3Shape(t *testing.T) {
	t3, err := RunTable3(0.3)
	if err != nil {
		t.Fatal(err)
	}
	w, wo := t3.With, t3.Without
	if w.Injected == 0 || wo.Injected == 0 {
		t.Fatal("no injections")
	}
	// Paper: 63% escaped without audits vs 13% with — a big factor.
	if wo.EscapedPct() < 40 {
		t.Fatalf("without audits escaped %.1f%%, want the majority (paper 63%%)", wo.EscapedPct())
	}
	if w.EscapedPct() >= wo.EscapedPct()/2 {
		t.Fatalf("audits reduced escapes only %.1f%% → %.1f%%", wo.EscapedPct(), w.EscapedPct())
	}
	// Paper: audits catch the lion's share (85%).
	if w.CaughtPct() < 70 {
		t.Fatalf("caught %.1f%%, want ≥70%% (paper 85%%)", w.CaughtPct())
	}
	// Paper: latent errors nearly eliminated (37% → 2%).
	if w.NoEffectPct() >= wo.NoEffectPct()/3 {
		t.Fatalf("latent errors %.1f%% → %.1f%%, want strong reduction", wo.NoEffectPct(), w.NoEffectPct())
	}
	// Paper: setup 160 ms → 270 ms (≈69% increase).
	if wo.AvgSetup < 120*time.Millisecond || wo.AvgSetup > 200*time.Millisecond {
		t.Fatalf("unaudited setup %v, want ≈160ms", wo.AvgSetup)
	}
	ratio := float64(w.AvgSetup) / float64(wo.AvgSetup)
	if ratio < 1.4 || ratio > 2.0 {
		t.Fatalf("setup overhead ratio %.2f, want ≈1.69", ratio)
	}
	if !strings.Contains(t3.Render(), "Table 3") {
		t.Fatal("Render missing title")
	}
}

func TestTable3Validation(t *testing.T) {
	if _, err := RunTable3(0); err == nil {
		t.Fatal("scale 0 accepted")
	}
	if _, err := RunTable3(1.5); err == nil {
		t.Fatal("scale > 1 accepted")
	}
	cfg := DefaultEffectConfig()
	cfg.Runs = 0
	if _, err := RunEffect(cfg); err == nil {
		t.Fatal("zero runs accepted")
	}
}

func TestTable4Breakdown(t *testing.T) {
	t4, err := RunTable4(0.3)
	if err != nil {
		t.Fatal(err)
	}
	r := t4.Result
	// Structural and static detections dominate their regions (paper:
	// 100% each); dynamic detection is high but imperfect.
	st := r.ByRegion["structural"]
	if pct(st.Detected, st.Detected+st.Escaped+st.NoEffect) < 90 {
		t.Fatalf("structural detection %+v, want ≈100%%", st)
	}
	sd := r.ByRegion["static"]
	if pct(sd.Detected, sd.Detected+sd.Escaped+sd.NoEffect) < 80 {
		t.Fatalf("static detection %+v, want ≈100%%", sd)
	}
	// Timing escapes dominate no-rule escapes (paper 14% vs 4%).
	if r.EscapedByReason[EscapeTiming] < r.EscapedByReason[EscapeNoRule] {
		t.Fatalf("escape reasons %v, want timing-dominated", r.EscapedByReason)
	}
	if !strings.Contains(t4.Render(), "Table 4") {
		t.Fatal("Render missing title")
	}
}

func TestFigure3Shape(t *testing.T) {
	fig, err := RunFigure3(0.12)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Points) != 10 {
		t.Fatalf("points = %d, want 10", len(fig.Points))
	}
	// Escaped count per run rises as the inter-arrival shrinks.
	first, last := fig.Points[0], fig.Points[len(fig.Points)-1]
	if first.InterArrival != 2*time.Second || last.InterArrival != 20*time.Second {
		t.Fatalf("sweep bounds: %v .. %v", first.InterArrival, last.InterArrival)
	}
	if first.EscapedPerRun() <= last.EscapedPerRun() {
		t.Fatalf("escape count did not rise with error rate: %.1f vs %.1f",
			first.EscapedPerRun(), last.EscapedPerRun())
	}
	// Percentage stays in a band (paper ≈8–14%): judge the sweep average
	// — individual points are noisy at test scale — and cap any single
	// point well below a collapse.
	var totEsc, totInj int
	for _, p := range fig.Points {
		totEsc += p.Escaped
		totInj += p.Injected
		if p.EscapedPct > 30 {
			t.Fatalf("escaped%% at %v = %.1f, audits collapsing", p.InterArrival, p.EscapedPct)
		}
	}
	avg := 100 * float64(totEsc) / float64(totInj)
	if avg < 3 || avg > 20 {
		t.Fatalf("sweep-average escaped%% = %.1f, outside plausible band", avg)
	}
	if !strings.Contains(fig.Render(), "Figure 3") {
		t.Fatal("Render missing title")
	}
}

func TestFigure4Overheads(t *testing.T) {
	fig, err := RunFigure4()
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Rows) != 7 {
		t.Fatalf("rows = %d, want 7", len(fig.Rows))
	}
	byName := map[string]Figure4Row{}
	for _, r := range fig.Rows {
		byName[r.Op.String()] = r
		if r.Modified <= r.Original {
			t.Fatalf("%v: modified %v not above original %v", r.Op, r.Modified, r.Original)
		}
	}
	// The paper's ordering: DBwrite_rec has the largest overhead, DBinit
	// the smallest.
	if byName["DBwrite_rec"].OverheadPct < byName["DBinit"].OverheadPct {
		t.Fatal("DBwrite_rec overhead not above DBinit")
	}
	if byName["DBwrite_rec"].OverheadPct < 35 || byName["DBwrite_rec"].OverheadPct > 55 {
		t.Fatalf("DBwrite_rec overhead %.1f%%, paper 45.2%%", byName["DBwrite_rec"].OverheadPct)
	}
	if byName["DBinit"].OverheadPct > 12 {
		t.Fatalf("DBinit overhead %.1f%%, paper 6.5%%", byName["DBinit"].OverheadPct)
	}
	if !strings.Contains(fig.Render(), "Figure 4") {
		t.Fatal("Render missing title")
	}
}

func TestFigure5PrioritizationHelps(t *testing.T) {
	fig, err := RunFigure5(0.25)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Comparisons) != 3 {
		t.Fatalf("comparisons = %d, want 3 (MTBF 1,2,4s)", len(fig.Comparisons))
	}
	// Across the sweep, prioritization must not lose on escapes overall.
	var totalU, totalP, injU, injP int
	for _, c := range fig.Comparisons {
		totalU += c.Unprioritized.Escaped
		injU += c.Unprioritized.Injected
		totalP += c.Prioritized.Escaped
		injP += c.Prioritized.Injected
	}
	rateU := pct(totalU, injU)
	rateP := pct(totalP, injP)
	if rateP >= rateU {
		t.Fatalf("prioritization did not reduce escapes: %.1f%% vs %.1f%%", rateU, rateP)
	}
	// Uniform escapes in the paper's band (3–9%, allow slack at scale).
	if rateU < 1 || rateU > 15 {
		t.Fatalf("uniform escape rate %.1f%% outside plausible band", rateU)
	}
	if !strings.Contains(fig.Render(), "Figure 5") {
		t.Fatal("Render missing title")
	}
}

func TestFigure6ProportionalErrors(t *testing.T) {
	fig, err := RunFigure6(0.25)
	if err != nil {
		t.Fatal(err)
	}
	// Proportional placement produces much higher escape rates than the
	// paper's uniform case — around 25%.
	var total, inj int
	for _, c := range fig.Comparisons {
		total += c.Unprioritized.Escaped
		inj += c.Unprioritized.Injected
	}
	rate := pct(total, inj)
	if rate < 12 || rate > 40 {
		t.Fatalf("proportional escape rate %.1f%%, paper ≈25%%", rate)
	}
	if !strings.Contains(fig.Render(), "Figure 6") {
		t.Fatal("Render missing title")
	}
}

func TestTable8DirectedShape(t *testing.T) {
	t8, err := RunTable8(0.15)
	if err != nil {
		t.Fatal(err)
	}
	if len(t8.Columns) != 4 {
		t.Fatalf("columns = %d", len(t8.Columns))
	}
	base := t8.Columns[0]    // without PECOS, without audit
	pecosOn := t8.Columns[2] // with PECOS, without audit
	// Paper: system detection 52% → 14%; PECOS detects 77–83%.
	if base.Rate(inject.OutcomeSystem) < 0.3 {
		t.Fatalf("baseline system detection %.2f, want ≥0.3 (paper 0.52)", base.Rate(inject.OutcomeSystem))
	}
	if pecosOn.Rate(inject.OutcomeSystem) >= base.Rate(inject.OutcomeSystem)/2 {
		t.Fatalf("PECOS did not halve system detection: %.2f vs %.2f",
			pecosOn.Rate(inject.OutcomeSystem), base.Rate(inject.OutcomeSystem))
	}
	if pecosOn.Rate(inject.OutcomePECOS) < 0.6 {
		t.Fatalf("PECOS detection %.2f, want ≥0.6 (paper 0.77–0.83)", pecosOn.Rate(inject.OutcomePECOS))
	}
	// Hangs eliminated with PECOS.
	if t8.Columns[3].Counts[inject.OutcomeHang] != 0 {
		t.Fatalf("hangs with full protection: %d", t8.Columns[3].Counts[inject.OutcomeHang])
	}
	if !strings.Contains(t8.Render(), "Table 8") {
		t.Fatal("Render missing title")
	}
}

func TestTable9RandomShape(t *testing.T) {
	t9, err := RunTable9(0.15)
	if err != nil {
		t.Fatal(err)
	}
	base := t9.Columns[0]
	full := t9.Columns[3]
	// Paper: not-activated is the majority for random injections.
	if pct(base.Counts[inject.OutcomeNotActivated], base.Injected) < 40 {
		t.Fatalf("not-activated %.1f%%, want majority (paper 64–73%%)",
			pct(base.Counts[inject.OutcomeNotActivated], base.Injected))
	}
	// Paper: full protection reduces both system detections (66→39%)
	// and fail-silence violations (5→2%).
	if full.Rate(inject.OutcomeSystem) >= base.Rate(inject.OutcomeSystem) {
		t.Fatalf("system detection not reduced: %.2f vs %.2f",
			full.Rate(inject.OutcomeSystem), base.Rate(inject.OutcomeSystem))
	}
	if full.Rate(inject.OutcomeFSV) > base.Rate(inject.OutcomeFSV) {
		t.Fatalf("FSV not reduced: %.2f vs %.2f",
			full.Rate(inject.OutcomeFSV), base.Rate(inject.OutcomeFSV))
	}
	if !strings.Contains(t9.Render(), "Table 9") {
		t.Fatal("Render missing title")
	}
}

func TestTable10CoverageOrdering(t *testing.T) {
	t10, err := RunTable10(0.15)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: none 35% < PECOS-only 42% < audit-only 73% < both 80%.
	none, auditOnly, pecosOnly, both := t10.Mixed[0], t10.Mixed[1], t10.Mixed[2], t10.Mixed[3]
	if !(none < auditOnly && none < both) {
		t.Fatalf("no-protection coverage %.0f not the floor: %v", none, t10.Mixed)
	}
	if both < auditOnly || both < pecosOnly {
		t.Fatalf("combined coverage %.0f not the ceiling: %v", both, t10.Mixed)
	}
	if auditOnly < pecosOnly {
		t.Fatalf("audit-only %.0f below PECOS-only %.0f; paper has audits more valuable for the 75%% DB mix",
			auditOnly, pecosOnly)
	}
	if both < 60 || both > 100 {
		t.Fatalf("combined coverage %.0f%%, paper ≈80%%", both)
	}
	if !strings.Contains(t10.Render(), "Table 10") {
		t.Fatal("Render missing title")
	}
}

func TestSelectiveMonitoringStudy(t *testing.T) {
	res, err := RunSelective(7)
	if err != nil {
		t.Fatal(err)
	}
	if res.Corrupted == 0 {
		t.Fatal("no corruption applied")
	}
	if res.DetectionPct() < 70 {
		t.Fatalf("selective detection %.0f%%, want most corrupted values flagged", res.DetectionPct())
	}
	if res.FalsePositivePct() > 10 {
		t.Fatalf("false positives %.1f%%, want rare", res.FalsePositivePct())
	}
	if !res.DerivedOK {
		t.Fatal("no adaptive range derived")
	}
	if !strings.Contains(res.Render(), "Selective monitoring") {
		t.Fatal("Render missing title")
	}
}

func TestAblationAuditPeriodMonotone(t *testing.T) {
	ab, err := RunAblationAuditPeriod(0.12)
	if err != nil {
		t.Fatal(err)
	}
	if len(ab.Periods) != 5 {
		t.Fatalf("periods = %d", len(ab.Periods))
	}
	// Faster audits escape less: first (2 s) must beat last (40 s).
	if ab.Escaped[0] >= ab.Escaped[len(ab.Escaped)-1] {
		t.Fatalf("escape rate not increasing with audit period: %v", ab.Escaped)
	}
	if !strings.Contains(ab.Render(), "Ablation") {
		t.Fatal("Render missing title")
	}
}

func TestEffectDeterministicForSeed(t *testing.T) {
	cfg := DefaultEffectConfig()
	cfg.Runs = 2
	cfg.Duration = 300 * time.Second
	a, err := RunEffect(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunEffect(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Injected != b.Injected || a.Escaped != b.Escaped || a.Caught != b.Caught {
		t.Fatalf("non-deterministic: %+v vs %+v", a, b)
	}
}

func TestTable10DirectOrdering(t *testing.T) {
	d, err := RunTable10Direct(0.2)
	if err != nil {
		t.Fatal(err)
	}
	none, auditOnly, pecosOnly, both := d.Coverage[0], d.Coverage[1], d.Coverage[2], d.Coverage[3]
	if both < none {
		t.Fatalf("combined coverage %.0f below unprotected %.0f", both, none)
	}
	if auditOnly < none {
		t.Fatalf("audit-only coverage %.0f below unprotected %.0f", auditOnly, none)
	}
	if both+0.01 < auditOnly || both+0.01 < pecosOnly {
		t.Fatalf("combined %.0f not the ceiling: %v", both, d.Coverage)
	}
	if !strings.Contains(d.Render(), "direct") {
		t.Fatal("Render missing title")
	}
}

func TestRenderDetailedAndMultiActivation(t *testing.T) {
	t8, err := RunTable8(0.1)
	if err != nil {
		t.Fatal(err)
	}
	out := t8.Columns[2].Name()
	if !strings.Contains(out, "With PECOS") {
		t.Fatalf("column name = %q", out)
	}
	det := t8.RenderDetailed()
	for _, want := range []string{"ADDIF", "DATAIF", "DATAOF", "DATAInF", "pecos", "fail-silence"} {
		if !strings.Contains(det, want) {
			t.Fatalf("detailed report missing %q", want)
		}
	}
	// Multi-thread activation is observed in some share of runs
	// (§6.1.2); the rate is a valid probability.
	for _, col := range t8.Columns {
		r := col.MultiActivationRate()
		if r < 0 || r > 1 {
			t.Fatalf("MultiActivationRate = %v", r)
		}
	}
	t9, err := RunTable9(0.08)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(t9.RenderDetailed(), "random injection") {
		t.Fatal("detailed title wrong for Table 9")
	}
}

func TestResilienceManagerKeepsCoverage(t *testing.T) {
	res, err := RunResilience(0.2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Restarts == 0 {
		t.Fatal("no restarts observed despite periodic crashes")
	}
	if res.Baseline < 70 {
		t.Fatalf("baseline caught%% = %.1f, want high coverage", res.Baseline)
	}
	// The manager's restarts keep coverage close to the healthy level:
	// degradation bounded by the crash-gap fraction (2 s timeout + poll
	// per 60 s crash period).
	if res.WithCrashes < res.Baseline-25 {
		t.Fatalf("coverage collapsed under audit crashes: %.1f vs %.1f",
			res.WithCrashes, res.Baseline)
	}
	if !strings.Contains(res.Render(), "resilience") {
		t.Fatal("Render missing title")
	}
	if _, err := RunResilience(0); err == nil {
		t.Fatal("scale 0 accepted")
	}
}
