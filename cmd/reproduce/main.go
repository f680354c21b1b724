// Command reproduce regenerates the paper's tables and figures.
//
// Usage:
//
//	reproduce -exp table3 [-scale 1.0]
//	reproduce -exp all -scale 0.25
//
// Experiments: table3, table4, figure3, figure4, figure5, figure6,
// table8, table9, table10, selective, ablation-period, all.
//
// Scale ∈ (0,1] shrinks run counts and durations proportionally; 1.0 is
// the paper's full shape (30 × 2000 s simulated runs for the database
// experiments, 200 runs × 4 error models × 4 configurations for the
// control-flow campaigns).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/experiment"
	"repro/internal/trace"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "reproduce:", err)
		os.Exit(1)
	}
}

// run parses args and writes every selected experiment's rendering to w.
func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("reproduce", flag.ContinueOnError)
	exp := fs.String("exp", "all", "experiment to regenerate")
	scale := fs.Float64("scale", 1.0, "scale factor in (0,1] for runs and durations")
	seed := fs.Int64("seed", 7, "seed for seed-parameterized studies")
	detail := fs.Bool("detail", false, "per-error-model breakdown with confidence intervals (table8/table9)")
	traceFile := fs.String("trace", "", "write the campaigns' flight-recorder journal (table8/table9) as JSON to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}

	// The recorder journals every table8/table9 campaign shot, detection,
	// and outcome when -trace is set.
	var rec *trace.Recorder
	if *traceFile != "" {
		rec = trace.New()
	}

	type runner struct {
		name string
		fn   func() (fmt.Stringer, error)
	}
	render := func(r interface{ Render() string }, err error) (fmt.Stringer, error) {
		if err != nil {
			return nil, err
		}
		return stringer{r.Render()}, nil
	}
	runners := []runner{
		{"table3", func() (fmt.Stringer, error) { return render(experiment.RunTable3(*scale)) }},
		{"table4", func() (fmt.Stringer, error) { return render(experiment.RunTable4(*scale)) }},
		{"figure3", func() (fmt.Stringer, error) { return render(experiment.RunFigure3(*scale)) }},
		{"figure4", func() (fmt.Stringer, error) { return render(experiment.RunFigure4()) }},
		{"figure5", func() (fmt.Stringer, error) { return render(experiment.RunFigure5(*scale)) }},
		{"figure6", func() (fmt.Stringer, error) { return render(experiment.RunFigure6(*scale)) }},
		{"table8", func() (fmt.Stringer, error) {
			t, err := experiment.RunTable8Traced(*scale, rec)
			return renderTable89(t, err, *detail)
		}},
		{"table9", func() (fmt.Stringer, error) {
			t, err := experiment.RunTable9Traced(*scale, rec)
			return renderTable89(t, err, *detail)
		}},
		{"table10", func() (fmt.Stringer, error) { return render(experiment.RunTable10(*scale)) }},
		{"table10-direct", func() (fmt.Stringer, error) { return render(experiment.RunTable10Direct(*scale)) }},
		{"selective", func() (fmt.Stringer, error) { return render(experiment.RunSelective(*seed)) }},
		{"ablation-period", func() (fmt.Stringer, error) { return render(experiment.RunAblationAuditPeriod(*scale)) }},
		{"resilience", func() (fmt.Stringer, error) { return render(experiment.RunResilience(*scale)) }},
	}

	matched := false
	for _, r := range runners {
		if *exp != "all" && *exp != r.name {
			continue
		}
		matched = true
		out, err := r.fn()
		if err != nil {
			return fmt.Errorf("%s: %w", r.name, err)
		}
		fmt.Fprintln(w, out.String())
	}
	if !matched {
		return fmt.Errorf("unknown experiment %q", *exp)
	}
	if rec != nil {
		return writeJournal(w, rec, *traceFile)
	}
	return nil
}

// writeJournal dumps the recorder's merged journal to path as JSON, then
// validates it: the journal must be non-empty (a traced run that emitted
// nothing is a wiring bug, not a quiet success) and must round-trip
// through the decoder.
func writeJournal(w io.Writer, rec *trace.Recorder, path string) error {
	evs := rec.Snapshot()
	if len(evs) == 0 {
		return fmt.Errorf("trace: journal is empty (-trace only captures table8/table9 campaigns)")
	}
	data, err := trace.EncodeJSON(evs)
	if err != nil {
		return fmt.Errorf("trace: encode: %w", err)
	}
	back, err := trace.DecodeJSON(data)
	if err != nil {
		return fmt.Errorf("trace: journal does not round-trip: %w", err)
	}
	if len(back) != len(evs) {
		return fmt.Errorf("trace: round-trip lost events: %d != %d", len(back), len(evs))
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "trace: %d events (%d dropped) to %s\n", len(evs), totalDrops(rec), path)
	return nil
}

func totalDrops(rec *trace.Recorder) uint64 {
	var n uint64
	for _, d := range rec.Drops() {
		n += d
	}
	return n
}

func renderTable89(t *experiment.Table89, err error, detail bool) (fmt.Stringer, error) {
	if err != nil {
		return nil, err
	}
	out := t.Render()
	if detail {
		out += "\n" + t.RenderDetailed()
	}
	return stringer{out}, nil
}

type stringer struct{ s string }

func (s stringer) String() string { return s.s }
