// Command bench is the repository's benchmark: it spawns the real dbserve,
// drives it over loopback through internal/wire, checks every reply against
// a golden copy, and prints the metrics BENCHMARK.json names. See README.md.
//
// Contract form (what BENCHMARK.json's command runs, via run.sh):
//
//	bench --workload call-mix --seed 7 --seconds 20 --trace 0
//
// prints one JSON object as the last line of standard output. Document
// forms, which print one JSON document of every selected run instead:
//
//	bench -seed 7                       # all four workloads, untraced
//	bench -seed 7 -traced               # untraced + traced + layer pass
//	bench -seed 7 -aa 2 -out FILE       # two back-to-back sets, compared
//	bench -quick                        # 2-s phases, correctness gates only
//	bench -compare OLD.json,NEW.json    # medians of two result files
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
}

// metricSpec and benchmarkFile mirror BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadBenchmarkFile(root string) (*benchmarkFile, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &b, nil
}

// checkNames verifies that a run printed exactly the metrics BENCHMARK.json
// declares for its mode, with the declared units.
func checkNames(res *runResult, want []metricSpec) error {
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		if !ok {
			return fmt.Errorf("metric %s is declared in BENCHMARK.json but was not measured", m.Name)
		}
		if got.Unit != m.Unit {
			return fmt.Errorf("metric %s: unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
		}
	}
	for name := range res.Metrics {
		if !slices.ContainsFunc(want, func(m metricSpec) bool { return m.Name == name }) {
			return fmt.Errorf("metric %s was measured but is not declared in BENCHMARK.json", name)
		}
	}
	return nil
}

func main() {
	if err := realMain(); err != nil {
		logf("%v", err)
		os.Exit(1)
	}
}

func realMain() error {
	root := flag.String("root", "..", "repository root (holds BENCHMARK.json)")
	binDir := flag.String("bin", "", "directory holding the dbserve and layerpass binaries (default <root>/.bench_build)")
	workload := flag.String("workload", "all", "workload name, or all")
	seed := flag.Int64("seed", 1, "seed of the generated request plan")
	seconds := flag.Float64("seconds", 0, "measuring time per run (default: run_seconds of BENCHMARK.json)")
	trace := flag.Int("trace", -1, "contract form: 0 prints the end-to-end metrics, 1 the per-layer metrics of a traced run")
	traced := flag.Bool("traced", false, "document form: add a traced run and layer pass per workload")
	aa := flag.Int("aa", 0, "run K full sets back to back and compare them; nonzero exit when an end-to-end metric disagrees by more than its bound")
	quick := flag.Bool("quick", false, "2-s phases: correctness gates only, metrics marked quick")
	out := flag.String("out", "", "also write the document to this file")
	compare := flag.String("compare", "", "OLD.json,NEW.json: compare two result documents of the same host")
	flag.Parse()
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	if *compare != "" {
		return compareFiles(*compare)
	}
	bf, err := loadBenchmarkFile(*root)
	if err != nil {
		return err
	}
	if *binDir == "" {
		*binDir = filepath.Join(*root, ".bench_build")
	}
	if *seconds == 0 {
		*seconds = float64(bf.RunSeconds)
	}
	if *quick {
		*seconds = 2 / closedShare
	}
	var specs []*workloadSpec
	if *workload == "all" {
		for i := range workloads {
			specs = append(specs, &workloads[i])
		}
	} else {
		spec, err := findWorkload(*workload)
		if err != nil {
			return err
		}
		specs = []*workloadSpec{spec}
	}
	newConfig := func(spec *workloadSpec, traced bool) *runConfig {
		cfg := &runConfig{
			spec: spec, seed: *seed, seconds: *seconds, traced: traced, binDir: *binDir,
			scratch: filepath.Join(*root, ".bench_build", "scratch"),
			outDir:  filepath.Join(*root, "bench", "out"),
			setups:  5,
		}
		if *quick {
			cfg.setups = 1
		}
		return cfg
	}

	if *trace >= 0 && len(specs) == 1 && *aa == 0 && !*quick {
		// Contract form.
		res, err := runWorkload(newConfig(specs[0], *trace == 1))
		if err != nil {
			return err
		}
		want := bf.EndToEnd
		if *trace == 1 {
			want = bf.PerLayer
		}
		if err := checkNames(res, want); err != nil {
			return err
		}
		line, err := json.Marshal(res)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
		if !res.Correct {
			return fmt.Errorf("%s: run is not correct: %s", specs[0].name, strings.Join(res.problems, "; "))
		}
		return nil
	}

	sets := *aa
	if sets == 0 {
		sets = 1
	}
	doc := document{Quick: *quick, Seed: *seed, Seconds: *seconds, Host: hostInfo(*root)}
	ok := true
	for s := 0; s < sets; s++ {
		set := map[string]*workloadRuns{}
		for _, spec := range specs {
			wr := &workloadRuns{}
			if wr.EndToEnd, err = runWorkload(newConfig(spec, false)); err != nil {
				return err
			}
			if err := checkNames(wr.EndToEnd, bf.EndToEnd); err != nil {
				return err
			}
			ok = ok && wr.EndToEnd.Correct
			set[spec.name] = wr
		}
		// Traced runs come after every untraced run of the set: their span
		// dumps and the layer pass's log files leave write-back behind them.
		for _, spec := range specs {
			if !*traced && *trace != 1 {
				break
			}
			wr := set[spec.name]
			if wr.PerLayer, err = runWorkload(newConfig(spec, true)); err != nil {
				return err
			}
			if err := checkNames(wr.PerLayer, bf.PerLayer); err != nil {
				return err
			}
			ok = ok && wr.PerLayer.Correct
		}
		doc.Sets = append(doc.Sets, set)
	}
	agree := doc.summarize(bf.EndToEnd)
	data, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	if *out != "" {
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if !ok {
		return fmt.Errorf("at least one run is not correct")
	}
	if *aa > 1 && !agree {
		return fmt.Errorf("sets of the same code disagree by more than a metric's bound")
	}
	return nil
}
