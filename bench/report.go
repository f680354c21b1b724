package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// host records where a document was measured; numbers from different hosts
// are not comparable and compareFiles refuses them.
type host struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	TmpFS      string `json:"tmp_fs_type"` // filesystem of the checkout, which holds the WAL directories
}

func hostInfo(root string) host {
	h := host{
		CPUModel: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: "unknown", TmpFS: "unknown",
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if out, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	var st syscall.Statfs_t
	if syscall.Statfs(root, &st) == nil {
		h.TmpFS = fsTypeName(int64(st.Type))
	}
	return h
}

// fsTypeName names the statfs magic numbers a sandbox is likely to show.
func fsTypeName(magic int64) string {
	switch magic {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	default:
		return fmt.Sprintf("0x%x", magic)
	}
}

type workloadRuns struct {
	EndToEnd *runResult `json:"end_to_end"`
	PerLayer *runResult `json:"per_layer,omitempty"`
}

// agreement is how the sets of one document compare on one end-to-end
// metric of one workload.
type agreement struct {
	Unit       string    `json:"unit"`
	Better     string    `json:"better"`
	Values     []float64 `json:"values"`
	Median     float64   `json:"median"`
	Q1         float64   `json:"q1"`
	Q3         float64   `json:"q3"`
	MaxRelDiff float64   `json:"max_pairwise_rel_diff"`
	Bound      float64   `json:"bound"`
	Within     bool      `json:"within_bound"`
}

type document struct {
	Bench   string                           `json:"bench"`
	Quick   bool                             `json:"quick"`
	Seed    int64                            `json:"seed"`
	Seconds float64                          `json:"seconds"`
	Host    host                             `json:"host"`
	Sets    []map[string]*workloadRuns       `json:"sets"`
	Summary map[string]map[string]*agreement `json:"summary"`
}

// summarize fills Summary and reports whether every end-to-end metric of
// every workload agrees across the sets within its bound.
func (d *document) summarize(specs []metricSpec) bool {
	d.Summary = map[string]map[string]*agreement{}
	all := true
	for name := range d.Sets[0] {
		d.Summary[name] = map[string]*agreement{}
		for _, m := range specs {
			a := &agreement{Unit: m.Unit, Better: m.Better, Bound: m.Bound}
			for _, set := range d.Sets {
				a.Values = append(a.Values, set[name].EndToEnd.Metrics[m.Name].Value)
			}
			a.Median = median(a.Values)
			a.Q1, a.Q3 = a.Median, a.Median
			if len(a.Values) >= 2 {
				a.Q1, _, a.Q3 = quartiles(a.Values)
			}
			for i, x := range a.Values {
				for _, y := range a.Values[i+1:] {
					if rd := ratio(math.Abs(x-y), math.Min(math.Abs(x), math.Abs(y))); rd > a.MaxRelDiff {
						a.MaxRelDiff = rd
					}
				}
			}
			a.Within = a.MaxRelDiff <= m.Bound
			all = all && a.Within
			d.Summary[name][m.Name] = a
		}
	}
	return all
}

// compareFiles prints, for two result documents, the relative change of
// every end-to-end median against its bound. Documents from different hosts
// are refused: the difference would be the hosts'.
func compareFiles(arg string) error {
	oldPath, newPath, ok := strings.Cut(arg, ",")
	if !ok {
		return fmt.Errorf("-compare wants OLD.json,NEW.json")
	}
	load := func(path string) (*document, error) {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var d document
		if err := json.Unmarshal(data, &d); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &d, nil
	}
	a, err := load(oldPath)
	if err != nil {
		return err
	}
	b, err := load(newPath)
	if err != nil {
		return err
	}
	ha, hb := a.Host, b.Host
	ha.Commit, hb.Commit = "", ""
	if ha != hb {
		return fmt.Errorf("refusing to compare results of different hosts:\n  %s: %+v\n  %s: %+v", oldPath, ha, newPath, hb)
	}
	if a.Quick || b.Quick {
		return fmt.Errorf("refusing to compare -quick results: their phases are too short to measure")
	}
	var names []string
	for w := range a.Summary {
		names = append(names, w)
	}
	sort.Strings(names)
	worse := 0
	for _, w := range names {
		var ms []string
		for m := range a.Summary[w] {
			ms = append(ms, m)
		}
		sort.Strings(ms)
		for _, m := range ms {
			x, y := a.Summary[w][m], b.Summary[w][m]
			if y == nil {
				continue
			}
			change := ratio(y.Median-x.Median, x.Median)
			fmt.Printf("%-15s %-22s %12.4f -> %12.4f %-4s %+7.2f%%  (bound %.0f%%)\n",
				w, m, x.Median, y.Median, x.Unit, 100*change, 100*x.Bound)
			if x.Better == "higher" {
				change = -change
			}
			if change > x.Bound {
				worse++
			}
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d end-to-end medians got worse by more than their bound", worse)
	}
	return nil
}
