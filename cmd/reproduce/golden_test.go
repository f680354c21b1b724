package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The golden test pins every experiment's rendering at scale 0.05 byte for
// byte. Every simulator path — the Framework, the database and text
// injectors, the campaigns — feeds some line of it, and the simulation is
// deterministic, so a refactor of any of them that changes behaviour shows
// up here as a first differing line.

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/all_scale005.golden from this run")

const allGolden = "testdata/all_scale005.golden"

func TestReproduceAllGolden(t *testing.T) {
	var out strings.Builder
	if err := run(&out, []string{"-exp", "all", "-scale", "0.05"}); err != nil {
		t.Fatalf("run: %v", err)
	}
	got := out.String()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(allGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(allGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(allGolden)
	if err != nil {
		t.Fatal(err)
	}
	w, g := strings.Split(string(want), "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) && i < len(g); i++ {
		if w[i] != g[i] {
			t.Fatalf("line %d differs from %s:\n want: %s\n got:  %s", i+1, allGolden, w[i], g[i])
		}
	}
	if len(w) != len(g) {
		t.Fatalf("%d lines, want %d", len(g), len(w))
	}
}
