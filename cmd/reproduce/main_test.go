package main

import (
	"io"
	"testing"
)

func TestSingleExperiments(t *testing.T) {
	// Tiny scales keep this a smoke test of the CLI plumbing; the
	// experiment shapes are asserted in internal/experiment.
	cases := [][]string{
		{"-exp", "figure4"},
		{"-exp", "table3", "-scale", "0.07"},
		{"-exp", "selective", "-seed", "3"},
		{"-exp", "table8", "-scale", "0.05", "-detail"},
	}
	for _, args := range cases {
		if err := run(io.Discard, args); err != nil {
			t.Fatalf("run(%v): %v", args, err)
		}
	}
}

func TestUnknownExperimentRejected(t *testing.T) {
	if err := run(io.Discard, []string{"-exp", "bogus"}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if err := run(io.Discard, []string{"-exp", "table3", "-scale", "7"}); err == nil {
		t.Fatal("out-of-range scale accepted")
	}
}
