package health

import (
	"testing"
	"time"
)

// testClock is a manually advanced evaluator clock.
type testClock struct{ at time.Duration }

func (c *testClock) now() time.Duration { return c.at }
func (c *testClock) advance(d time.Duration) {
	c.at += d
}

// testEvaluator builds an evaluator on clk with deterministic windows: 1s
// eval period, 4s short window, 8s long window, budget 0.5, no
// minimum-sample gate, recover after 3 clean ticks.
func testEvaluator(clk *testClock) *Evaluator {
	e := NewEvaluator(clk.now)
	e.win = windowing{
		period: time.Second, short: 4 * time.Second, long: 8 * time.Second,
		budget: 0.5, recoverStreak: 3, minSamples: 1,
	}
	return e
}

// step advances one eval period and ticks.
func step(e *Evaluator, c *testClock) {
	c.advance(time.Second)
	e.Tick()
}

func TestEvaluatorBurnAndHysteresis(t *testing.T) {
	cases := []struct {
		name string
		// values fed tick by tick (one per second); bound is 10.
		values []float64
		// want is the expected state after each tick.
		want []State
	}{
		{
			name:   "stays ok under bound",
			values: []float64{1, 2, 3, 4, 5, 6},
			want:   []State{OK, OK, OK, OK, OK, OK},
		},
		{
			// Budget 0.5: one violation among the first samples burns the
			// short window at rate >= 1 immediately (1/1 / 0.5 = 2), and
			// with the long window equally saturated the objective goes
			// critical, then recovers only after 3 consecutive cleaner
			// evaluations — stepping through DEGRADED, not jumping.
			// Budget 0.5: the first violating tick burns the short window
			// at 2x (1/1 / 0.5) with the long window equally saturated, so
			// the objective goes critical at once. Clean ticks then age the
			// violations out of the 4s short window, but recovery needs 3
			// consecutive cleaner evaluations per level and steps through
			// DEGRADED rather than jumping to OK: ticks 4-5 still see burn
			// >= 1 (raw degraded, streak builds), tick 6 completes the
			// streak and steps to degraded, tick 9 completes the next
			// streak and reaches OK.
			name:   "degrade fast recover slow",
			values: []float64{50, 50, 50, 1, 1, 1, 1, 1, 1, 1, 1, 1},
			want: []State{
				Critical, Critical, Critical,
				Critical, Critical,
				Degraded, Degraded, Degraded,
				OK, OK, OK, OK,
			},
		},
		{
			// A value oscillating across the bound keeps the short-window
			// burn hovering around 1: every raw DEGRADED evaluation resets
			// the recovery streak, so once degraded the state holds — no
			// flapping back to OK between violating ticks. (The opening
			// ticks are critical for the same single-sample-burn reason as
			// above; hysteresis then steps down to the oscillation's
			// holding level.)
			name:   "no flapping across a boundary",
			values: []float64{50, 1, 50, 1, 50, 1, 50, 1, 50, 1},
			want: []State{
				Critical, Critical, Critical,
				Degraded, Degraded, Degraded, Degraded,
				Degraded, Degraded, Degraded,
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clk := &testClock{}
			var v float64
			e := testEvaluator(clk)
			e.Add(Objective{
				Name:      "probe",
				Subsystem: "test",
				Bound:     10,
				Value:     func(time.Duration) float64 { return v },
			})
			for i, val := range tc.values {
				v = val
				step(e, clk)
				if got := e.State(); got != tc.want[i] {
					t.Fatalf("tick %d (value %v): state = %s, want %s", i, val, got, tc.want[i])
				}
				if got := e.SubsystemState("test"); got != e.State() {
					t.Fatalf("tick %d: subsystem state %s != overall %s", i, got, e.State())
				}
			}
		})
	}
}

func TestEvaluatorMinSamplesGate(t *testing.T) {
	clk := &testClock{}
	e := testEvaluator(clk)
	e.win.minSamples = 4
	e.Add(Objective{
		Name: "probe", Subsystem: "test", Bound: 10,
		Value: func(time.Duration) float64 { return 100 },
	})
	// The first three violating ticks are below the sample floor: no burn,
	// no state change. The fourth crosses it and degrades.
	for i := 0; i < 3; i++ {
		step(e, clk)
		if got := e.State(); got != OK {
			t.Fatalf("tick %d below sample floor: state = %s, want ok", i, got)
		}
	}
	step(e, clk)
	if got := e.State(); got == OK {
		t.Fatal("state still ok after the sample floor was crossed")
	}
}

func TestEvaluatorWorstSubsystemWins(t *testing.T) {
	clk := &testClock{}
	e := testEvaluator(clk)
	bad := 0.0
	e.Add(Objective{Name: "a", Subsystem: "serving", Bound: 10,
		Value: func(time.Duration) float64 { return 0 }})
	e.Add(Objective{Name: "b", Subsystem: "audit", Bound: 10,
		Value: func(time.Duration) float64 { return bad }})
	step(e, clk)
	if e.State() != OK {
		t.Fatalf("initial state = %s, want ok", e.State())
	}
	bad = 100
	step(e, clk)
	if e.SubsystemState("serving") != OK {
		t.Fatalf("healthy subsystem degraded: %s", e.SubsystemState("serving"))
	}
	if e.SubsystemState("audit") == OK {
		t.Fatal("violating subsystem still ok")
	}
	if e.State() != e.SubsystemState("audit") {
		t.Fatalf("overall %s != worst subsystem %s", e.State(), e.SubsystemState("audit"))
	}
}

func TestRate(t *testing.T) {
	var c float64
	r := Rate(func() float64 { return c }, time.Second)
	if got := r(0); got != 0 {
		t.Fatalf("unprimed rate = %v, want 0", got)
	}
	c = 10
	if got := r(2 * time.Second); got != 5 {
		t.Fatalf("rate = %v, want 5/s", got)
	}
	c = 10
	if got := r(3 * time.Second); got != 0 {
		t.Fatalf("flat counter rate = %v, want 0", got)
	}
}
