package main

import (
	"bytes"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/callproc"
	"repro/internal/memdb"
	"repro/internal/server"
	"repro/internal/trace"
)

// startServer brings up an in-process dbserve-equivalent on a loopback
// port with fast audits, so the generator runs against the real serving
// stack.
func startServer(t *testing.T) string {
	t.Helper()
	db, err := memdb.New(callproc.Schema(callproc.DefaultSchemaConfig()))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(db, server.Config{AuditPeriod: 20 * time.Millisecond, Guard: true})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() {
		if err := srv.Shutdown(5 * time.Second); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return ln.Addr().String()
}

// TestLoadRun drives each legacy flag shape clean against the live stack:
// the call cycle over synchronous connections, the field mix at a
// pipelined window (reads verified against the send-time golden copy, so
// in-order pipelined replies and fast-lane reads racing concurrent audits
// must still be exact), and the routed mix over a one-node set.
func TestLoadRun(t *testing.T) {
	addr := startServer(t)
	for _, c := range []struct {
		name string
		args []string
		want []string
	}{
		{"sync", []string{"-conns", "3", "-ops", "600"},
			[]string{"dbload: 600 ops over 3 conns", "ops/s\n", "p50=", "p99="}},
		{"pipelined", []string{"-conns", "2", "-ops", "800", "-pipeline", "8", "-read-pct", "70"},
			[]string{"dbload: 800 ops over 2 conns", "ops/s (pipeline=8 read-pct=70)\n"}},
		{"routed", []string{"-conns", "2", "-ops", "400", "-route"},
			[]string{"dbload: 400 ops over 2 conns", "ops/s (routed read-pct=80)\n", "router: replica=0 primary=320 ", "staleness violations: 0"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(append([]string{"-addr", addr}, c.args...), &out, nil); err != nil {
				t.Fatalf("dbload: %v\noutput:\n%s", err, out.String())
			}
			for _, want := range append(c.want, "final sweep: 0 findings") {
				if !strings.Contains(out.String(), want) {
					t.Errorf("report missing %q in:\n%s", want, out.String())
				}
			}
		})
	}
}

func TestLoadFailsWithoutServer(t *testing.T) {
	// A port nothing listens on: every worker fails to dial, run must
	// report the protocol error.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	if err := run([]string{"-addr", addr, "-conns", "1", "-ops", "10"}, &bytes.Buffer{}, nil); err == nil {
		t.Fatal("run against dead server succeeded")
	}
}

// TestWatchMode runs a short workload and then polls the live telemetry
// feed: each poll must render one summary line from the STATS2 snapshot.
func TestWatchMode(t *testing.T) {
	addr := startServer(t)
	var load bytes.Buffer
	if err := run([]string{"-addr", addr, "-conns", "2", "-ops", "200"}, &load, nil); err != nil {
		t.Fatalf("load phase: %v\noutput:\n%s", err, load.String())
	}
	var out bytes.Buffer
	if err := run([]string{"-addr", addr, "-watch", "10ms", "-watch-n", "3"}, &out, nil); err != nil {
		t.Fatalf("watch: %v\noutput:\n%s", err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d watch lines, want 3:\n%s", len(lines), out.String())
	}
	for _, l := range lines {
		for _, want := range []string{"watch:", "ops/s", "queue=", "sweeps=", "findings=0"} {
			if !strings.Contains(l, want) {
				t.Errorf("watch line missing %q: %s", want, l)
			}
		}
	}
	// The workload ran before the polls, so the busiest-operation latency
	// section must be present.
	if !strings.Contains(out.String(), "p99=") {
		t.Errorf("watch output has no latency percentiles:\n%s", out.String())
	}
}

// TestWatchModeStops checks that a closed stop channel ends an unbounded
// watch after the in-flight poll.
func TestWatchModeStops(t *testing.T) {
	addr := startServer(t)
	stop := make(chan struct{})
	close(stop)
	var out bytes.Buffer
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", addr, "-watch", "1h"}, &out, stop)
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("watch: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("watch did not stop")
	}
	if !strings.Contains(out.String(), "watch:") {
		t.Errorf("no poll before stop:\n%s", out.String())
	}
}

func TestFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // substring of the expected error
	}{
		{"zero conns", []string{"-conns", "0"}, "-conns"},
		{"negative ops", []string{"-ops", "-5"}, "-ops"},
		{"zero pipeline", []string{"-pipeline", "0"}, "-pipeline"},
		{"read-pct below unset", []string{"-read-pct", "-2"}, "-read-pct"},
		{"read-pct above 100", []string{"-read-pct", "101"}, "-read-pct"},
		{"proc-pct above 100", []string{"-proc-pct", "101"}, "-proc-pct"},
		{"empty addr list", []string{"-addr", " , "}, "-addr"},
		{"scenario with watch", []string{"-scenario", "steady-calls", "-watch", "1s"}, "-watch"},
		{"scenario with pipeline", []string{"-scenario", "steady-calls", "-pipeline", "4"}, "-pipeline"},
		{"scenario with read-pct", []string{"-scenario", "steady-calls", "-read-pct", "50"}, "-read-pct"},
		{"unknown scenario", []string{"-scenario", "no-such"}, "unknown scenario"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := run(c.args, &bytes.Buffer{}, nil)
			if err == nil {
				t.Fatalf("run(%v) accepted", c.args)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("run(%v) = %q, want mention of %q", c.args, err, c.want)
			}
		})
	}
	// The boundary values stay valid: -1 means unset, 0 and 100 are in
	// range (they still need a live server, so only the parse must pass —
	// expect a dial error, not a validation error).
	for _, v := range []string{"-1", "0", "100"} {
		err := run([]string{"-addr", "127.0.0.1:1", "-read-pct", v, "-ops", "1", "-conns", "1"}, &bytes.Buffer{}, nil)
		if err != nil && strings.Contains(err.Error(), "-read-pct") {
			t.Errorf("read-pct %s rejected: %v", v, err)
		}
	}
}

func TestSplitAddrs(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"", nil},
		{"   ", nil},
		{",", nil},
		{" , ,, ", nil},
		{"a:1", []string{"a:1"}},
		{"a:1,b:2", []string{"a:1", "b:2"}},
		{" a:1 , b:2 ", []string{"a:1", "b:2"}},
		{"a:1,,b:2,", []string{"a:1", "b:2"}},
	}
	for _, c := range cases {
		got := splitAddrs(c.in)
		if len(got) != len(c.want) {
			t.Errorf("splitAddrs(%q) = %v, want %v", c.in, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("splitAddrs(%q) = %v, want %v", c.in, got, c.want)
				break
			}
		}
	}
}

// TestScenarioList prints the registry without needing a server.
func TestScenarioList(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-scenario", "list"}, &out, nil); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"steady-calls", "flash-crowd", "fault-storm"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("list output missing %q:\n%s", want, out.String())
		}
	}
}

// TestScenarioRunEndToEnd drives a compressed named scenario through the
// dbload entry point against the live stack: PASS on stdout, the JSON
// report artifact on disk.
func TestScenarioRunEndToEnd(t *testing.T) {
	addr := startServer(t)
	report := filepath.Join(t.TempDir(), "report.json")
	var out bytes.Buffer
	err := run([]string{"-addr", addr, "-scenario", "steady-calls", "-seed", "5", "-conns", "2",
		"-scenario-scale", "0.05", "-scenario-report", report}, &out, nil)
	if err != nil {
		t.Fatalf("scenario run: %v\noutput:\n%s", err, out.String())
	}
	s := out.String()
	// The explicit -conns replaces the scenario's own worker count of 4.
	for _, want := range []string{"seed=5 conns=2 ", "ScenarioThroughput/steady-calls/main ", "scenario steady-calls: PASS"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q in:\n%s", want, s)
		}
	}
	doc, err := os.ReadFile(report)
	if err != nil {
		t.Fatalf("report artifact: %v", err)
	}
	for _, want := range []string{`"scenario": "steady-calls"`, `"seed": 5`, `"op_stats"`} {
		if !strings.Contains(string(doc), want) {
			t.Errorf("report missing %s", want)
		}
	}
}

// TestTraceDump runs a load against an injecting server and checks the
// -trace journal dump: the file holds a merged, decodable, seq-ordered
// journal that includes request chains and injected shots.
func TestTraceDump(t *testing.T) {
	db, err := memdb.New(callproc.Schema(callproc.DefaultSchemaConfig()))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(db, server.Config{
		AuditPeriod:  20 * time.Millisecond,
		InjectPeriod: 10 * time.Millisecond,
		InjectSeed:   5,
		Guard:        true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() {
		if err := srv.Shutdown(5 * time.Second); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	addr := ln.Addr().String()

	path := filepath.Join(t.TempDir(), "journal.json")
	var out bytes.Buffer
	err = run([]string{"-addr", addr, "-conns", "2", "-ops", "2000",
		"-expect-findings", "-trace", path}, &out, nil)
	if err != nil {
		t.Fatalf("dbload: %v\noutput:\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "dbload: journal: ") {
		t.Errorf("no journal summary line in:\n%s", out.String())
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	evs, err := trace.DecodeJSON(data)
	if err != nil {
		t.Fatalf("decode journal: %v", err)
	}
	if len(evs) == 0 {
		t.Fatal("journal is empty")
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Fatalf("journal out of order at %d: seq %d then %d",
				i, evs[i-1].Seq, evs[i].Seq)
		}
	}
	// The load's own requests are journaled; the run is sized to span
	// several 10 ms injector periods however fast the server gets.
	if len(trace.Filter(evs, trace.KindReqReply)) == 0 {
		t.Error("journal has no req-reply events")
	}
	if len(trace.Filter(evs, trace.KindShot)) == 0 {
		t.Error("journal has no inject-shot events")
	}
}

// TestTraceDumpToStdout: "-trace -" writes the journal to the report
// writer instead of a file.
func TestTraceDumpToStdout(t *testing.T) {
	addr := startServer(t)
	var out bytes.Buffer
	if err := run([]string{"-addr", addr, "-conns", "1", "-ops", "50",
		"-trace", "-"}, &out, nil); err != nil {
		t.Fatalf("dbload: %v\noutput:\n%s", err, out.String())
	}
	s := out.String()
	i := strings.Index(s, "[")
	if i < 0 {
		t.Fatalf("no JSON array in output:\n%s", s)
	}
	j := strings.LastIndex(s, "]")
	evs, err := trace.DecodeJSON([]byte(s[i : j+1]))
	if err != nil {
		t.Fatalf("decode stdout journal: %v", err)
	}
	if len(evs) == 0 {
		t.Fatal("stdout journal is empty")
	}
}
