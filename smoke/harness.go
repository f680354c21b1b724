// Package smoke is the process harness behind `make <x>-smoke`: it builds
// dbserve, dbload and dbctl from this checkout, runs them as real
// processes, and gates on what they print — the paper's "inject the fault,
// prove it was caught" over the shipped binaries. This file is the harness
// (one start-node with its wait-ready, one stop, one run-client, and the
// gate helpers); the topologies and their gates are the TestSmoke subtests
// in smoke_test.go, compiled with `-tags smoke`.
//
// Every node log, captured output and report of a smoke is written to one
// directory: $SMOKE_REPORT_DIR/<smoke>/ when that is set (so the files
// survive even a run the go test timeout kills), a temp dir otherwise.
package smoke

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/wire"
)

const (
	// A race-built node replaying a WAL is the slowest thing waited for.
	readyDeadline = 30 * time.Second
	// The longest client run, the failover load finishing on a WAL-backed
	// standby, takes a minute on a 2-CPU host with a slow disk.
	clientDeadline = 4 * time.Minute
)

// Report lines more than one smoke gates on; harness_test.go pins each
// against a recorded report.
const (
	joinedAll   = `detection: shots=[1-9][0-9]* joined=[0-9]+ unjoined=0`
	notStale    = `staleness violations: 0`
	reconnected = `failover: [0-9]+ reconnects`
	dataRace    = `DATA RACE`
)

// shardRow matches row k of dbctl -op status's per-shard table.
func shardRow(k int) string { return fmt.Sprintf(`(?m)^ *%d `, k) }

// build compiles the three commands into root/race or root/plain, unless
// an earlier smoke of this process already has, and returns the directory.
func build(t testing.TB, root string, race bool) string {
	t.Helper()
	dir, args := filepath.Join(root, "plain"), []string{"build"}
	if race {
		dir, args = filepath.Join(root, "race"), append(args, "-race")
	}
	if _, err := os.Stat(dir); err == nil {
		return dir
	}
	args = append(args, "-o", dir+"/", "repro/cmd/dbserve", "repro/cmd/dbload", "repro/cmd/dbctl")
	if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
		t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	return dir
}

// Smoke is one running smoke: its directories, the binary flavour in use,
// and every node it started.
type Smoke struct {
	t    testing.TB
	root string // binaries, shared by the smokes of one process
	dir  string // logs, outputs, reports
	tmp  string // WAL directories

	// ctx is cancelled, with the reason, when a node exits that the
	// harness did not kill; every client command runs under it.
	ctx    context.Context
	cancel context.CancelCauseFunc

	race    bool
	binDir  string
	nodeEnv []string
	nodes   []*Node
}

// newSmoke starts a smoke named after the last element of t's name. Its
// cleanup stops every node (scanning race-built logs) and dumps the node
// logs when the smoke failed.
func newSmoke(t testing.TB, root string) *Smoke {
	s := &Smoke{t: t, root: root, tmp: t.TempDir()}
	s.dir = s.tmp
	if report := os.Getenv("SMOKE_REPORT_DIR"); report != "" {
		s.dir = filepath.Join(report, path.Base(t.Name()))
		s.gate(os.MkdirAll(s.dir, 0o755))
	}
	s.ctx, s.cancel = context.WithCancelCause(context.Background())
	t.Cleanup(func() {
		for _, n := range s.nodes {
			n.kill()
		}
		if cause := context.Cause(s.ctx); cause != nil && !t.Failed() {
			t.Error(cause) // no client was running to notice
		}
		if t.Failed() {
			for _, n := range s.nodes {
				t.Logf("--- %s ---\n%s", n.name, n.log())
			}
		}
	})
	return s
}

// phase selects the binary flavour for everything started from here on,
// building it if this process has not yet; nodeEnv is added to the
// environment of nodes (not clients).
func (s *Smoke) phase(race bool, nodeEnv ...string) {
	s.t.Helper()
	s.race, s.binDir, s.nodeEnv = race, build(s.t, s.root, race), nodeEnv
}

// path names an artifact: a log, a captured output, a report.
func (s *Smoke) path(name string) string { return filepath.Join(s.dir, name) }

// wal names a WAL directory, kept out of the artifacts.
func (s *Smoke) wal(name string) string { return filepath.Join(s.tmp, name) }

func (s *Smoke) save(name string, data []byte) {
	s.t.Helper()
	s.gate(os.WriteFile(s.path(name), data, 0o644))
}

func (s *Smoke) read(name string) string {
	s.t.Helper()
	data, err := os.ReadFile(s.path(name))
	s.gate(err)
	return string(data)
}

// gate fails the smoke on a gate helper's error.
func (s *Smoke) gate(err error) {
	s.t.Helper()
	if err != nil {
		s.t.Fatal(err)
	}
}

// ok is gate for a client command: s.ok(s.run(...)) is its output, or the
// end of the smoke when it exited non-zero.
func (s *Smoke) ok(out string, err error) string {
	s.t.Helper()
	s.gate(err)
	return out
}

// Node is one dbserve process.
type Node struct {
	s    *Smoke
	name string
	args []string
	race bool
	cmd  *exec.Cmd

	addr    string // from "dbserve: serving on"
	metrics string // from "dbserve: metrics on"; empty without -metrics-addr

	killed atomic.Bool
	done   chan struct{} // closed once the process is reaped
}

// start runs dbserve on an ephemeral port with its output in <name>.log
// and returns once it prints its serving line.
func (s *Smoke) start(name string, args ...string) *Node {
	s.t.Helper()
	logf, err := os.Create(s.path(name + ".log"))
	s.gate(err)
	defer logf.Close() // the child holds its own descriptor
	n := &Node{s: s, name: name, args: args, race: s.race, done: make(chan struct{})}
	n.cmd = exec.Command(filepath.Join(s.binDir, "dbserve"), append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	n.cmd.Stdout, n.cmd.Stderr = logf, logf
	n.cmd.Env = append(os.Environ(), s.nodeEnv...)
	s.gate(n.cmd.Start())
	s.nodes = append(s.nodes, n)
	go func() {
		err := n.cmd.Wait()
		if !n.killed.Load() {
			s.cancel(fmt.Errorf("node %s exited on its own: %v", name, err))
		}
		close(n.done)
	}()

	for deadline := time.Now().Add(readyDeadline); ; time.Sleep(10 * time.Millisecond) {
		if n.addr = find(n.log(), `dbserve: serving on (\S+)`); n.addr != "" {
			n.metrics = find(n.log(), `dbserve: metrics on (\S+)`) // printed first
			return n
		}
		select {
		case <-n.done:
			s.t.Fatalf("node %s exited before serving", name)
		default:
		}
		if time.Now().After(deadline) {
			s.t.Fatalf("node %s not serving after %v", name, readyDeadline)
		}
	}
}

func (n *Node) log() string { return n.s.read(n.name + ".log") }

// kill SIGKILLs the node, reaps it, and scans a race-built node's log.
// Killing a node twice is harmless.
func (n *Node) kill() {
	n.s.t.Helper()
	if n.killed.Swap(true) {
		return
	}
	_ = n.cmd.Process.Kill() // fails only when the process is already gone
	<-n.done
	if n.race && matchN(n.log(), dataRace, 0) != nil {
		n.s.t.Errorf("node %s: %s in its log", n.name, dataRace)
	}
}

// restart kills the node if it is still up and starts it again, from the
// current flavour and with the same flags, under a new log name, so a
// WAL-backed node recovers what it logged.
func (n *Node) restart(name string) *Node {
	n.s.t.Helper()
	n.kill()
	return n.s.start(name, n.args...)
}

// killAfter SIGKILLs victim once it has executed ops requests more than at
// the call, and fails if load exits first: the kill lands mid-flight on a
// fast or slow host alike.
func (s *Smoke) killAfter(victim *Node, load *Client, ops int64) {
	s.t.Helper()
	c, err := wire.Dial(victim.addr)
	s.gate(err)
	defer c.Close()
	for base := int64(-1); ; time.Sleep(2 * time.Millisecond) {
		doc, err := c.Stats2()
		s.gate(err)
		snap, err := metrics.ParseSnapshot(doc)
		s.gate(err)
		executed := snap.Gauges["server.executed"]
		if base < 0 {
			base = executed
		}
		select {
		case <-load.done:
			s.t.Fatalf("%s exited before node %s had executed %d requests: no kill landed mid-flight", load.name, victim.name, ops)
		default:
		}
		if executed-base >= ops {
			victim.kill()
			return
		}
	}
}

// Client is one client command (dbload, dbctl, or a dbserve expected to
// refuse its flags) running under clientDeadline.
type Client struct {
	s    *Smoke
	name string
	race bool
	argv string
	out  bytes.Buffer
	err  error         // exit status
	late bool          // killed at the deadline
	done chan struct{} // closed once the process is reaped
}

// spawn starts bin from the current flavour in the background.
func (s *Smoke) spawn(name, bin string, args ...string) *Client {
	s.t.Helper()
	ctx, cancel := context.WithTimeout(s.ctx, clientDeadline)
	s.t.Cleanup(cancel)
	c := &Client{s: s, name: name, race: s.race, argv: bin + " " + strings.Join(args, " "), done: make(chan struct{})}
	cmd := exec.CommandContext(ctx, filepath.Join(s.binDir, bin), args...)
	cmd.Stdout, cmd.Stderr = &c.out, &c.out
	cmd.WaitDelay = time.Second
	s.gate(cmd.Start())
	go func() {
		c.err = cmd.Wait()
		c.late = errors.Is(ctx.Err(), context.DeadlineExceeded)
		close(c.done)
	}()
	return c
}

// wait returns the command's combined output and exit error once it ends,
// after saving the output as <name>.out. It fails the smoke itself when a
// node died under the command, the deadline killed it, or a race-built
// command reported a data race.
func (c *Client) wait() (string, error) {
	s := c.s
	s.t.Helper()
	<-c.done
	out := c.out.String()
	s.save(c.name+".out", c.out.Bytes())
	s.t.Logf("$ %s\n%s", c.argv, out)
	s.gate(context.Cause(s.ctx))
	if c.late {
		s.t.Fatalf("%s still running after %v", c.name, clientDeadline)
	}
	if c.race {
		s.gate(matchN(out, dataRace, 0))
	}
	return out, c.err
}

// run is spawn followed by wait.
func (s *Smoke) run(name, bin string, args ...string) (string, error) {
	s.t.Helper()
	return s.spawn(name, bin, args...).wait()
}

// fetch GETs url, saves the body as name, and fails on anything but a 2xx
// (/healthz answers 503 when the server is CRITICAL).
func (s *Smoke) fetch(name, url string) string {
	s.t.Helper()
	hc := http.Client{Timeout: 10 * time.Second}
	resp, err := hc.Get(url)
	s.gate(err)
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	s.gate(err)
	s.save(name, body)
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		s.t.Fatalf("GET %s: %s\n%s", url, resp.Status, body)
	}
	return string(body)
}

// The gate helpers: pure functions over captured output, so a gate is one
// line — s.gate(match(out, `...`)) — and harness_test.go can attack each
// with a recorded report.

// match requires pattern to occur in out.
func match(out, pattern string) error {
	if !regexp.MustCompile(pattern).MatchString(out) {
		return fmt.Errorf("no match for %q in:\n%s", pattern, out)
	}
	return nil
}

// matchN requires pattern to occur exactly n times in out.
func matchN(out, pattern string, n int) error {
	if got := len(regexp.MustCompile(pattern).FindAllStringIndex(out, -1)); got != n {
		return fmt.Errorf("%q matches %d times, want %d, in:\n%s", pattern, got, n, out)
	}
	return nil
}

// find returns pattern's first submatch in out, or "" without a match.
func find(out, pattern string) string {
	if m := regexp.MustCompile(pattern).FindStringSubmatch(out); m != nil {
		return m[1]
	}
	return ""
}

// number is find for a figure; 0, which every ratio gate rejects, when the
// line is absent.
func number(out, pattern string) float64 {
	v, _ := strconv.ParseFloat(find(out, pattern), 64)
	return v
}

// opsPerSec returns the throughput on a dbload report's summary line.
func opsPerSec(report string) float64 { return number(report, `: ([0-9]+) ops/s`) }

// ratioGate requires got/base to reach full on a host with at least 4
// CPUs and relaxed on a smaller one, where the processes time-share cores
// and wall-clock throughput cannot scale whatever the design does.
func ratioGate(what string, got, base, full, relaxed float64, cpus int) error {
	want := full
	if cpus < 4 {
		want = relaxed
	}
	if base <= 0 || got/base < want {
		return fmt.Errorf("%s: %.0f / %.0f = %.2fx, want >= %.2fx on %d CPUs", what, got, base, got/base, want, cpus)
	}
	return nil
}

// baselineGate requires every `ScenarioThroughput/... N ops/s` phase of
// the baseline file to appear in out no more than pct percent below it.
func baselineGate(file, out string, pct float64) error {
	baseline, err := os.ReadFile(file)
	phases := regexp.MustCompile(`(?m)^(ScenarioThroughput/\S+) ([0-9.]+) ops/s`).FindAllSubmatch(baseline, -1)
	if len(phases) == 0 {
		return fmt.Errorf("scenario baseline %s lists no phase (%v)", file, err)
	}
	for _, m := range phases {
		was, _ := strconv.ParseFloat(string(m[2]), 64) // the pattern admits only digits and dots
		now := number(out, `(?m)^`+regexp.QuoteMeta(string(m[1]))+` ([0-9.]+) ops/s`)
		if now < was*(1-pct/100) {
			return fmt.Errorf("%s: %.0f ops/s, more than %.0f%% under the baseline's %.0f", m[1], now, pct, was)
		}
	}
	return nil
}
