package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// serverProc is one dbserve child process under test.
type serverProc struct {
	cmd    *exec.Cmd
	addr   string
	walDir string // removed on stop; empty when the workload has no WAL

	mu   sync.Mutex
	log  bytes.Buffer  // everything the child printed, for failure reports
	done chan struct{} // closed when the output reader has seen EOF
}

const serveBanner = "dbserve: serving on "

// startServer spawns bin with args on a kernel-chosen loopback port and
// returns once the child has printed its bound address.
func startServer(bin string, args []string, walDir string) (*serverProc, error) {
	args = append([]string{"-addr", "127.0.0.1:0", "-audit-period", auditPeriod.String()}, args...)
	if walDir != "" {
		if err := os.MkdirAll(walDir, 0o755); err != nil {
			return nil, err
		}
		args = append(args, "-wal-dir", walDir)
	}
	cmd := exec.Command(bin, args...)
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	s := &serverProc{cmd: cmd, walDir: walDir, done: make(chan struct{})}
	ready := make(chan string, 1)
	go func() {
		defer close(s.done)
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			line := sc.Text()
			s.mu.Lock()
			s.log.WriteString(line + "\n")
			s.mu.Unlock()
			if rest, ok := strings.CutPrefix(line, serveBanner); ok {
				select {
				case ready <- strings.Fields(rest)[0]:
				default:
				}
			}
		}
	}()
	select {
	case s.addr = <-ready:
		return s, nil
	case <-s.done:
		_ = cmd.Wait()
		return nil, fmt.Errorf("dbserve exited before serving:\n%s", s.output())
	case <-time.After(20 * time.Second):
		_ = s.stop()
		return nil, fmt.Errorf("dbserve did not start serving within 20s:\n%s", s.output())
	}
}

func (s *serverProc) output() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.log.String()
}

// stop sends SIGTERM (drain, final sweep, checkpoint), waits for the child
// to exit, and removes its WAL directory. A child that ignores the signal
// is killed, so no process outlives the benchmark.
func (s *serverProc) stop() error {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(15 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
	err := s.cmd.Wait()
	if s.walDir != "" {
		os.RemoveAll(s.walDir)
	}
	if err != nil {
		return fmt.Errorf("dbserve: %w\n%s", err, s.output())
	}
	return nil
}

// cpuSeconds is the child's user + system CPU time so far, from
// /proc/<pid>/stat (fields 14 and 15, in USER_HZ = 100 ticks per second).
func (s *serverProc) cpuSeconds() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields are counted
	// from the closing parenthesis.
	i := bytes.LastIndexByte(data, ')')
	f := strings.Fields(string(data[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: unexpected format", s.cmd.Process.Pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: bad cpu fields", s.cmd.Process.Pid)
	}
	return (ut + st) / 100, nil
}

// rssHighWaterMB is the child's peak resident set (VmHWM) in MiB.
func (s *serverProc) rssHighWaterMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, err := strconv.ParseFloat(f[0], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no VmHWM", s.cmd.Process.Pid)
}

// selfCPUSeconds is the driver's own user + system CPU time so far.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
