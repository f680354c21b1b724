package router

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/wire"
)

// mkTarget builds a synthetic probe snapshot for pickReplica tests.
func mkTarget(addr string, healthy bool, role int32, serveReads bool, applied uint64) *target {
	t := &target{addr: addr}
	t.healthy.Store(healthy)
	t.role.Store(role)
	t.serveReads.Store(serveReads)
	t.applied.Store(applied)
	return t
}

// TestPickReplicaLease is the lease-eligibility table: a replica is
// routable only when healthy, a standby, read-serving, and caught up to the session's token. leasePinned distinguishes
// "excluded by the token alone" from "nothing to route to".
func TestPickReplicaLease(t *testing.T) {
	standby := func(addr string, applied uint64) *target {
		return mkTarget(addr, true, wire.RoleStandby, true, applied)
	}
	tests := []struct {
		name       string
		targets    []*target
		token      uint64
		wantAddrs  []string // acceptable picks; empty = want nil
		wantPinned bool
	}{
		{
			name:    "no targets",
			targets: nil,
		},
		{
			name:      "caught-up standby serves",
			targets:   []*target{standby("a", 100)},
			token:     50,
			wantAddrs: []string{"a"},
		},
		{
			name:      "token equal to applied is covered",
			targets:   []*target{standby("a", 100)},
			token:     100,
			wantAddrs: []string{"a"},
		},
		{
			name:       "lagging standby pins the lease",
			targets:    []*target{standby("a", 100)},
			token:      150,
			wantPinned: true,
		},
		{
			name:    "primary never routed",
			targets: []*target{mkTarget("p", true, wire.RolePrimary, true, 1000)},
			token:   0,
		},
		{
			name:    "unhealthy standby is not serving",
			targets: []*target{mkTarget("a", false, wire.RoleStandby, true, 100)},
			token:   150,
			// Not even leasePinned: the node is down, not lease-excluded.
		},
		{
			name:    "non-serving standby excluded",
			targets: []*target{mkTarget("a", true, wire.RoleStandby, false, 100)},
		},
		{
			name:    "unknown role before first probe excluded",
			targets: []*target{mkTarget("a", true, roleUnknown, true, 100)},
		},
		{
			name:       "one eligible among laggards",
			targets:    []*target{standby("a", 40), standby("b", 90), standby("c", 10)},
			token:      60,
			wantAddrs:  []string{"b"},
			wantPinned: false,
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			rt := &Router{targets: tc.targets}
			got, pinned := rt.pickReplica(tc.token)
			if len(tc.wantAddrs) == 0 {
				if got != nil {
					t.Fatalf("picked %s, want no replica", got.addr)
				}
			} else {
				if got == nil {
					t.Fatalf("picked nothing, want one of %v", tc.wantAddrs)
				}
				ok := false
				for _, a := range tc.wantAddrs {
					ok = ok || got.addr == a
				}
				if !ok {
					t.Fatalf("picked %s, want one of %v", got.addr, tc.wantAddrs)
				}
			}
			if pinned != tc.wantPinned {
				t.Fatalf("leasePinned = %v, want %v", pinned, tc.wantPinned)
			}
		})
	}
}

// TestPickReplicaRoundRobin verifies reads spread across the eligible set
// instead of hammering one standby.
func TestPickReplicaRoundRobin(t *testing.T) {
	rt := &Router{targets: []*target{
		mkTarget("a", true, wire.RoleStandby, true, 100),
		mkTarget("b", true, wire.RoleStandby, true, 100),
	}}
	seen := map[string]int{}
	for i := 0; i < 10; i++ {
		tg, _ := rt.pickReplica(0)
		if tg == nil {
			t.Fatal("no replica picked")
		}
		seen[tg.addr]++
	}
	if seen["a"] != 5 || seen["b"] != 5 {
		t.Fatalf("round-robin spread = %v, want 5/5", seen)
	}
}

// TestNewDedupsAddrs: duplicate and empty addresses collapse; no
// addresses at all is an error.
func TestNewDedupsAddrs(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New with no addresses succeeded")
	}
	if _, err := New(Config{Addrs: []string{"", ""}}); err == nil {
		t.Fatal("New with only empty addresses succeeded")
	}
	// 127.0.0.1:1 refuses fast; the router treats it as unhealthy.
	rt, err := New(Config{Addrs: []string{"127.0.0.1:1", "127.0.0.1:1", ""}, ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if len(rt.targets) != 1 {
		t.Fatalf("got %d targets, want 1 after dedup", len(rt.targets))
	}
	if _, err := rt.Primary(); err == nil {
		t.Fatal("Primary succeeded with no reachable node")
	}
}

// TestIsFailoverErr pins the classification: role/connection errors mean
// "try elsewhere", application errors surface.
func TestIsFailoverErr(t *testing.T) {
	for _, err := range []error{wire.ErrStandby, wire.ErrShutdown, wire.ErrNotPrimary, io.EOF, io.ErrUnexpectedEOF} {
		if !IsFailoverErr(err) {
			t.Errorf("IsFailoverErr(%v) = false", err)
		}
	}
	for _, err := range []error{nil, wire.ErrStale, wire.ErrNoSession, errors.New("boom")} {
		if IsFailoverErr(err) {
			t.Errorf("IsFailoverErr(%v) = true", err)
		}
	}
}

// TestStatsString keeps the report line greppable by the smoke script.
func TestStatsString(t *testing.T) {
	s := Stats{ReplicaReads: 7, PrimaryReads: 3, LeasePins: 2, StaleFallbacks: 1, Failovers: 4, Probes: 9}
	line := s.String()
	for _, want := range []string{"router:", "replica=7", "primary=3", "lease_pins=2", "stale_fallbacks=1", "failovers=4", "probes=9"} {
		if !strings.Contains(line, want) {
			t.Fatalf("Stats line %q missing %q", line, want)
		}
	}
	if fmt.Sprint(s) != line {
		t.Fatal("Stats does not print through fmt")
	}
}
