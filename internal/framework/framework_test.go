package framework

import (
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/callproc"
	"repro/internal/memdb"
)

func defaultFramework(t *testing.T, mutate func(*Config)) *Framework {
	t.Helper()
	cfg := DefaultConfig(callproc.Schema(callproc.DefaultSchemaConfig()), callproc.CallLoop())
	if mutate != nil {
		mutate(&cfg)
	}
	f, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return f
}

func TestFrameworkLifecycle(t *testing.T) {
	f := defaultFramework(t, nil)
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	if err := f.Start(); err == nil {
		t.Fatal("double Start succeeded")
	}
	if !f.AuditProcess().Alive() {
		t.Fatal("audit process not alive after Start")
	}
	if err := f.Run(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	f.Stop()
	if f.AuditProcess().Alive() {
		t.Fatal("audit process alive after Stop")
	}
	f.Stop() // idempotent
}

func TestFrameworkValidation(t *testing.T) {
	cfg := DefaultConfig(callproc.Schema(callproc.DefaultSchemaConfig()))
	cfg.AuditPeriod = 0
	if _, err := New(cfg); err == nil {
		t.Fatal("zero audit period accepted")
	}
	cfg = DefaultConfig(memdb.Schema{})
	if _, err := New(cfg); err == nil {
		t.Fatal("empty schema accepted")
	}
	// The semantic check is built once, in New: an invalid loop fails it.
	cfg = DefaultConfig(callproc.Schema(callproc.DefaultSchemaConfig()),
		audit.Loop{Name: "bad", Steps: []audit.LoopStep{{Table: 99, Field: 0}, {Table: 0, Field: 0}}})
	if _, err := New(cfg); err == nil {
		t.Fatal("invalid loop accepted")
	}
}

func TestFrameworkDetectsAndRepairsInjectedError(t *testing.T) {
	var findings []audit.Finding
	f := defaultFramework(t, nil)
	f.SetFindingObserver(func(fd audit.Finding) { findings = append(findings, fd) })
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	// Corrupt the static configuration region mid-run.
	f.Env().Schedule(12*time.Second, func() {
		ext, err := f.DB().TableExtent(callproc.TblConfig)
		if err != nil {
			t.Errorf("TableExtent: %v", err)
			return
		}
		if err := f.DB().FlipBit(ext.Off+10, 3); err != nil {
			t.Errorf("FlipBit: %v", err)
		}
	})
	if err := f.Run(40 * time.Second); err != nil {
		t.Fatal(err)
	}
	if len(findings) == 0 {
		t.Fatal("framework missed the injected static error")
	}
	if findings[0].Class != audit.ClassStatic {
		t.Fatalf("finding class = %v", findings[0].Class)
	}
	if f.AuditProcess().Stats().ByClass[audit.ClassStatic] == 0 {
		t.Fatal("stats not updated")
	}
}

func TestFrameworkTerminatorWiring(t *testing.T) {
	f := defaultFramework(t, func(c *Config) { c.SemanticGrace = time.Second })
	var killed []int
	f.SetTerminator(func(pid int) { killed = append(killed, pid) })
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	// A client allocates a full chain but writes an inconsistent loop:
	// Resource points at the wrong process.
	c, err := f.DB().Connect()
	if err != nil {
		t.Fatal(err)
	}
	proc, _ := c.Alloc(callproc.TblProc, 1)
	conn, _ := c.Alloc(callproc.TblConn, 1)
	res, _ := c.Alloc(callproc.TblRes, 1)
	if err := c.WriteRec(callproc.TblProc, proc, []uint32{uint32(conn), 1}); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteRec(callproc.TblConn, conn, []uint32{uint32(res), 123456, 1}); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteRec(callproc.TblRes, res, []uint32{uint32(proc + 1), 1, 50}); err != nil {
		t.Fatal(err)
	}
	if err := f.Run(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if len(killed) == 0 {
		t.Fatal("semantic recovery did not terminate the owning client")
	}
	if killed[0] != c.PID() {
		t.Fatalf("killed %v, want [%d]", killed, c.PID())
	}
}

func TestFrameworkManagerRestartsCrashedAudit(t *testing.T) {
	f := defaultFramework(t, nil)
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	f.Env().Schedule(7*time.Second, f.AuditProcess().Crash)
	if err := f.Run(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	if f.Manager().Restarts() != 1 {
		t.Fatalf("Restarts = %d, want 1", f.Manager().Restarts())
	}
	if !f.AuditProcess().Alive() {
		t.Fatal("audit process not restarted")
	}
}

// TestFrameworkRestartKeepsStaticGoldens: static damage present when the
// manager restarts a crashed audit process must still be found. The golden
// checksums are captured once, while the region is known-good; a restart
// that re-captured them would adopt the damage as golden.
func TestFrameworkRestartKeepsStaticGoldens(t *testing.T) {
	var findings []audit.Finding
	f := defaultFramework(t, nil)
	f.SetFindingObserver(func(fd audit.Finding) { findings = append(findings, fd) })
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	ext, err := f.DB().TableExtent(callproc.TblConfig)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.DB().FlipBit(ext.Off+10, 2); err != nil {
		t.Fatal(err)
	}
	f.Env().Schedule(time.Second, f.AuditProcess().Crash)
	if err := f.Run(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	if f.Manager().Restarts() != 1 {
		t.Fatalf("Restarts = %d, want 1", f.Manager().Restarts())
	}
	if len(findings) == 0 || findings[0].Class != audit.ClassStatic {
		t.Fatalf("findings = %v, want the static damage found after the restart", findings)
	}
}

func TestFrameworkSlicedTriggers(t *testing.T) {
	for _, mode := range []TriggerMode{SlicedRoundRobin, SlicedPrioritized} {
		f := defaultFramework(t, func(c *Config) {
			c.Trigger = mode
			c.AuditPeriod = 5 * time.Second
			c.Nature = []float64{1, 0, 0, 0}
		})
		if err := f.Start(); err != nil {
			t.Fatal(err)
		}
		// Plant a static error; the sliced audit must reach the config
		// table within a few slots.
		ext, err := f.DB().TableExtent(callproc.TblConfig)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.DB().FlipBit(ext.Off, 0); err != nil {
			t.Fatal(err)
		}
		if err := f.Run(120 * time.Second); err != nil {
			t.Fatal(err)
		}
		if f.AuditProcess().Stats().ByClass[audit.ClassStatic] == 0 {
			t.Fatalf("mode %v: sliced audit never detected the static error", mode)
		}
	}
}

func TestFrameworkEventTriggeredAudit(t *testing.T) {
	f := defaultFramework(t, func(c *Config) {
		c.EventTriggered = true
		c.AuditPeriod = time.Hour // effectively disable periodic audits
	})
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	c, err := f.DB().Connect()
	if err != nil {
		t.Fatal(err)
	}
	ri, err := c.Alloc(callproc.TblProc, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the record, then have the client write a *different* field
	// — the write notification triggers an immediate audit of the record.
	f.Env().Schedule(time.Second, func() {
		if err := f.DB().WriteFieldDirect(callproc.TblProc, ri, 1, 999); err != nil {
			t.Errorf("WriteFieldDirect: %v", err)
		}
		if err := c.WriteFld(callproc.TblProc, ri, 0, 2); err != nil {
			t.Errorf("WriteFld: %v", err)
		}
	})
	if err := f.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if f.AuditProcess().Stats().ByClass[audit.ClassRange] == 0 {
		t.Fatal("event-triggered audit missed the corruption")
	}
}

func TestFrameworkWithWorkloadCleanRun(t *testing.T) {
	f := defaultFramework(t, nil)
	wl, err := callproc.New(f.Env(), f.DB(), callproc.DefaultConfig(), callproc.Events{})
	if err != nil {
		t.Fatal(err)
	}
	f.SetTerminator(wl.TerminateThread)
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	if err := wl.Start(); err != nil {
		t.Fatal(err)
	}
	if err := f.Run(500 * time.Second); err != nil {
		t.Fatal(err)
	}
	if wl.Stats().Completed == 0 {
		t.Fatal("no calls completed")
	}
	if got := f.AuditProcess().Stats().Total(); got != 0 {
		t.Fatalf("clean run produced %d findings: %v", got, f.AuditProcess().Stats().ByClass)
	}
	if wl.Stats().Terminated != 0 {
		t.Fatal("audit terminated healthy calls")
	}
}

func TestFrameworkSelectiveMonitors(t *testing.T) {
	f := defaultFramework(t, func(c *Config) {
		c.Monitors = [][2]int{{callproc.TblConn, callproc.FldConnCallerID}}
		c.MonitorPeriod = 20 * time.Second
		c.AuditPeriod = time.Hour // isolate the selective element
		c.SemanticGrace = time.Second
	})
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	// Populate connections with a hot caller value plus one outlier whose
	// semantic chain is also broken, so escalation has something to find.
	c, err := f.DB().Connect()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		ri, err := c.Alloc(callproc.TblConn, 1)
		if err != nil {
			t.Fatal(err)
		}
		v := uint32(7_000_000)
		if i == 5 {
			v = 13 // statistical outlier
		}
		if err := c.WriteRec(callproc.TblConn, ri, []uint32{uint32(ri), v, 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Run(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	stats := f.AuditProcess().Stats()
	if stats.ByClass[audit.ClassSuspect] == 0 {
		t.Fatalf("selective monitor flagged nothing: %v", stats.ByClass)
	}
	// Monitors are built once, in New: a bad monitor spec fails it.
	cfg := DefaultConfig(callproc.Schema(callproc.DefaultSchemaConfig()), callproc.CallLoop())
	cfg.Monitors = [][2]int{{99, 0}}
	if _, err := New(cfg); err == nil {
		t.Fatal("New with invalid monitor succeeded")
	}
}
