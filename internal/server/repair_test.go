package server

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/callproc"
	"repro/internal/memdb"
	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/wal"
	"repro/internal/wire"
)

// qualityMSB is the region offset of the top bit's byte of Resource record
// l's quality field on core c: flipping bit 7 there puts the field far out
// of its 0–100 range. Turn holder only.
func qualityMSB(c *core, l int) (int, error) {
	off, err := c.db.TrueRecordOffset(callproc.TblRes, l)
	return off + memdb.RecordHeaderSize + memdb.FieldSize*callproc.FldResQuality + 3, err
}

// flipQuality flips the top bit of Resource record l's quality on core c.
// Turn holder only.
func flipQuality(c *core, l int) error {
	off, err := qualityMSB(c, l)
	if err != nil {
		return err
	}
	return c.db.FlipBit(off, 7)
}

// TestRangeRepairNotStale pins the range audit's repair source against a
// lagging copy. With a standby attached, each of 20 rounds acknowledges a
// new quality, then flips that field and sweeps the table within one turn.
// The repair must put back the value just acknowledged every time: a copy
// that trails by up to a poll would put back the one before it.
func TestRangeRepairNotStale(t *testing.T) {
	primary, _, addrP, addrS := startPair(t)
	connP := dialInit(t, addrP)
	ri, err := connP.Alloc(callproc.TblRes, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := connP.WriteRec(callproc.TblRes, ri, []uint32{1, 1, 50}); err != nil {
		t.Fatal(err)
	}
	connS, err := wire.Dial(addrS)
	if err != nil {
		t.Fatal(err)
	}
	defer connS.Close()
	waitFor(t, "standby catch-up", 5*time.Second, func() bool {
		st, err := connS.ReplStatus()
		return err == nil && st.Applied == primary.cores[0].walLog.LastSeq()
	})

	c := primary.cores[0]
	for k := 0; k < 20; k++ {
		acked := uint32(k + 1)
		if err := connP.WriteFld(callproc.TblRes, ri, callproc.FldResQuality, acked); err != nil {
			t.Fatal(err)
		}
		var got uint32
		var st int
		var ferr error
		c.onExecutor(func() {
			if ferr = flipQuality(c, ri); ferr != nil {
				return
			}
			c.rangeChk.CheckTable(callproc.TblRes)
			got, _ = c.db.ReadFieldDirect(callproc.TblRes, ri, callproc.FldResQuality)
			st, _ = c.db.StatusDirect(callproc.TblRes, ri)
		})
		if ferr != nil {
			t.Fatal(ferr)
		}
		if st != memdb.StatusActive || got != acked {
			t.Fatalf("round %d: acked quality %d, repaired to %d (status %d)", k, acked, got, st)
		}
	}
}

// TestRangeRepairFromLog is the restore-from-log pin on a WAL-backed server
// with no standby: a record written with quality 77, whose quality's high
// byte is then flipped, must come out of a SWEEP active with quality 77,
// counted as a log restore, and a crash image of its log directory must
// recover the same record. The paper's reset/free alone would free the
// record on the server while the log still recovers it active.
func TestRangeRepairFromLog(t *testing.T) {
	for _, n := range []int{1, 2} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			dirs, wals := openTestWALs(t, n)
			srv, addr := newTestServer(t, n, Config{ClockTick: 2 * time.Millisecond}, wals...)
			conn := dialInit(t, addr)
			ri, err := conn.Alloc(callproc.TblRes, 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := conn.WriteRec(callproc.TblRes, ri, []uint32{1, 1, 77}); err != nil {
				t.Fatal(err)
			}
			k, l := memdb.ShardOf(ri, n), memdb.LocalIndex(ri, n)
			c := srv.cores[k]
			var ferr error
			c.onExecutor(func() { ferr = flipQuality(c, l) })
			if ferr != nil {
				t.Fatal(ferr)
			}
			if _, err := conn.Sweep(); err != nil {
				t.Fatal(err)
			}

			st, err := conn.Status(callproc.TblRes, ri)
			if err != nil {
				t.Fatal(err)
			}
			v, err := conn.ReadFld(callproc.TblRes, ri, callproc.FldResQuality)
			if err != nil {
				t.Fatal(err)
			}
			if st != memdb.StatusActive || v != 77 {
				t.Fatalf("after SWEEP: status %d quality %d, want active quality 77", st, v)
			}
			raw, err := conn.Stats2()
			if err != nil {
				t.Fatal(err)
			}
			snap, err := metrics.ParseSnapshot(raw)
			if err != nil {
				t.Fatal(err)
			}
			if name := "audit.actions." + audit.ActionLogRestore.String(); snap.Counters[name] < 1 {
				t.Errorf("%s = %d, want >= 1", name, snap.Counters[name])
			}

			waitFor(t, "log fsync", 5*time.Second, func() bool {
				return c.walLog.SyncedSeq() == c.walLog.LastSeq()
			})
			res, err := wal.Recover(copyWALDir(t, dirs[k]), testSchemas(t, n)[k])
			if err != nil {
				t.Fatal(err)
			}
			rst, _ := res.DB.StatusDirect(callproc.TblRes, l)
			rv, _ := res.DB.ReadFieldDirect(callproc.TblRes, l, callproc.FldResQuality)
			if rst != st || rv != v {
				t.Errorf("crash image recovers status %d quality %d; server holds status %d quality %d", rst, rv, st, v)
			}
		})
	}
}

// TestStaticGoldenAfterRestart pins the static audit's golden to permanent
// storage: a SysConfig byte flipped and then captured by a checkpoint
// survives into a server restarted from a crash image of the log directory,
// and that server's SWEEP must still find the flip and reload the extent. A
// golden taken from the recovered live region would bless the flip.
func TestStaticGoldenAfterRestart(t *testing.T) {
	dirs, wals := openTestWALs(t, 1)
	srv, _ := newTestServer(t, 1, Config{}, wals...)
	c := srv.cores[0]
	var off int
	var ferr error
	c.onExecutor(func() {
		if off, ferr = c.db.TrueRecordOffset(callproc.TblConfig, 0); ferr != nil {
			return
		}
		off += memdb.RecordHeaderSize
		if ferr = c.db.FlipBit(off, 0); ferr == nil {
			c.checkpointNow()
		}
	})
	if ferr != nil {
		t.Fatal(ferr)
	}

	crash := copyWALDir(t, dirs[0])
	res, err := wal.Recover(crash, testSchemas(t, 1)[0])
	if err != nil {
		t.Fatal(err)
	}
	if res.DB.Raw()[off] == res.DB.SnapshotBytes()[off] {
		t.Fatal("the checkpoint did not capture the flip")
	}
	l, err := wal.Open(wal.Config{Dir: crash}, res.LastSeq)
	if err != nil {
		t.Fatal(err)
	}
	// No periodic audit: the SWEEP below is the first to look.
	srv2, addr2 := serveTestDBs(t, []*memdb.DB{res.DB}, Config{AuditPeriod: -1}, l)
	n, err := dialInit(t, addr2).Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if n < 1 {
		t.Fatalf("SWEEP after restart found %d, want the SysConfig flip", n)
	}
	c2 := srv2.cores[0]
	var reloaded bool
	c2.onExecutor(func() { reloaded = c2.db.Raw()[off] == c2.db.SnapshotBytes()[off] })
	if !reloaded {
		t.Error("the flipped SysConfig byte was not reloaded from permanent storage")
	}
	found := false
	for _, ev := range srv2.TraceEvents(trace.KindFinding, 0) {
		found = found || ev.Code == int64(audit.ActionReload)
	}
	if !found {
		t.Error("no reload finding journaled")
	}
}
