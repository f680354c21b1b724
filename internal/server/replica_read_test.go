package server

import (
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/callproc"
	"repro/internal/health"
	"repro/internal/memdb"
	"repro/internal/wal"
	"repro/internal/wire"
)

// startServingPair boots a WAL-backed primary and one read-serving
// standby (Config.ServeReads), the server half of the router's fan-out.
func startServingPair(t *testing.T) (primary, standby *Server, addrP, addrS string) {
	t.Helper()
	newNode := func(cfg Config, withWAL bool) (*Server, string) {
		db, err := memdb.New(callproc.Schema(callproc.DefaultSchemaConfig()))
		if err != nil {
			t.Fatal(err)
		}
		var wals []*wal.Log
		if withWAL {
			l, err := wal.Open(wal.Config{Dir: t.TempDir()}, 0)
			if err != nil {
				t.Fatal(err)
			}
			wals = []*wal.Log{l}
		}
		cfg.ClockTick = 5 * time.Millisecond
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		if cfg.Standby {
			cfg.AdvertiseAddr = ln.Addr().String()
		}
		srv, err := NewSharded([]*memdb.DB{db}, wals, cfg)
		if err != nil {
			t.Fatal(err)
		}
		serveErr := make(chan error, 1)
		go func() { serveErr <- srv.Serve(ln) }()
		t.Cleanup(func() {
			if err := srv.Shutdown(5 * time.Second); err != nil {
				t.Errorf("shutdown: %v", err)
			}
			if err := <-serveErr; err != nil {
				t.Errorf("serve: %v", err)
			}
		})
		return srv, ln.Addr().String()
	}
	primary, addrP = newNode(Config{}, true)
	standby, addrS = newNode(Config{
		Standby:       true,
		ServeReads:    true,
		PrimaryAddr:   addrP,
		ReplPoll:      10 * time.Millisecond,
		ReplFailLimit: -1,
		ReplTimeout:   300 * time.Millisecond,
	}, false)
	return primary, standby, addrP, addrS
}

// TestServeReadsStandby covers the server half of routed reads: the
// write-ack token on the primary, session-less reads on the standby, the
// lease floor's CodeStale refusal, the extended REPL_STATUS document, and
// the role tag in the health document.
func TestServeReadsStandby(t *testing.T) {
	_, _, addrP, addrS := startServingPair(t)
	connP := dialInit(t, addrP)

	// An acknowledged logged mutation returns its WAL sequence as the
	// session's lease token.
	ri, err := connP.Alloc(callproc.TblRes, 0)
	if err != nil {
		t.Fatal(err)
	}
	if connP.LastToken() == 0 {
		t.Fatal("DBalloc acknowledged with no write token")
	}
	if err := connP.WriteFld(callproc.TblRes, ri, callproc.FldResQuality, 33); err != nil {
		t.Fatal(err)
	}
	token := connP.LastToken()
	if token < 2 {
		t.Fatalf("token = %d after two logged mutations", token)
	}
	// Reads do not advance the token.
	if _, err := connP.ReadFld(callproc.TblRes, ri, callproc.FldResQuality); err != nil {
		t.Fatal(err)
	}
	if connP.LastToken() != token {
		t.Fatalf("read moved the token: %d -> %d", token, connP.LastToken())
	}

	connS, err := wire.Dial(addrS)
	if err != nil {
		t.Fatal(err)
	}
	defer connS.Close()
	// Sessions stay refused: serve-reads changes reads only.
	if _, err := connS.Init(); !errors.Is(err, wire.ErrStandby) {
		t.Fatalf("standby Init error = %v, want ErrStandby", err)
	}
	waitFor(t, "standby catch-up", 5*time.Second, func() bool {
		st, err := connS.ReplStatus()
		return err == nil && st.Applied >= token
	})

	// Session-less reads serve on the standby and agree with the primary.
	v, err := connS.ReadFld(callproc.TblRes, ri, callproc.FldResQuality)
	if err != nil {
		t.Fatalf("session-less standby read: %v", err)
	}
	if v != 33 {
		t.Fatalf("standby read = %d, want 33", v)
	}
	if st, err := connS.Status(callproc.TblRes, ri); err != nil || st != memdb.StatusActive {
		t.Fatalf("standby status = %d, %v, want active", st, err)
	}
	recP, err := connP.ReadRec(callproc.TblRes, ri)
	if err != nil {
		t.Fatal(err)
	}
	recS, err := connS.ReadRec(callproc.TblRes, ri)
	if err != nil {
		t.Fatal(err)
	}
	if len(recP) != len(recS) {
		t.Fatalf("record widths differ: %v vs %v", recP, recS)
	}
	for i := range recP {
		if recP[i] != recS[i] {
			t.Fatalf("replicated record differs at field %d: %v vs %v", i, recS, recP)
		}
	}
	// Writes stay refused on the standby.
	if err := connS.WriteFld(callproc.TblRes, ri, callproc.FldResQuality, 1); !errors.Is(err, wire.ErrStandby) {
		t.Fatalf("standby write error = %v, want ErrStandby", err)
	}

	// A lease floor beyond the standby's applied position is refused with
	// CodeStale — never answered from older state.
	lo, hi := wire.SplitU64(token + 1000)
	resp, err := connS.Call(wire.Request{
		Op: wire.OpReadFld, Table: int32(callproc.TblRes),
		Record: int32(ri), Field: int32(callproc.FldResQuality),
		Vals: []uint32{lo, hi},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Code != wire.CodeStale || !errors.Is(resp.Err(), wire.ErrStale) {
		t.Fatalf("future lease floor answered code %d (%v), want CodeStale", resp.Code, resp.Err())
	}
	// A floor the standby has applied is served.
	lo, hi = wire.SplitU64(token)
	resp, err = connS.Call(wire.Request{
		Op: wire.OpReadFld, Table: int32(callproc.TblRes),
		Record: int32(ri), Field: int32(callproc.FldResQuality),
		Vals: []uint32{lo, hi},
	})
	if err != nil || resp.Err() != nil {
		t.Fatalf("covered lease floor refused: %v / %v", err, resp.Err())
	}
	if len(resp.Vals) != 1 || resp.Vals[0] != 33 {
		t.Fatalf("covered read = %v, want [33]", resp.Vals)
	}

	// REPL_STATUS carries the serving extension on both roles.
	stS, err := connS.ReplStatus()
	if err != nil {
		t.Fatal(err)
	}
	if stS.Role != wire.RoleStandby || !stS.ServeReads {
		t.Fatalf("standby ReplStatus = %+v, want serving standby", stS)
	}
	stP, err := connP.ReplStatus()
	if err != nil {
		t.Fatal(err)
	}
	if stP.Role != wire.RolePrimary || !stP.ServeReads {
		t.Fatalf("primary ReplStatus = %+v, want serving primary", stP)
	}
	if stP.LastSeq < token {
		t.Fatalf("primary LastSeq = %d, below token %d", stP.LastSeq, token)
	}

	// The health document names the role, so a serving standby's shadow
	// audits are attributed to it.
	for addr, want := range map[string]string{addrP: "primary", addrS: "standby-serving"} {
		c, err := wire.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		doc, err := c.Health()
		c.Close()
		if err != nil {
			t.Fatal(err)
		}
		hs, err := health.ParseStatus(doc)
		if err != nil {
			t.Fatal(err)
		}
		if hs.Role != want {
			t.Fatalf("health role on %s = %q, want %q", addr, hs.Role, want)
		}
	}
}

// TestPlainStandbyStillRefusesReads: without ServeReads the standby's
// read refusal is unchanged — the serving mode is strictly opt-in.
func TestPlainStandbyRefusesReadsWithoutServeReads(t *testing.T) {
	primary, standby, addrP, addrS := startPair(t)
	_, _ = primary, standby
	connP := dialInit(t, addrP)
	ri, err := connP.Alloc(callproc.TblRes, 0)
	if err != nil {
		t.Fatal(err)
	}
	connS, err := wire.Dial(addrS)
	if err != nil {
		t.Fatal(err)
	}
	defer connS.Close()
	if _, err := connS.ReadFld(callproc.TblRes, ri, callproc.FldResQuality); !errors.Is(err, wire.ErrStandby) {
		t.Fatalf("plain standby read error = %v, want ErrStandby", err)
	}
	st, err := connS.ReplStatus()
	if err != nil {
		t.Fatal(err)
	}
	if st.ServeReads {
		t.Fatal("plain standby advertises serve-reads")
	}
}
