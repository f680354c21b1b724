// Command layerpass times the public functions of the repository's layers
// directly: one goroutine, fixed iteration counts (so the work repeats
// exactly from run to run), the median of a few repetitions per function.
// It prints one JSON object {metric: {value, unit}} on standard output; the
// end-to-end driver merges it into a traced run's per-layer metrics.
//
// It is a program of its own so that the end-to-end driver links only the
// wire protocol: a change to a layer's API breaks this file, never the
// ruler the change is measured with.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/audit"
	"repro/internal/callproc"
	"repro/internal/ipc"
	"repro/internal/isa"
	"repro/internal/memdb"
	"repro/internal/metrics"
	"repro/internal/pecos"
	"repro/internal/proc"
	"repro/internal/trace"
	"repro/internal/vm"
	"repro/internal/wal"
	"repro/internal/wire"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

const reps = 5

// sink keeps results alive so the compiler cannot drop the measured calls.
var sink uint64

// perOp runs f(n) reps times and returns the median time per iteration in
// ns. f performs exactly n iterations of the measured call.
func perOp(n int, f func(n int)) float64 {
	times := make([]float64, reps)
	for r := range times {
		t0 := time.Now()
		f(n)
		times[r] = float64(time.Since(t0)) / float64(n)
	}
	sort.Float64s(times)
	return times[reps/2]
}

func must(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "layerpass:", err)
		os.Exit(1)
	}
}

func main() {
	scratch := flag.String("scratch", "", "directory for the WAL files the pass writes (removed afterwards)")
	flag.Parse()
	if *scratch == "" {
		must(fmt.Errorf("-scratch is required"))
	}
	dir := filepath.Join(*scratch, fmt.Sprintf("layerpass-%d", os.Getpid()))
	must(os.MkdirAll(dir, 0o755))
	defer os.RemoveAll(dir)

	out := map[string]metricValue{}
	put := func(name string, v float64, unit string) { out[name] = metricValue{v, unit} }
	wirePass(put)
	memdbPass(put)
	auditPass(put)
	if err := walPass(put, dir); err != nil {
		os.RemoveAll(dir)
		must(err)
	}
	procPass(put)
	obsPass(put)
	must(json.NewEncoder(os.Stdout).Encode(out))
}

// wirePass: the codec on the request and response shapes the workloads send
// most (a one-value DBwrite_fld and its three-value DBread_rec reply).
func wirePass(put func(string, float64, string)) {
	const n = 200_000
	req := wire.Request{Seq: 7, Op: wire.OpWriteFld, Table: 3, Record: 1234, Field: 2, Vals: []uint32{77}}
	resp := wire.Response{Seq: 7, Vals: []uint32{1234, 1, 50}}
	reqBytes := wire.AppendRequest(nil, req)
	respBytes := wire.AppendResponse(nil, resp)
	var buf []byte
	put("wire.encode_req_ns", perOp(n, func(n int) {
		for i := 0; i < n; i++ {
			buf = wire.AppendRequest(buf[:0], req)
		}
	}), "ns")
	put("wire.parse_req_ns", perOp(n, func(n int) {
		for i := 0; i < n; i++ {
			q, err := wire.ParseRequest(reqBytes)
			must(err)
			sink += uint64(q.Seq)
		}
	}), "ns")
	put("wire.encode_resp_ns", perOp(n, func(n int) {
		for i := 0; i < n; i++ {
			buf = wire.AppendResponse(buf[:0], resp)
		}
	}), "ns")
	put("wire.parse_resp_ns", perOp(n, func(n int) {
		for i := 0; i < n; i++ {
			r, err := wire.ParseResponse(respBytes)
			must(err)
			sink += uint64(r.Seq)
		}
	}), "ns")
	sink += uint64(len(buf))
}

// servedSchema is the region the call-mix and read-pipelined servers hold.
func servedSchema() memdb.Schema {
	return callproc.Schema(callproc.SchemaConfig{ConfigRecords: 256, ConfigFields: 4, CallRecords: 4096})
}

func memdbPass(put func(string, float64, string)) {
	const n = 200_000
	newDB := func() (*memdb.DB, *memdb.Client, int) {
		db, err := memdb.New(callproc.Schema(callproc.DefaultSchemaConfig()))
		must(err)
		c, err := db.Connect()
		must(err)
		ri, err := c.Alloc(callproc.TblRes, 1)
		must(err)
		return db, c, ri
	}
	db, c, ri := newDB()
	put("memdb.write_fld_ns", perOp(n, func(n int) {
		for i := 0; i < n; i++ {
			must(c.WriteFld(callproc.TblRes, ri, callproc.FldResQuality, uint32(i%101)))
		}
	}), "ns")
	put("memdb.read_fld_ns", perOp(n, func(n int) {
		for i := 0; i < n; i++ {
			v, err := c.ReadFld(callproc.TblRes, ri, callproc.FldResQuality)
			must(err)
			sink += uint64(v)
		}
	}), "ns")
	view := db.ReadView()
	put("memdb.view_read_fld_ns", perOp(n, func(n int) {
		for i := 0; i < n; i++ {
			v, err := view.ReadFld(callproc.TblRes, ri, callproc.FldResQuality)
			must(err)
			sink += uint64(v)
		}
	}), "ns")
	put("memdb.alloc_free_ns", perOp(n/4, func(n int) {
		for i := 0; i < n; i++ {
			r, err := c.Alloc(callproc.TblConn, 0)
			must(err)
			must(c.Free(callproc.TblConn, r))
		}
	}), "ns")

	// The audited API: every call also notifies the audit process over the
	// IPC queue, which the loop drains as the audit process would.
	adb, ac, ari := newDB()
	q, err := ipc.NewQueue(4096)
	must(err)
	adb.EnableAudit(q)
	put("memdb.write_fld_audited_ns", perOp(n, func(n int) {
		for i := 0; i < n; i++ {
			must(ac.WriteFld(callproc.TblRes, ari, callproc.FldResQuality, uint32(i%101)))
			if i%1024 == 1023 {
				sink += uint64(len(q.DrainAll()))
			}
		}
	}), "ns")
}

// auditPass: one full sweep per checker over the served region with every
// record active and every semantic loop closed, so a sweep does all its
// work and finds nothing.
func auditPass(put func(string, float64, string)) {
	const sweeps = 10
	db, err := memdb.New(servedSchema())
	must(err)
	c, err := db.Connect()
	must(err)
	for _, t := range []int{callproc.TblProc, callproc.TblConn, callproc.TblRes} {
		for i := 0; i < 4096; i++ {
			r, err := c.Alloc(t, i%callproc.ResourceBanks)
			must(err)
			must(c.WriteFld(t, r, 0, uint32(r))) // ConnID / ChannelID / ProcID = own index
		}
	}
	sem, err := audit.NewSemanticCheck(db, audit.Recovery{}, nil, callproc.CallLoop())
	must(err)
	checks := []struct {
		name string
		chk  audit.FullChecker
	}{
		{"audit.static_sweep_us", audit.NewStaticCheck(db, audit.Recovery{})},
		{"audit.structural_sweep_us", audit.NewStructuralCheck(db, audit.Recovery{})},
		{"audit.range_sweep_us", audit.NewRangeCheck(db, audit.Recovery{})},
		{"audit.semantic_sweep_us", sem},
	}
	for _, ck := range checks {
		put(ck.name, perOp(sweeps, func(n int) {
			for i := 0; i < n; i++ {
				if fs := ck.chk.CheckAll(); len(fs) != 0 {
					must(fmt.Errorf("%s: clean region produced %d findings, first: %+v", ck.name, len(fs), fs[0]))
				}
			}
		})/1e3, "us")
	}
}

func walPass(put func(string, float64, string), dir string) error {
	const n = 1000
	rec := wal.Record{Op: wal.OpWriteFld, Table: 3, Rec: 5, Field: 2, Vals: []uint32{42}}
	schema := callproc.Schema(callproc.DefaultSchemaConfig())

	// Append is timed in the state a serving log is in for all but its first
	// seconds: the in-memory tail ring that feeds replication is full, so
	// every append also evicts its oldest record. One Sync per repetition
	// keeps the file bounded in the page cache the same way on every run.
	appendDir := filepath.Join(dir, "append")
	cfg := wal.Config{Dir: appendDir, TailCap: 8192}
	log, err := wal.Open(cfg, 0)
	if err != nil {
		return err
	}
	for i := 0; i < cfg.TailCap; i++ {
		if _, err := log.Append(rec); err != nil {
			return err
		}
	}
	var ferr error
	put("wal.append_ns", perOp(n, func(n int) {
		for i := 0; i < n; i++ {
			if _, err := log.Append(rec); err != nil {
				ferr = err
			}
		}
		if err := log.Sync(); err != nil {
			ferr = err
		}
	}), "ns")
	// Since: the shipper's read of the newest 512 records from the tail ring.
	last := log.LastSeq()
	put("wal.since_us", perOp(n, func(n int) {
		for i := 0; i < n; i++ {
			blob, _, ok := log.Since(last-512, 0)
			if !ok {
				ferr = fmt.Errorf("wal.Since: tail ring lost the newest 512 records")
			}
			sink += uint64(len(blob))
		}
	})/1e3, "us")
	if err := log.Close(); err != nil {
		return err
	}
	if ferr != nil {
		return ferr
	}

	// Sync: one append + flush + fsync, the group commit of a single write.
	syncLog, err := wal.Open(wal.Config{Dir: filepath.Join(dir, "sync")}, 0)
	if err != nil {
		return err
	}
	put("wal.sync_us", perOp(40, func(n int) {
		for i := 0; i < n; i++ {
			if _, err := syncLog.Append(rec); err != nil {
				ferr = err
			}
			if err := syncLog.Sync(); err != nil {
				ferr = err
			}
		}
	})/1e3, "us")
	if err := syncLog.Close(); err != nil {
		return err
	}
	if ferr != nil {
		return ferr
	}

	seed, err := memdb.New(schema)
	if err != nil {
		return err
	}
	put("wal.apply_ns", perOp(20*n, func(n int) {
		for i := 0; i < n; i++ {
			if err := wal.Apply(seed, wal.Record{Op: wal.OpWriteFld, Table: 3, Rec: 5, Field: 2, Vals: []uint32{uint32(i % 101)}}); err != nil {
				ferr = err
			}
		}
	}), "ns")

	// Recover: start-up replay of the append log written above.
	wrote := cfg.TailCap + reps*n
	var replayed int
	nsPerRecover := perOp(1, func(int) {
		res, err := wal.Recover(appendDir, schema)
		if err != nil {
			ferr = err
			return
		}
		replayed = res.Replayed
	})
	if ferr != nil {
		return ferr
	}
	if replayed != wrote {
		return fmt.Errorf("wal.Recover replayed %d records, the log holds %d", replayed, wrote)
	}
	// ns per record is µs per thousand records.
	put("wal.recover_us_per_krec", nsPerRecover/float64(replayed), "us")
	return nil
}

func procPass(put func(string, float64, string)) {
	const n = 2000
	db, err := memdb.New(callproc.Schema(callproc.DefaultSchemaConfig()))
	must(err)
	c, err := db.Connect()
	must(err)
	ri, err := c.Alloc(callproc.TblRes, 0)
	must(err)
	reg := proc.NewRegistry()
	for _, b := range proc.Library() {
		_, err := reg.Load(b.Name, b.Source)
		must(err)
	}
	eng := proc.NewEngine()
	run := func(name string, args []uint32) float64 {
		p := reg.Get(name)
		return perOp(n, func(n int) {
			for i := 0; i < n; i++ {
				res := eng.Exec(p, c, args, 0)
				if res.Status != proc.StatusOK || len(res.Out) == 0 || res.Out[0] == 65535 {
					must(fmt.Errorf("%s: status %v out %v %s", name, res.Status, res.Out, res.Reason))
				}
				sink += res.Steps
			}
		}) / 1e3
	}
	put("proc.exec_res_touch_us", run("res_touch", []uint32{uint32(ri), 77}), "us")
	put("proc.exec_call_setup_us", run("call_setup", []uint32{1, 4242}), "us")

	// One VM step of a tight loop, bare and under PECOS assertions.
	const steps = 1_000_000
	const loop = "loop: addi r1, r1, 1\ncmpi r1, 0\nbne loop\nhalt"
	text, err := isa.Assemble(loop)
	must(err)
	m, err := vm.New(text, 1, vm.DefaultConfig(), nil)
	must(err)
	th := m.Thread(0)
	bare := perOp(steps, func(n int) {
		for i := 0; i < n; i++ {
			m.Step(th)
		}
	})
	prog, err := isa.AssembleWithInfo(loop)
	must(err)
	ins, err := pecos.Instrument(prog, pecos.DefaultOptions())
	must(err)
	pm, err := vm.New(ins.Text, 1, vm.DefaultConfig(), nil)
	must(err)
	pm.OnTrap = pecos.NewRuntime(ins).OnTrap
	pth := pm.Thread(0)
	checked := perOp(steps, func(n int) {
		for i := 0; i < n; i++ {
			pm.Step(pth)
		}
	})
	if m.Crashed() || pm.Crashed() {
		must(fmt.Errorf("vm step loop crashed"))
	}
	put("vm.step_ns", bare, "ns")
	put("vm.step_pecos_ns", checked, "ns")
	put("pecos.overhead_ratio", checked/bare, "ratio")
}

// obsPass: the two observability calls every request pays for.
func obsPass(put func(string, float64, string)) {
	const n = 1_000_000
	ring := trace.New().Ring("bench", 0)
	ev := trace.Event{Kind: trace.KindReqReply, Trace: 9, Op: "DBwrite_fld", Arg: 1234}
	put("trace.emit_ns", perOp(n, func(n int) {
		for i := 0; i < n; i++ {
			ring.Emit(ev)
		}
	}), "ns")
	h := metrics.NewRegistry().Histogram("bench", nil)
	put("metrics.observe_ns", perOp(n, func(n int) {
		for i := 0; i < n; i++ {
			h.Observe(int64(i&0xFFFF) << 4)
		}
	}), "ns")
	sink += h.Count()
}
