// Command dbserve exposes the audited controller database over TCP: it is
// the deployment face of internal/server, serving either a pristine
// controller-schema database or an image prepared by cmd/dbctl. While it
// serves, the audit process sweeps the live region between requests and the
// manager supervises it with heartbeats, exactly as in the simulator.
//
// Usage:
//
//	dbserve -addr :7420                         # pristine database
//	dbserve -addr :7420 -img db.img             # image built by dbctl
//	dbserve -addr :7420 -audit-period 250ms -queue 512
//	dbserve -addr :7420 -wal-dir wal/           # durable: recover, log, checkpoint
//	dbserve -addr :7421 -wal-dir wal2/ -replica-of 127.0.0.1:7420   # hot standby
//	dbserve -addr :7420 -shards 4 -wal-dir wal/ # sharded core: 4 cores, 4 WAL streams
//
// With -wal-dir the database is recovered from the newest checkpoint plus
// the operation-log tail (a torn final record is truncated), every
// acknowledged mutation — a wire write or a procedure's effect — is
// appended to the log (fsync batched on the core's clock), and
// shutdown writes a final certifying checkpoint. With -replica-of the node
// starts as a hot standby: it refuses sessions, replays the primary's log
// stream, runs the audits in shadow mode, and promotes itself to primary
// after -repl-fail-limit consecutive failed polls.
//
// The schema sizing flags (-config-records, -config-fields, -call-records)
// must match the ones the image was built with; they default to the same
// values as dbctl. SIGINT/SIGTERM trigger a drain-then-stop shutdown: open
// connections finish their in-flight requests, queued work executes, a
// final audit sweep certifies the region, and a stats summary is printed.
//
// With -shards N the database is striped across N cores of the one server —
// N regions each with its own turn, N audit schedulers, N WAL streams
// behind one front end; see internal/server. For N > 1 the WAL directory
// holds per-shard subdirectories (shard-0 ... shard-N-1) plus a "shards"
// marker file recording N; recovery runs the shards in parallel. The shard count
// is part of the durable layout: restart with the same -shards, and give a
// sharded standby the same -shards as its primary.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/callproc"
	"repro/internal/health"
	"repro/internal/memdb"
	"repro/internal/metrics"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/wal"
	"repro/internal/wire"
)

func main() {
	stop := make(chan struct{})
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		close(stop)
	}()
	if err := run(os.Args[1:], os.Stdout, nil, stop); err != nil {
		fmt.Fprintln(os.Stderr, "dbserve:", err)
		os.Exit(1)
	}
}

// run builds the database, serves it until stop closes (or a fatal accept
// error), and prints the final stats summary to out. When ready is
// non-nil, the bound address is delivered on it once the listener is up —
// the hook the tests use to serve on port 0.
func run(args []string, out io.Writer, ready chan<- string, stop <-chan struct{}) error {
	fs := flag.NewFlagSet("dbserve", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:7420", "listen address")
	metricsAddr := fs.String("metrics-addr", "", "serve metrics snapshots over HTTP on this address (GET /statsz, ?format=text for the line format)")
	img := fs.String("img", "", "serve this dbctl image instead of a pristine database")
	shards := fs.Int("shards", 1, "partition the database into N audited shards, each a core with its own turn, audit scheduler, and WAL stream")
	queue := fs.Int("queue", 0, "request queue depth (0 = default)")
	auditPeriod := fs.Duration("audit-period", time.Second, "periodic audit sweep interval; negative disables audits")
	injectPeriod := fs.Duration("inject-period", 0, "flip one random database bit per interval and journal the shot (fault-injection demo; 0 disables)")
	injectSeed := fs.Int64("inject-seed", 1, "fault injector RNG seed")
	procInjectPeriod := fs.Duration("proc-inject-period", 0, "flip one bit in a registered procedure's text segment per interval (PECOS live-load demo; 0 disables)")
	procInjectSeed := fs.Int64("proc-inject-seed", 1, "procedure text injector RNG seed")
	shutdownTimeout := fs.Duration("shutdown-timeout", 10*time.Second, "drain deadline on shutdown")
	walDir := fs.String("wal-dir", "", "operation-log directory: recover the database from it on start, log every mutation, checkpoint on shutdown")
	walSegment := fs.Int("wal-segment", 0, "WAL segment size cap in bytes (0 = default)")
	walCheckpoint := fs.Int64("wal-checkpoint", 0, "logged bytes between automatic checkpoints (0 = default, negative disables)")
	replicaOf := fs.String("replica-of", "", "start as a hot standby replicating from this primary address")
	serveReads := fs.Bool("serve-reads", false, "standby: answer routed reads (READ_REC/READ_FLD/STATUS) from the replica for a client-side read router")
	replPoll := fs.Duration("repl-poll", 100*time.Millisecond, "standby: replication poll interval")
	replFailLimit := fs.Int("repl-fail-limit", 10, "standby: consecutive poll failures before self-promotion (negative disables)")
	cfgRecords := fs.Int("config-records", 16, "schema: configuration records")
	cfgFields := fs.Int("config-fields", 4, "schema: configuration fields")
	callRecords := fs.Int("call-records", 24, "schema: records per call table")
	if err := fs.Parse(args); err != nil {
		return err
	}
	schema := callproc.Schema(callproc.SchemaConfig{
		ConfigRecords: *cfgRecords,
		ConfigFields:  *cfgFields,
		CallRecords:   *callRecords,
	})

	if *img != "" && *walDir != "" {
		return fmt.Errorf("-img and -wal-dir are mutually exclusive: the WAL recovery is the image")
	}
	if *shards < 1 {
		return fmt.Errorf("-shards must be at least 1, got %d", *shards)
	}
	if *shards > 1 && *img != "" {
		return fmt.Errorf("-img serves a single-region image; a sharded core starts pristine or recovers from -wal-dir")
	}

	// One region per shard; -shards 1 is the schema unchanged.
	schemas, err := memdb.ShardSchemas(schema, *shards)
	if err != nil {
		return err
	}
	dbs := make([]*memdb.DB, *shards)
	var walLogs []*wal.Log // one per shard when durable
	var rec *trace.Recorder
	switch {
	case *walDir != "":
		if err := checkShardMarker(*walDir, *shards); err != nil {
			return err
		}
		// Each shard stream recovers independently — its checkpoint plus its
		// log tail touch only its own stripe — so recovery runs them in
		// parallel and the wall-clock cost is the largest shard's, not the
		// region's.
		walLogs = make([]*wal.Log, *shards)
		results := make([]*wal.RecoverResult, *shards)
		errs := make([]error, *shards)
		var wg sync.WaitGroup
		for k := range dbs {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				dir := shardWALDir(*walDir, k, *shards)
				res, rerr := wal.Recover(dir, schemas[k])
				if rerr != nil {
					errs[k] = fmt.Errorf("%swal recover: %w", shardTag(k, *shards), rerr)
					return
				}
				results[k], dbs[k] = res, res.DB
				if walLogs[k], rerr = wal.Open(wal.Config{Dir: dir, SegmentCap: *walSegment}, res.LastSeq); rerr != nil {
					errs[k] = fmt.Errorf("%swal open: %w", shardTag(k, *shards), rerr)
				}
			}(k)
		}
		wg.Wait()
		for _, e := range errs {
			if e != nil {
				return e
			}
		}
		// Journal the recovery so a post-start TRACE shows how each region
		// came to be (Code 1 = a torn record was truncated).
		rec = trace.New()
		ring := rec.Ring("wal", 0)
		for k, res := range results {
			torn, code := "", int64(0)
			if res.Truncated {
				torn, code = " (torn tail truncated)", 1
			}
			fmt.Fprintf(out, "dbserve: %sWAL recovered from %s: checkpoint seq %d, replayed %d records to seq %d%s\n",
				shardTag(k, *shards), shardWALDir(*walDir, k, *shards), res.CheckpointSeq, res.Replayed, res.LastSeq, torn)
			ring.Emit(trace.Event{
				Kind: trace.KindWALRecover, Code: code, Op: fmt.Sprintf("shard-%d", k),
				Arg: int64(res.Replayed), Aux: int64(res.LastSeq),
			})
		}
	case *img != "":
		f, oerr := os.Open(*img)
		if oerr != nil {
			return oerr
		}
		dbs[0], err = memdb.NewFromImage(schema, f)
		f.Close()
		if err != nil {
			return err
		}
	default:
		for k := range dbs {
			if dbs[k], err = memdb.New(schemas[k]); err != nil {
				return err
			}
		}
	}

	// The listener is bound before the server exists so a standby names
	// itself to its primary by the real bound endpoint.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}

	cfg := server.Config{
		QueueDepth:       *queue,
		AuditPeriod:      *auditPeriod,
		InjectPeriod:     *injectPeriod,
		InjectSeed:       *injectSeed,
		ProcInjectPeriod: *procInjectPeriod,
		ProcInjectSeed:   *procInjectSeed,
		Trace:            rec,
		Standby:          *replicaOf != "",
		PrimaryAddr:      *replicaOf,
		ServeReads:       *serveReads,
		AdvertiseAddr:    ln.Addr().String(),
		ReplPoll:         *replPoll,
		ReplFailLimit:    *replFailLimit,
		CheckpointCap:    *walCheckpoint,
	}
	srv, err := server.NewSharded(dbs, walLogs, cfg)
	if err != nil {
		ln.Close()
		return err
	}
	if *shards > 1 {
		fmt.Fprintf(out, "dbserve: sharded core: %d shards, %d turns, %d audit schedulers\n",
			*shards, *shards, *shards)
	}
	if *replicaOf != "" {
		mode := ""
		if *serveReads {
			mode = ", serving routed reads"
		}
		fmt.Fprintf(out, "dbserve: hot standby of %s (poll %v, fail limit %d%s)\n",
			*replicaOf, *replPoll, *replFailLimit, mode)
	}
	if *injectPeriod > 0 {
		fmt.Fprintf(out, "dbserve: fault injector armed (one bit flip per %v, seed %d)\n",
			*injectPeriod, *injectSeed)
	}
	if *procInjectPeriod > 0 {
		fmt.Fprintf(out, "dbserve: procedure text injector armed (one flip per %v, seed %d)\n",
			*procInjectPeriod, *procInjectSeed)
	}

	if *metricsAddr != "" {
		mln, merr := net.Listen("tcp", *metricsAddr)
		if merr != nil {
			return fmt.Errorf("metrics listener: %w", merr)
		}
		hs := &http.Server{Handler: statszMux(srv)}
		go hs.Serve(mln)
		defer hs.Close()
		fmt.Fprintf(out, "dbserve: metrics on %s\n", mln.Addr())
	}

	fmt.Fprintf(out, "dbserve: serving on %s (audit period %v)\n", ln.Addr(), *auditPeriod)
	if ready != nil {
		ready <- ln.Addr().String()
	}

	go func() {
		<-stop
		srv.Shutdown(*shutdownTimeout)
	}()

	serveErr := srv.Serve(ln)
	// Serve returns on orderly shutdown or a fatal accept error; in the
	// latter case the server still needs draining before the summary.
	drainErr := srv.Shutdown(*shutdownTimeout)
	printSummary(out, srv.Stats())
	for k, wl := range walLogs {
		fmt.Fprintf(out, "  %swal synced through seq %d, checkpoint at seq %d\n",
			shardTag(k, *shards), wl.SyncedSeq(), wl.CheckpointSeq())
	}
	if serveErr != nil {
		return serveErr
	}
	return drainErr
}

// shardWALDir is shard k's stream directory under the WAL root: the root
// itself for an unsharded database, whose layout predates shards, else
// shard-<k>.
func shardWALDir(root string, k, n int) string {
	if n == 1 {
		return root
	}
	return filepath.Join(root, fmt.Sprintf("shard-%d", k))
}

// shardTag prefixes a per-shard log line ("shard 2: "); empty when there is
// one shard, whose lines keep their unsharded wording.
func shardTag(k, n int) string {
	if n == 1 {
		return ""
	}
	return fmt.Sprintf("shard %d: ", k)
}

// checkShardMarker enforces that a WAL directory's durable shard layout
// matches -shards. A sharded root carries a "shards" marker file with the
// count; an unsharded directory carries none. The marker is written on
// first sharded use.
func checkShardMarker(dir string, n int) error {
	path := filepath.Join(dir, "shards")
	data, err := os.ReadFile(path)
	if err == nil {
		got, perr := strconv.Atoi(strings.TrimSpace(string(data)))
		if perr != nil || got < 1 {
			return fmt.Errorf("wal dir %s: unreadable shards marker %q", dir, strings.TrimSpace(string(data)))
		}
		if got != n {
			return fmt.Errorf("wal dir %s was written with -shards=%d, started with -shards=%d", dir, got, n)
		}
		return nil
	}
	if !os.IsNotExist(err) {
		return err
	}
	if n == 1 {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, []byte(strconv.Itoa(n)+"\n"), 0o644)
}

// statszMux serves the server's observability endpoints: GET /statsz
// answers the metrics snapshot (the same document the wire STATS2 request
// returns; ?format=text for the line format, ?format=prom for the
// Prometheus text exposition with histogram buckets), GET /healthz the
// health plane's status document (?format=text for the line format;
// answers 503 when overall health is CRITICAL), GET /tracez the flight-
// recorder journal (?n= caps the event count, ?kind= filters by journal
// name like "req-reply" or "finding", ?format=text for the line format),
// and /debug/pprof/ the standard Go profiles.
func statszMux(srv *server.Server) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/statsz", func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Query().Get("format") {
		case "prom":
			// Prometheus needs the bucket arrays the compact snapshot
			// omits, so this path takes the full variant.
			w.Header().Set("Content-Type", metrics.PromContentType)
			srv.SnapshotMetricsFull().WriteProm(w)
		case "text":
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			srv.SnapshotMetrics().WriteText(w)
		default:
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			enc.Encode(srv.SnapshotMetrics())
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		st := srv.Health()
		// CRITICAL answers 503 so load balancers and smoke gates can act
		// on the status code alone; DEGRADED still serves, so it stays 200.
		code := http.StatusOK
		if st.State == health.Critical {
			code = http.StatusServiceUnavailable
		}
		if r.URL.Query().Get("format") == "text" {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			w.WriteHeader(code)
			st.WriteText(w)
			return
		}
		data, err := st.MarshalJSON()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		var buf bytes.Buffer
		if json.Indent(&buf, data, "", "  ") == nil {
			data = buf.Bytes()
		}
		w.Write(data)
		w.Write([]byte("\n"))
	})
	mux.HandleFunc("/tracez", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		n := 0
		if v := q.Get("n"); v != "" {
			parsed, err := strconv.Atoi(v)
			if err != nil || parsed < 0 {
				http.Error(w, "bad n: want a non-negative integer", http.StatusBadRequest)
				return
			}
			n = parsed
		}
		var kind trace.Kind
		if v := q.Get("kind"); v != "" {
			k, ok := trace.KindFromString(v)
			if !ok {
				http.Error(w, "unknown kind "+strconv.Quote(v), http.StatusBadRequest)
				return
			}
			kind = k
		}
		evs := srv.TraceEvents(kind, n)
		if q.Get("format") == "text" {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			trace.WriteText(w, evs)
			return
		}
		data, err := trace.EncodeJSON(evs)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(data)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func printSummary(out io.Writer, st server.Stats) {
	fmt.Fprintf(out, "dbserve: %d requests executed over %d connections (%d still open)\n",
		st.Executed, st.TotalConns, st.ActiveConns)
	for op := 0; op < wire.NumOps; op++ {
		s := st.PerOp[op]
		if s.OK == 0 && s.Errs == 0 {
			continue
		}
		fmt.Fprintf(out, "  %-14s ok=%-8d err=%d\n", wire.Op(op), s.OK, s.Errs)
	}
	fmt.Fprintf(out, "  request drops: %d (burst %d, queue high-water %d)\n",
		st.ReqDrops.Dropped, st.ReqDrops.Burst, st.ReqDrops.HighWater)
	fmt.Fprintf(out, "  audit: %d sweeps, %d findings, %d restarts, %d notifications dropped\n",
		st.Sweeps, st.AuditFindings, st.Restarts, st.AuditDrops.Dropped)
}
