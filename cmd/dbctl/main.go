// Command dbctl is the controller-database operations tool: it creates,
// dumps, corrupts, audits, and repairs database images — the command-line
// face of the audit subsystem, in the spirit of the consistency-check
// utilities (Oracle's OdBit, Sybase's DBCC) the paper's related-work
// section contrasts the framework against.
//
// Usage:
//
//	dbctl -op init    -img db.img                 # create a pristine image
//	dbctl -op dump    -img db.img [-table 2]      # print catalog and records
//	dbctl -op corrupt -img db.img -offset 100 -bit 3
//	dbctl -op verify  -img db.img                 # run all audits, report only
//	dbctl -op repair  -img db.img                 # run all audits, write back
//
// The proc ops talk to a live dbserve instead of an image — they manage the
// server-side procedure registry:
//
//	dbctl -op proc-load -addr 127.0.0.1:7420 -name p -src prog.asm
//	dbctl -op proc-list -addr 127.0.0.1:7420
//	dbctl -op health    -addr 127.0.0.1:7420 [-format json]
//	dbctl -op repl-status -addr 127.0.0.1:7420,127.0.0.1:7421,127.0.0.1:7422
//	dbctl -op status    -addr 127.0.0.1:7420
//
// The status op prints a serving summary from the live metrics snapshot:
// one overall line (role, executed requests, connections, queue, shed,
// audit sweeps and findings), and — against a sharded core — one row per
// shard with its executor queue, shed counter, executed requests, audit
// findings, and restarts, read from the "shard.<k>." gauge namespace.
//
// The health op prints the server's health & SLO status document and exits
// nonzero when overall health is CRITICAL, so scripts can gate on it.
// repl-status takes a comma-separated -addr list — the whole replica set —
// and prints one row per node: role, applied sequence, lag, and whether
// the node answers routed reads.
//
// Images use the built-in controller schema; -config-records,
// -config-fields, and -call-records size it.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/audit"
	"repro/internal/callproc"
	"repro/internal/health"
	"repro/internal/memdb"
	"repro/internal/metrics"
	"repro/internal/proc"
	"repro/internal/wire"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dbctl:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("dbctl", flag.ContinueOnError)
	op := fs.String("op", "", "operation: init | dump | corrupt | verify | repair | proc-load | proc-list | health | repl-status | status")
	format := fs.String("format", "text", "health: output format, text | json")
	img := fs.String("img", "", "image file path")
	table := fs.Int("table", -1, "dump: restrict to one table")
	offset := fs.Int("offset", 0, "corrupt: region byte offset")
	bit := fs.Uint("bit", 0, "corrupt: bit index 0..7")
	addr := fs.String("addr", "", "proc ops: live dbserve address")
	name := fs.String("name", "", "proc-load: procedure name")
	src := fs.String("src", "", "proc-load: assembly source file")
	cfgRecords := fs.Int("config-records", 16, "schema: configuration records")
	cfgFields := fs.Int("config-fields", 4, "schema: configuration fields")
	callRecords := fs.Int("call-records", 24, "schema: records per call table")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// The networked ops bypass the image machinery entirely.
	switch *op {
	case "proc-load":
		return procLoad(*addr, *name, *src)
	case "proc-list":
		return procList(*addr)
	case "health":
		return healthOp(*addr, *format)
	case "repl-status":
		return replStatusOp(*addr)
	case "status":
		return statusOp(*addr)
	}
	if *img == "" {
		return fmt.Errorf("-img is required")
	}
	schema := callproc.Schema(callproc.SchemaConfig{
		ConfigRecords: *cfgRecords,
		ConfigFields:  *cfgFields,
		CallRecords:   *callRecords,
	})

	switch *op {
	case "init":
		db, err := memdb.New(schema)
		if err != nil {
			return err
		}
		return writeImage(db, *img)
	case "dump":
		db, err := loadImage(schema, *img)
		if err != nil {
			return err
		}
		return dump(db, *table)
	case "corrupt":
		db, err := loadImage(schema, *img)
		if err != nil {
			return err
		}
		if err := db.FlipBit(*offset, *bit); err != nil {
			return err
		}
		fmt.Printf("flipped bit %d of byte %d\n", *bit, *offset)
		return writeImage(db, *img)
	case "verify", "repair":
		db, err := loadImage(schema, *img)
		if err != nil {
			return err
		}
		// Verification must compare against a PRISTINE baseline, not the
		// (possibly corrupted) image we just loaded: rebuild the golden
		// state from the schema, exactly like the controller's permanent
		// configuration store.
		pristine, err := memdb.New(schema)
		if err != nil {
			return err
		}
		copy(db.SnapshotBytes(), pristine.SnapshotBytes())
		findings := runAudits(db)
		if len(findings) == 0 {
			fmt.Println("database consistent: no findings")
			return nil
		}
		for _, f := range findings {
			fmt.Println(f)
		}
		fmt.Printf("%d findings\n", len(findings))
		if *op == "repair" {
			if err := writeImage(db, *img); err != nil {
				return err
			}
			fmt.Println("repairs written back to image")
		}
		return nil
	default:
		return fmt.Errorf("unknown -op %q", *op)
	}
}

// runAudits executes the full audit stack over db. Its reload snapshot
// must already hold the pristine baseline; the static checksum's goldens
// are captured from it.
func runAudits(db *memdb.DB) []audit.Finding {
	var findings []audit.Finding
	rec := audit.Recovery{OnFinding: func(f audit.Finding) { findings = append(findings, f) }}
	checks := []audit.FullChecker{
		audit.NewStaticCheck(db, rec),
		audit.NewStructuralCheck(db, rec),
		audit.NewRangeCheck(db, rec),
	}
	sem, err := audit.NewSemanticCheck(db, rec, nil, callproc.CallLoop())
	if err == nil {
		sem.GraceAge = 0
		sem.TerminateOwners = false
		checks = append(checks, sem)
	}
	for _, c := range checks {
		c.CheckAll()
	}
	return findings
}

func loadImage(schema memdb.Schema, path string) (*memdb.DB, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return memdb.NewFromImage(schema, f)
}

func writeImage(db *memdb.DB, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := db.WriteImage(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func dump(db *memdb.DB, only int) error {
	schema := db.Schema()
	fmt.Printf("region: %d bytes, %d tables\n", db.Size(), len(schema.Tables))
	for ti, t := range schema.Tables {
		if only >= 0 && ti != only {
			continue
		}
		ext, err := db.TableExtent(ti)
		if err != nil {
			return err
		}
		kind := "static"
		if t.Dynamic {
			kind = "dynamic"
		}
		fmt.Printf("\ntable %d %q (%s): %d records × %d fields, extent [%d,%d)\n",
			ti, t.Name, kind, t.NumRecords, len(t.Fields), ext.Off, ext.Off+ext.Len)
		active := 0
		for ri := 0; ri < t.NumRecords; ri++ {
			st, err := db.StatusDirect(ti, ri)
			if err != nil || st != memdb.StatusActive {
				continue
			}
			active++
			off, _ := db.TrueRecordOffset(ti, ri)
			h := db.HeaderAt(off)
			fmt.Printf("  rec %3d group=%d next=%d fields=[", ri, h.GroupID, h.NextIdx)
			for fi := range t.Fields {
				v, _ := db.ReadFieldDirect(ti, ri, fi)
				if fi > 0 {
					fmt.Print(" ")
				}
				fmt.Print(v)
			}
			fmt.Println("]")
		}
		fmt.Printf("  %d active records\n", active)
	}
	return nil
}

// procLoad registers an assembly source file as a named server-side
// procedure on a live dbserve.
func procLoad(addr, name, srcPath string) error {
	if addr == "" || name == "" || srcPath == "" {
		return fmt.Errorf("proc-load requires -addr, -name, and -src")
	}
	source, err := os.ReadFile(srcPath)
	if err != nil {
		return err
	}
	c, err := wire.Dial(addr)
	if err != nil {
		return err
	}
	defer c.Close()
	words, blocks, version, err := c.ProcLoad(name, string(source))
	if err != nil {
		return err
	}
	fmt.Printf("loaded %s: %d words, %d assertion blocks, version %d\n",
		name, words, blocks, version)
	return nil
}

// healthOp fetches and prints a live dbserve's health status document.
// Exit is nonzero (an error) when overall health is CRITICAL, so shell
// gates can rely on the status code alone.
func healthOp(addr, format string) error {
	if addr == "" {
		return fmt.Errorf("health requires -addr")
	}
	c, err := wire.Dial(addr)
	if err != nil {
		return err
	}
	defer c.Close()
	doc, err := c.Health()
	if err != nil {
		return err
	}
	st, err := health.ParseStatus(doc)
	if err != nil {
		return err
	}
	switch format {
	case "json":
		var buf bytes.Buffer
		if json.Indent(&buf, doc, "", "  ") != nil {
			buf.Reset()
			buf.Write(doc)
		}
		fmt.Println(buf.String())
	case "text":
		if err := st.WriteText(os.Stdout); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown -format %q: want text or json", format)
	}
	if st.State == health.Critical {
		return fmt.Errorf("overall health is critical")
	}
	return nil
}

// replStatusOp queries every node of a comma-separated -addr list and
// prints one aligned row per node: role, applied sequence, lag in
// records, and whether the node answers routed reads. Unreachable nodes
// get a diagnostic row; the op only fails when no node answered at all.
func replStatusOp(addrs string) error {
	if addrs == "" {
		return fmt.Errorf("repl-status requires -addr")
	}
	fmt.Printf("%-24s %-16s %12s %12s %8s %s\n",
		"ADDR", "ROLE", "LAST", "APPLIED", "LAG", "SERVE-READS")
	answered := 0
	for _, addr := range strings.Split(addrs, ",") {
		addr = strings.TrimSpace(addr)
		if addr == "" {
			continue
		}
		st, err := fetchReplStatus(addr)
		if err != nil {
			fmt.Printf("%-24s unreachable: %v\n", addr, err)
			continue
		}
		answered++
		role := "primary"
		if st.Role == wire.RoleStandby {
			role = "standby"
		}
		serves := "no"
		if st.ServeReads {
			serves = "yes"
		}
		fmt.Printf("%-24s %-16s %12d %12d %8d %s\n",
			addr, role, st.LastSeq, st.Applied, st.Lag, serves)
	}
	if answered == 0 {
		return fmt.Errorf("no node in %q answered", addrs)
	}
	return nil
}

func fetchReplStatus(addr string) (wire.ReplState, error) {
	c, err := wire.Dial(addr)
	if err != nil {
		return wire.ReplState{}, err
	}
	defer c.Close()
	return c.ReplStatus()
}

// statusOp prints a serving summary from a live dbserve's metrics
// snapshot: one overall line, then — when the server is a sharded core —
// one row per shard from the "shard.<k>." gauge namespace, so a
// hot-spotted or shedding stripe shows up without scraping /statsz.
func statusOp(addr string) error {
	if addr == "" {
		return fmt.Errorf("status requires -addr")
	}
	c, err := wire.Dial(addr)
	if err != nil {
		return err
	}
	defer c.Close()
	doc, err := c.Stats2()
	if err != nil {
		return err
	}
	snap, err := metrics.ParseSnapshot(doc)
	if err != nil {
		return err
	}
	role := "primary"
	if snap.Gauges["repl.role"] == int64(wire.RoleStandby) {
		role = "standby"
	}
	fmt.Printf("%s: role=%s executed=%d conns=%d/%d queue=%d/%d shed=%d sweeps=%d findings=%d\n",
		addr, role,
		snap.Gauges["server.executed"],
		snap.Gauges["server.conns.active"], snap.Gauges["server.conns.total"],
		snap.Gauges["server.queue.depth"], snap.Gauges["server.queue.capacity"],
		snap.Gauges["server.queue.dropped"],
		snap.Counters["audit.sweeps"],
		snap.Gauges["server.audit.findings"])
	n := 0
	for {
		if _, ok := snap.Gauges[fmt.Sprintf("shard.%d.server.queue.depth", n)]; !ok {
			break
		}
		n++
	}
	if n == 0 {
		fmt.Println("shards: none (single core)")
		return nil
	}
	fmt.Printf("shards: %d\n", n)
	fmt.Printf("  %-5s %12s %8s %10s %9s %9s\n",
		"SHARD", "QUEUE", "SHED", "EXECUTED", "FINDINGS", "RESTARTS")
	for k := 0; k < n; k++ {
		g := func(name string) int64 {
			return snap.Gauges[fmt.Sprintf("shard.%d.%s", k, name)]
		}
		fmt.Printf("  %-5d %7d/%-4d %8d %10d %9d %9d\n",
			k, g("server.queue.depth"), g("server.queue.capacity"),
			g("server.queue.dropped"), g("server.executed"),
			g("server.audit.findings"), g("server.audit.restarts"))
	}
	return nil
}

// procList prints a live dbserve's procedure registry inventory.
func procList(addr string) error {
	if addr == "" {
		return fmt.Errorf("proc-list requires -addr")
	}
	c, err := wire.Dial(addr)
	if err != nil {
		return err
	}
	defer c.Close()
	data, err := c.ProcList()
	if err != nil {
		return err
	}
	infos, err := proc.DecodeInfos(data)
	if err != nil {
		return err
	}
	fmt.Printf("%-16s %6s %7s %5s %8s %6s %11s %7s %8s\n",
		"NAME", "WORDS", "BLOCKS", "CFIS", "VERSION", "EXECS", "VIOLATIONS", "FAULTS", "RELOADS")
	for _, in := range infos {
		fmt.Printf("%-16s %6d %7d %5d %8d %6d %11d %7d %8d\n",
			in.Name, in.Words, in.Blocks, in.CFIs, in.Version,
			in.Execs, in.Violations, in.Faults, in.Reloads)
	}
	return nil
}
