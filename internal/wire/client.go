package wire

import (
	"bufio"
	"fmt"
	"net"
	"time"
)

// Conn is a synchronous client connection: one in-flight request at a time,
// sequence numbers checked on every reply. It is the client half used by
// cmd/dbload and the server's end-to-end tests; it is not safe for
// concurrent use (open one Conn per worker goroutine).
type Conn struct {
	nc    net.Conn
	br    *bufio.Reader
	bw    *bufio.Writer
	seq   uint32
	buf   []byte
	token uint64

	// Timeout bounds each call (write + reply read). Zero disables
	// deadlines.
	Timeout time.Duration
	// MaxFrame bounds accepted response payloads.
	MaxFrame int
}

// Dial connects to a dbserve endpoint.
func Dial(addr string) (*Conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewConn(nc), nil
}

// NewConn wraps an established connection.
func NewConn(nc net.Conn) *Conn {
	return &Conn{
		nc:       nc,
		br:       bufio.NewReader(nc),
		bw:       bufio.NewWriter(nc),
		Timeout:  10 * time.Second,
		MaxFrame: MaxFrame,
	}
}

// Close closes the underlying connection.
func (c *Conn) Close() error { return c.nc.Close() }

// Call sends one request and waits for its reply. The sequence number is
// assigned here; a reply with a mismatched sequence is a protocol error.
func (c *Conn) Call(q Request) (Response, error) {
	c.seq++
	q.Seq = c.seq
	if c.Timeout > 0 {
		if err := c.nc.SetDeadline(time.Now().Add(c.Timeout)); err != nil {
			return Response{}, err
		}
	}
	c.buf = AppendRequest(c.buf[:0], q)
	if err := WriteFrame(c.bw, c.buf); err != nil {
		return Response{}, fmt.Errorf("wire: send %v: %w", q.Op, err)
	}
	if err := c.bw.Flush(); err != nil {
		return Response{}, fmt.Errorf("wire: flush %v: %w", q.Op, err)
	}
	payload, err := ReadFrame(c.br, c.MaxFrame)
	if err != nil {
		return Response{}, fmt.Errorf("wire: recv %v: %w", q.Op, err)
	}
	r, err := ParseResponse(payload)
	if err != nil {
		return Response{}, err
	}
	if r.Seq != q.Seq {
		return Response{}, fmt.Errorf("%w: reply seq %d for request %d", ErrBadFrame, r.Seq, q.Seq)
	}
	c.noteToken(r)
	return r, nil
}

// noteToken retains the highest write-acknowledgement token seen on this
// connection; a WAL-backed primary stamps one onto every OK reply of a
// logged mutation, PROC replies included.
func (c *Conn) noteToken(r Response) {
	if t := r.Token(); t > c.token {
		c.token = t
	}
}

// LastToken returns the highest write-acknowledgement sequence token any
// reply on this connection has carried — the session's read-your-writes
// lease floor for a replica router. Zero means no acknowledged write yet
// (or a primary without a WAL, which stamps no tokens).
func (c *Conn) LastToken() uint64 { return c.token }

// call runs Call and folds the response code into the error.
func (c *Conn) call(q Request) (Response, error) {
	r, err := c.Call(q)
	if err != nil {
		return Response{}, err
	}
	return r, r.Err()
}

// Ping round-trips a no-op request.
func (c *Conn) Ping() error {
	_, err := c.call(Request{Op: OpPing})
	return err
}

// Init opens the database session (DBinit) and returns the server-side PID.
func (c *Conn) Init() (int, error) {
	r, err := c.call(Request{Op: OpInit})
	if err != nil {
		return 0, err
	}
	if len(r.Vals) != 1 {
		return 0, fmt.Errorf("%w: DBinit reply carries %d values", ErrBadFrame, len(r.Vals))
	}
	return int(r.Vals[0]), nil
}

// CloseSession closes the database session (DBclose) without closing the
// underlying connection.
func (c *Conn) CloseSession() error {
	_, err := c.call(Request{Op: OpClose})
	return err
}

// ReadRec reads all fields of a record (DBread_rec).
func (c *Conn) ReadRec(table, rec int) ([]uint32, error) {
	r, err := c.call(Request{Op: OpReadRec, Table: int32(table), Record: int32(rec)})
	if err != nil {
		return nil, err
	}
	return r.Vals, nil
}

// ReadFld reads one field (DBread_fld).
func (c *Conn) ReadFld(table, rec, field int) (uint32, error) {
	r, err := c.call(Request{Op: OpReadFld, Table: int32(table), Record: int32(rec), Field: int32(field)})
	if err != nil {
		return 0, err
	}
	if len(r.Vals) != 1 {
		return 0, fmt.Errorf("%w: DBread_fld reply carries %d values", ErrBadFrame, len(r.Vals))
	}
	return r.Vals[0], nil
}

// WriteRec writes all fields of a record (DBwrite_rec).
func (c *Conn) WriteRec(table, rec int, vals []uint32) error {
	_, err := c.call(Request{Op: OpWriteRec, Table: int32(table), Record: int32(rec), Vals: vals})
	return err
}

// WriteFld writes one field (DBwrite_fld).
func (c *Conn) WriteFld(table, rec, field int, v uint32) error {
	_, err := c.call(Request{
		Op: OpWriteFld, Table: int32(table), Record: int32(rec), Field: int32(field),
		Vals: []uint32{v},
	})
	return err
}

// Move reassigns a record to another logical group (DBmove).
func (c *Conn) Move(table, rec, group int) error {
	_, err := c.call(Request{Op: OpMove, Table: int32(table), Record: int32(rec), Aux: int32(group)})
	return err
}

// Alloc claims a free record of table into group and returns its index.
func (c *Conn) Alloc(table, group int) (int, error) {
	r, err := c.call(Request{Op: OpAlloc, Table: int32(table), Aux: int32(group)})
	if err != nil {
		return 0, err
	}
	if len(r.Vals) != 1 {
		return 0, fmt.Errorf("%w: DBalloc reply carries %d values", ErrBadFrame, len(r.Vals))
	}
	return int(r.Vals[0]), nil
}

// Free releases a record back to the table's free pool.
func (c *Conn) Free(table, rec int) error {
	_, err := c.call(Request{Op: OpFree, Table: int32(table), Record: int32(rec)})
	return err
}

// Begin opens a transaction lock on table.
func (c *Conn) Begin(table int) error {
	_, err := c.call(Request{Op: OpBegin, Table: int32(table)})
	return err
}

// Commit releases every transaction lock held by the session.
func (c *Conn) Commit() error {
	_, err := c.call(Request{Op: OpCommit})
	return err
}

// Status reports a record's header status byte.
func (c *Conn) Status(table, rec int) (int, error) {
	r, err := c.call(Request{Op: OpStatus, Table: int32(table), Record: int32(rec)})
	if err != nil {
		return 0, err
	}
	if len(r.Vals) != 1 {
		return 0, fmt.Errorf("%w: DBstatus reply carries %d values", ErrBadFrame, len(r.Vals))
	}
	return int(r.Vals[0]), nil
}

// Sweep forces one full audit sweep on the server and returns the number of
// findings it produced.
func (c *Conn) Sweep() (int, error) {
	r, err := c.call(Request{Op: OpSweep})
	if err != nil {
		return 0, err
	}
	if len(r.Vals) != 1 {
		return 0, fmt.Errorf("%w: Sweep reply carries %d values", ErrBadFrame, len(r.Vals))
	}
	return int(r.Vals[0]), nil
}

// Stats2 fetches the server's full metrics snapshot as a JSON document:
// per-opcode latency percentiles, audit check runtimes and findings, queue
// drop stats, and the memdb activity gauges. Decode it with
// metrics.ParseSnapshot.
func (c *Conn) Stats2() ([]byte, error) {
	r, err := c.call(Request{Op: OpStats2})
	if err != nil {
		return nil, err
	}
	if len(r.Detail) == 0 {
		return nil, fmt.Errorf("%w: Stats2 reply carries no document", ErrBadFrame)
	}
	return []byte(r.Detail), nil
}

// Health fetches the server's health & SLO document as JSON: the overall
// and per-subsystem OK/DEGRADED/CRITICAL states, objective values with
// error-budget burn rates, the online detection-latency tracker, and
// audit-debt accounting. Decode it with health.ParseStatus.
func (c *Conn) Health() ([]byte, error) {
	r, err := c.call(Request{Op: OpHealth})
	if err != nil {
		return nil, err
	}
	if len(r.Detail) == 0 {
		return nil, fmt.Errorf("%w: Health reply carries no document", ErrBadFrame)
	}
	return []byte(r.Detail), nil
}

// TraceJSON fetches the server's flight-recorder journal as a JSON array
// of trace events. kind filters to one event kind (0 = all kinds); n caps
// the result to the most recent n events (0 = server default). Decode it
// with trace.DecodeJSON. An empty journal decodes to zero events — it is
// not an error.
func (c *Conn) TraceJSON(kind, n int) ([]byte, error) {
	r, err := c.call(Request{Op: OpTrace, Table: int32(kind), Aux: int32(n)})
	if err != nil {
		return nil, err
	}
	return []byte(r.Detail), nil
}

// ReplState is the decoded OpReplStatus reply.
type ReplState struct {
	Role       int    // RolePrimary or RoleStandby
	LastSeq    uint64 // last WAL sequence appended on the queried node
	Applied    uint64 // standby: last applied; primary: standby's last acked
	ServeReads bool   // node answers routed reads (router extension)
	Lag        uint64 // node's own replication-lag estimate in records (router extension)
}

// ReplStatus queries a node's replication role and log positions. The
// serve-reads flag and lag estimate decode to their zero values against a
// node that predates the router extension.
func (c *Conn) ReplStatus() (ReplState, error) {
	r, err := c.call(Request{Op: OpReplStatus})
	if err != nil {
		return ReplState{}, err
	}
	if len(r.Vals) <= ReplAppliedHi {
		return ReplState{}, fmt.Errorf("%w: ReplStatus reply carries %d values", ErrBadFrame, len(r.Vals))
	}
	st := ReplState{
		Role:    int(r.Vals[ReplRole]),
		LastSeq: JoinU64(r.Vals[ReplLastLo], r.Vals[ReplLastHi]),
		Applied: JoinU64(r.Vals[ReplAppliedLo], r.Vals[ReplAppliedHi]),
	}
	if len(r.Vals) >= NumReplStatusVals {
		st.ServeReads = r.Vals[ReplServeReads] != 0
		st.Lag = JoinU64(r.Vals[ReplLagLo], r.Vals[ReplLagHi])
	}
	return st, nil
}

// ReplicateShard polls one WAL stream of the primary for records after
// afterSeq. shard rides the request's otherwise-unused Table field (zero on
// the wire is shard 0, so unsharded peers interoperate unchanged). addr is
// the poller's own serving address, by which the primary tells its peers
// apart for repl.peers and repl.lag. The returned blob is a batch of
// CRC-framed WAL records (possibly empty when caught up); lastSeq is the
// stream's log position. A wire.ErrReplGap error means afterSeq fell off the primary's
// tail ring and the standby must re-bootstrap with ReplSnapShard.
func (c *Conn) ReplicateShard(shard int, afterSeq uint64, addr string) (blob []byte, lastSeq uint64, err error) {
	lo, hi := SplitU64(afterSeq)
	r, err := c.call(Request{Op: OpReplicate, Table: int32(shard), Detail: addr, Vals: []uint32{lo, hi}})
	if err != nil {
		return nil, 0, err
	}
	if len(r.Vals) < 2 {
		return nil, 0, fmt.Errorf("%w: Replicate reply carries %d values", ErrBadFrame, len(r.Vals))
	}
	return []byte(r.Detail), JoinU64(r.Vals[0], r.Vals[1]), nil
}

// ReplSnapShard fetches one chunk of one shard's bootstrap snapshot
// starting at byte offset off; shard rides the request's otherwise-unused
// Table field. total is the full snapshot length and seq the WAL position
// the snapshot captured; both are constant across the chunks of one
// bootstrap.
func (c *Conn) ReplSnapShard(shard, off int) (chunk []byte, total int, seq uint64, err error) {
	r, err := c.call(Request{Op: OpReplSnap, Table: int32(shard), Record: int32(off)})
	if err != nil {
		return nil, 0, 0, err
	}
	if len(r.Vals) < 3 {
		return nil, 0, 0, fmt.Errorf("%w: ReplSnap reply carries %d values", ErrBadFrame, len(r.Vals))
	}
	return []byte(r.Detail), int(r.Vals[0]), JoinU64(r.Vals[1], r.Vals[2]), nil
}

// ProcExec runs the named server-side procedure with args and returns the
// values it emitted. A PECOS abort surfaces as ErrProcViolation; crashes,
// hangs, and commit rejections as ErrProcFault.
func (c *Conn) ProcExec(name string, args []uint32) ([]uint32, error) {
	r, err := c.call(Request{Op: OpProcExec, Detail: name, Vals: args})
	if err != nil {
		return nil, err
	}
	return r.Vals, nil
}

// ProcLoad registers source under name (assembled and PECOS-instrumented
// server-side) and returns the instrumented size, assertion-block count, and
// registry version.
func (c *Conn) ProcLoad(name, source string) (words, blocks, version int, err error) {
	r, err := c.call(Request{Op: OpProcLoad, Detail: name + "\n" + source})
	if err != nil {
		return 0, 0, 0, err
	}
	if len(r.Vals) != 3 {
		return 0, 0, 0, fmt.Errorf("%w: ProcLoad reply carries %d values", ErrBadFrame, len(r.Vals))
	}
	return int(r.Vals[0]), int(r.Vals[1]), int(r.Vals[2]), nil
}

// ProcList fetches the procedure registry inventory as a JSON document
// (decode with proc.DecodeInfos).
func (c *Conn) ProcList() ([]byte, error) {
	r, err := c.call(Request{Op: OpProcList})
	if err != nil {
		return nil, err
	}
	return []byte(r.Detail), nil
}

// InjectCtl retimes the server-side fault injectors at runtime: data is the
// region bit-flip period, proc the procedure text-flip period (zero stops
// the respective injector), and mode one of the InjectMode constants.
// Scenario timelines use it to ramp a fault storm mid-run and disarm it
// again for the quiesce phase.
func (c *Conn) InjectCtl(data, proc time.Duration, mode int) error {
	dlo, dhi := SplitU64(uint64(data))
	plo, phi := SplitU64(uint64(proc))
	_, err := c.call(Request{
		Op: OpInjectCtl, Aux: int32(mode),
		Vals: []uint32{dlo, dhi, plo, phi},
	})
	return err
}
