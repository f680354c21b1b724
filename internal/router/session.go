package router

import (
	"errors"
	"fmt"

	"repro/internal/wire"
)

// Session is one worker's traffic handle over the replica set: a
// session-bearing connection to the primary for writes (and reads no
// replica can serve), plus lazily dialed session-less read connections to
// the standbys. Like wire.Conn it is not safe for concurrent use — open
// one Session per worker goroutine; Sessions share the Router's health
// snapshot and counters.
type Session struct {
	rt          *Router
	primary     *wire.Conn
	primaryAddr string
	replicas    map[string]*wire.Conn
	token       uint64
	// pref is the session's sticky read replica: reads stay on one node
	// while it remains eligible (dense request stream per connection; no
	// per-read socket ping-pong), and the set balances because pickReplica
	// rotates which replica each session lands on.
	pref *target
	// prefReads counts reads served by the sticky replica since the last
	// pick; at prefAge the session re-picks, so a skew formed while only
	// one standby was eligible (e.g. the first to catch up to the lease
	// floor grabs every session) dissolves once the rest catch up.
	prefReads int
}

// prefAge is how many routed reads a session serves off one sticky
// replica before re-picking: long enough to keep each connection's
// request stream dense, short enough that the set re-balances within
// milliseconds under load.
const prefAge = 64

// primaryAttempts bounds the connect-call-failover retry loop of one
// primary call: enough to ride out one failover (dead conn, re-resolve,
// promoted standby), not enough to spin on a dead set.
const primaryAttempts = 3

// NewSession opens a session against the set's current primary.
func (rt *Router) NewSession() (*Session, error) {
	s := &Session{rt: rt, replicas: make(map[string]*wire.Conn)}
	if err := s.connectPrimary(); err != nil {
		return nil, err
	}
	return s, nil
}

// Close releases the primary session and every replica connection.
func (s *Session) Close() error {
	var err error
	if s.primary != nil {
		err = s.primary.CloseSession()
		s.dropPrimary()
	}
	for addr, c := range s.replicas {
		c.Close()
		delete(s.replicas, addr)
	}
	return err
}

// Token returns the session's current lease floor: the highest
// write-acknowledgement sequence any of its writes has returned.
func (s *Session) Token() uint64 { return s.token }

func (s *Session) connectPrimary() error {
	addr, err := s.rt.Primary()
	if err != nil {
		return err
	}
	c, err := wire.Dial(addr)
	if err != nil {
		return fmt.Errorf("router: dial primary %s: %w", addr, err)
	}
	c.Timeout = callTimeout
	if _, err := c.Init(); err != nil {
		c.Close()
		return fmt.Errorf("router: open session on %s: %w", addr, err)
	}
	s.primary, s.primaryAddr = c, addr
	return nil
}

func (s *Session) dropPrimary() {
	if s.primary != nil {
		s.primary.Close()
		s.primary = nil
	}
}

// noteToken folds the primary connection's latest write-acknowledgement
// token into the session lease floor. Monotonic across failovers: a fresh
// connection starts at zero, the session keeps its high-water mark.
func (s *Session) noteToken() {
	if s.primary == nil {
		return
	}
	if t := s.primary.LastToken(); t > s.token {
		s.token = t
	}
}

// primaryCall sends one request to the primary, reconnecting and
// re-resolving the primary (one probe sweep) on failover-class errors.
// Retried mutations follow the same at-least-once semantics as the
// failover-aware load client: the caller owns idempotence.
func (s *Session) primaryCall(q wire.Request) (wire.Response, error) {
	var lastErr error
	for attempt := 0; attempt < primaryAttempts; attempt++ {
		if s.primary == nil {
			if err := s.connectPrimary(); err != nil {
				lastErr = err
				s.rt.sweep()
				continue
			}
		}
		resp, err := s.primary.Call(q)
		if err != nil {
			s.dropPrimary()
			if !IsFailoverErr(err) {
				return wire.Response{}, err
			}
			lastErr = err
			s.rt.failovers.Add(1)
			s.rt.sweep()
			continue
		}
		if e := resp.Err(); e != nil && IsFailoverErr(e) {
			// The node answered but no longer serves (demoted, draining):
			// re-resolve and retry elsewhere.
			s.dropPrimary()
			lastErr = e
			s.rt.failovers.Add(1)
			s.rt.sweep()
			continue
		}
		s.noteToken()
		return resp, resp.Err()
	}
	return wire.Response{}, fmt.Errorf("router: primary unavailable after %d attempts: %w", primaryAttempts, lastErr)
}

// replicaConn returns the session's connection to t, dialing on first use.
func (s *Session) replicaConn(t *target) (*wire.Conn, error) {
	if c := s.replicas[t.addr]; c != nil {
		return c, nil
	}
	c, err := wire.Dial(t.addr)
	if err != nil {
		return nil, err
	}
	c.Timeout = callTimeout
	s.replicas[t.addr] = c
	return c, nil
}

func (s *Session) dropReplica(t *target) {
	if c := s.replicas[t.addr]; c != nil {
		c.Close()
		delete(s.replicas, t.addr)
	}
}

// read routes one read opcode: the session's sticky replica while it
// stays eligible, a fresh pick when it is not, the primary otherwise. A
// replica that fails mid-call drops out of routing (the probe loop
// revives it) and the read retries on the primary — routed reads never
// fail just because a replica died.
func (s *Session) read(q wire.Request) (wire.Response, error) {
	t, leasePinned := s.pref, false
	if t == nil || s.prefReads >= prefAge || !s.rt.eligible(t, s.token) {
		t, leasePinned = s.rt.pickReplica(s.token)
		s.pref, s.prefReads = t, 0
	}
	if t != nil {
		if s.token > 0 {
			lo, hi := wire.SplitU64(s.token)
			q.Vals = []uint32{lo, hi}
		}
		c, err := s.replicaConn(t)
		if err != nil {
			s.rt.noteReplicaDown(t)
			s.pref = nil
		} else {
			resp, cerr := c.Call(q)
			switch {
			case cerr != nil:
				s.dropReplica(t)
				s.rt.noteReplicaDown(t)
				s.pref = nil
			case resp.Code == wire.CodeStale:
				// The probe said caught-up but the live check disagreed
				// (probe staleness is one-sided): honor the lease on the
				// primary. Fold the refusal back into the snapshot — the
				// replica just proved it is below the floor — so the next
				// read re-picks instead of retrying a node known behind.
				if s.token > 0 && t.applied.Load() >= s.token {
					t.applied.Store(s.token - 1)
				}
				s.pref = nil
				s.rt.staleFallbacks.Add(1)
			case IsFailoverErr(resp.Err()) || errors.Is(resp.Err(), wire.ErrNoSession):
				// Role changed under us (e.g. the standby promoted and now
				// wants sessions); the next probe re-ranks it.
				s.rt.noteReplicaDown(t)
				s.pref = nil
			default:
				t.reads.Add(1)
				s.rt.replicaReads.Add(1)
				s.prefReads++
				return resp, resp.Err()
			}
		}
	} else if leasePinned {
		s.rt.leasePins.Add(1)
	}
	q.Vals = nil
	resp, err := s.primaryCall(q)
	if err == nil {
		s.rt.primaryReads.Add(1)
	}
	return resp, err
}

// Call routes one request by opcode, like the typed helpers below: reads
// fan out across the replica set under the session lease, everything else
// goes to the primary. The reply's code is folded into the error.
func (s *Session) Call(q wire.Request) (wire.Response, error) {
	switch q.Op {
	case wire.OpReadRec, wire.OpReadFld, wire.OpStatus:
		return s.read(q)
	}
	return s.primaryCall(q)
}

// ReadFld reads one field, routed across the replica set.
func (s *Session) ReadFld(table, rec, field int) (uint32, error) {
	r, err := s.read(wire.Request{Op: wire.OpReadFld, Table: int32(table), Record: int32(rec), Field: int32(field)})
	if err != nil {
		return 0, err
	}
	if len(r.Vals) != 1 {
		return 0, fmt.Errorf("%w: DBread_fld reply carries %d values", wire.ErrBadFrame, len(r.Vals))
	}
	return r.Vals[0], nil
}

// WriteRec writes all fields of a record on the primary.
func (s *Session) WriteRec(table, rec int, vals []uint32) error {
	_, err := s.primaryCall(wire.Request{Op: wire.OpWriteRec, Table: int32(table), Record: int32(rec), Vals: vals})
	return err
}

// WriteFld writes one field on the primary.
func (s *Session) WriteFld(table, rec, field int, v uint32) error {
	_, err := s.primaryCall(wire.Request{
		Op: wire.OpWriteFld, Table: int32(table), Record: int32(rec), Field: int32(field),
		Vals: []uint32{v},
	})
	return err
}

// Alloc claims a free record on the primary and returns its index.
func (s *Session) Alloc(table, group int) (int, error) {
	r, err := s.primaryCall(wire.Request{Op: wire.OpAlloc, Table: int32(table), Aux: int32(group)})
	if err != nil {
		return 0, err
	}
	if len(r.Vals) != 1 {
		return 0, fmt.Errorf("%w: DBalloc reply carries %d values", wire.ErrBadFrame, len(r.Vals))
	}
	return int(r.Vals[0]), nil
}
