// Package replica implements hot-standby replication over the WAL: a
// primary-side Shipper serving batches of framed log records from the
// in-memory tail ring, and a standby-side Applier that polls the primary,
// replays the batches as its region's single writer, and promotes itself when the
// primary stops answering.
//
// The paper assumes a fault-tolerant platform beneath the controller, and
// this package supplies its hot standby: a replayed copy that takes over
// when the primary is lost. The division of labor follows the paper's
// single-writer architecture: everything that touches a database region
// runs as that node's single writer (the Applier), while the
// Shipper serves replication reads entirely off the primary's turn,
// from the thread-safe tail ring, so shipping never steals cycles from
// call processing (resource isolation, Jiang et al.).
package replica

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/wal"
)

// ErrGap reports that the standby's position has fallen off the primary's
// tail ring; the standby must re-bootstrap from a snapshot.
var ErrGap = errors.New("replica: requested records fell off the primary's tail ring")

// maxBatch bounds one replication batch in bytes. It leaves headroom under
// wire.MaxDetail so a batch always fits one response frame.
const maxBatch = 24 * 1024

// PeerTTL is how long a standby stays "live" after its last poll. A peer
// that has not polled within the TTL stops holding back the lag floor; it
// re-registers on its next poll.
const PeerTTL = 5 * time.Second

// peerState is what the shipper remembers about one polling standby.
type peerState struct {
	acked uint64    // highest position this peer has acknowledged
	seen  time.Time // last poll arrival
}

// Shipper is the primary side: it serves WAL record batches to polling
// standbys and remembers each one's acknowledged position, so the health
// plane can see the slowest live replica. A replica set chains every
// standby off this one shipper: each poll carries the standby's own
// position, so per-peer progress falls out of the protocol. Safe from any
// goroutine — replication reads deliberately bypass the turn.
type Shipper struct {
	log  *wal.Log
	ring *trace.Ring // may be nil
	now  func() time.Time

	mu    sync.Mutex
	peers map[string]*peerState // keyed by the poller's own address ("" = anonymous poller)

	acked   atomic.Uint64 // highest position acknowledged by any standby
	batches atomic.Uint64
	bytes   atomic.Uint64
}

// NewShipper builds a shipper over the primary's log.
func NewShipper(log *wal.Log) *Shipper {
	return &Shipper{log: log, now: time.Now, peers: make(map[string]*peerState)}
}

// SetRing directs ship events into a trace ring.
func (s *Shipper) SetRing(r *trace.Ring) { s.ring = r }

// Serve answers one standby poll: records after afterSeq, up to the batch
// cap, as a framed blob. addr names the polling standby (its own serving
// address), so each peer's progress is kept apart. A poll is also an
// acknowledgement: afterSeq advances that peer's acked watermark
// monotonically (and the set-wide high-water mark). Returns ErrGap when
// afterSeq has been evicted from the tail ring.
func (s *Shipper) Serve(afterSeq uint64, addr string) (blob []byte, lastSeq uint64, err error) {
	s.mu.Lock()
	p := s.peers[addr]
	if p == nil {
		p = &peerState{}
		s.peers[addr] = p
	}
	if afterSeq > p.acked {
		p.acked = afterSeq
	}
	p.seen = s.now()
	s.mu.Unlock()
	for {
		cur := s.acked.Load()
		if afterSeq <= cur || s.acked.CompareAndSwap(cur, afterSeq) {
			break
		}
	}
	blob, lastSeq, ok := s.log.Since(afterSeq, maxBatch)
	if !ok {
		return nil, lastSeq, ErrGap
	}
	s.batches.Add(1)
	s.bytes.Add(uint64(len(blob)))
	if s.ring != nil && len(blob) > 0 {
		s.ring.Emit(trace.Event{Kind: trace.KindReplShip, Arg: int64(len(blob)), Aux: int64(lastSeq)})
	}
	return blob, lastSeq, nil
}

// Acked returns the highest log position any standby has acknowledged.
func (s *Shipper) Acked() uint64 { return s.acked.Load() }

// Peers returns how many standbys have polled within PeerTTL.
func (s *Shipper) Peers() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	cutoff := s.now().Add(-PeerTTL)
	n := 0
	for _, p := range s.peers {
		if !p.seen.Before(cutoff) {
			n++
		}
	}
	return n
}

// ackFloor returns the slowest live standby's acknowledged position and
// whether any standby is live at all.
func (s *Shipper) ackFloor() (uint64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cutoff := s.now().Add(-PeerTTL)
	floor, live := uint64(0), false
	for _, p := range s.peers {
		if p.seen.Before(cutoff) {
			continue
		}
		if !live || p.acked < floor {
			floor, live = p.acked, true
		}
	}
	return floor, live
}

// Lag returns how many log records the slowest live standby is behind the
// primary. With no live standby there is nothing to replicate to and the
// lag is zero — a fresh primary (or one whose replicas all died) is not
// "behind", it is alone; the repl.peers gauge carries that distinction.
func (s *Shipper) Lag() uint64 {
	floor, live := s.ackFloor()
	if !live {
		return 0
	}
	if last := s.log.LastSeq(); last > floor {
		return last - floor
	}
	return 0
}

// BindMetrics publishes the shipper's gauges into reg.
func (s *Shipper) BindMetrics(reg *metrics.Registry) {
	reg.GaugeFunc("repl.lag", func() int64 { return int64(s.Lag()) })
	reg.GaugeFunc("repl.acked", func() int64 { return int64(s.acked.Load()) })
	reg.GaugeFunc("repl.peers", func() int64 { return int64(s.Peers()) })
	reg.GaugeFunc("repl.ship.batches", func() int64 { return int64(s.batches.Load()) })
	reg.GaugeFunc("repl.ship.bytes", func() int64 { return int64(s.bytes.Load()) })
}
