package server

import (
	"time"

	"repro/internal/health"
)

// The served objectives' bounds. detect-p99 and detect-watermark are bound
// by health.DetectBound, the detector's own overrun threshold.
const (
	maxShedRate            = 1   // request sheds per second
	maxAuditBehind         = 3   // periodic sweeps behind the audit scheduler's cadence
	maxHeartbeatMissPerMin = 1   // audit heartbeat misses per minute
	maxReplLag             = 512 // WAL records of replication lag
)

// buildHealthPlane assembles the health & SLO plane: the shot ledger every
// core's injector records into and its audit findings resolve against, the
// audit-debt meter every core's periodic element reports into, and the SLO
// evaluator over the serving, audit, and replication subsystems, each
// objective reading the cores in aggregate. Called once from NewSharded,
// before any core's clock starts, so every objective is declared before
// the first evaluation and the ledger exists before the first shot. The
// gauges ride STATS2.
func (s *Server) buildHealthPlane(debt *health.DebtMeter) {
	p := health.NewPlane(s.rec.Now)
	sum := func(per func(*core) uint64) func() float64 {
		return func() float64 {
			var t uint64
			for _, c := range s.cores {
				t += per(c)
			}
			return float64(t)
		}
	}

	// serving: request sheds per second at the cores' bounded admission.
	p.AddObjective(health.Objective{
		Name: "shed-rate", Subsystem: "serving", Bound: maxShedRate,
		Value: health.Rate(sum(func(c *core) uint64 { return c.reqDrops().Dropped }), time.Second),
	})

	// audit: is corruption still found fast enough, and are the periodic
	// schedulers keeping their own cadence?
	det := p.Detect()
	p.AddObjective(health.Objective{
		Name: "detect-p99", Subsystem: "audit",
		Bound: float64(health.DetectBound.Milliseconds()),
		Value: func(now time.Duration) float64 {
			return float64(det.Snapshot(now).P99.Milliseconds())
		},
	})
	p.AddObjective(health.Objective{
		Name: "detect-watermark", Subsystem: "audit",
		Bound: float64(health.DetectBound.Milliseconds()),
		Value: func(now time.Duration) float64 {
			return float64(det.Snapshot(now).OldestOpen.Milliseconds())
		},
	})
	if debt != nil {
		p.SetDebt(debt)
		p.AddObjective(health.Objective{
			Name: "audit-behind", Subsystem: "audit", Bound: maxAuditBehind,
			Value: func(time.Duration) float64 { return float64(debt.Behind()) },
		})
		p.AddObjective(health.Objective{
			Name: "heartbeat-miss", Subsystem: "audit", Bound: maxHeartbeatMissPerMin,
			Value: health.Rate(sum(func(c *core) uint64 { return c.hbMisses.Load() }), time.Minute),
		})
	}

	// replication: only when this node participates in replication at all.
	if c := s.cores[0]; c.shipper != nil || c.applier != nil {
		p.AddObjective(health.Objective{
			Name: "repl-lag", Subsystem: "replication", Bound: maxReplLag,
			Value: func(time.Duration) float64 { return float64(s.replLag()) },
		})
	}

	p.RegisterMetrics(s.reg)
	s.health = p
	// The plane evaluates on core 0's metrics refresh: every clock tick,
	// before STATS2 snapshots, and at drain.
	s.cores[0].onRefresh = p.Tick
}

// replLag is the role-aware lag estimate: a standby reports its own
// distance behind the primary (its appliers' estimate), a primary the
// distance of its slowest live standby (zero with no live peers — a lone
// primary is not "behind"); with several streams the worst one counts,
// because one stalled stream is one unrecoverable region. A WAL-backed
// standby also has a shipper, whose LastSeq grows with every applied record
// while no peer ever acks; reading the shipper there would charge the
// standby's entire log length against the primary-facing SLO — a false
// CRITICAL.
func (s *Server) replLag() uint64 {
	var worst uint64
	standby := s.standby.Load()
	for _, c := range s.cores {
		var v uint64
		if standby {
			if c.applier != nil {
				v = c.applier.Lag()
			}
		} else if c.shipper != nil {
			v = c.shipper.Lag()
		}
		if v > worst {
			worst = v
		}
	}
	return worst
}

// Health returns the current health status document, decorated with this
// node's replication role so /healthz and the HEALTH op attribute a
// read-serving standby's shadow-audit state to the standby rather than the
// primary's SLOs. Safe from any goroutine — the plane's state is read
// lock-free or under its own short locks, never under a turn.
func (s *Server) Health() health.Status {
	st := s.health.Status()
	if st.Role = roleTag(s.standby.Load(), s.cfg.ServeReads); st.Role == "" {
		st.Role = "primary"
	}
	return st
}
