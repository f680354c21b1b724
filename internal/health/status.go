package health

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// Status is the health document served by the HEALTH wire op, GET
// /healthz, and `dbctl health`.
type Status struct {
	State State `json:"state"`
	// Role is the node's replication role ("primary", "standby",
	// "standby-serving"), set by the server so a read-serving standby's
	// shadow-audit state is attributed to the standby, not misread as the
	// primary's. Empty when the node does not replicate.
	Role       string           `json:"role,omitempty"`
	Subsystems []Subsystem      `json:"subsystems"`
	Detection  *DetectionStatus `json:"detection,omitempty"`
	AuditDebt  *DebtStatus      `json:"audit_debt,omitempty"`
}

// Subsystem is one subsystem's state plus its objectives.
type Subsystem struct {
	Name       string            `json:"name"`
	State      State             `json:"state"`
	Objectives []ObjectiveStatus `json:"objectives"`
}

// ObjectiveStatus is one objective's latest evaluation.
type ObjectiveStatus struct {
	Name       string  `json:"name"`
	State      State   `json:"state"`
	Value      float64 `json:"value"`
	Bound      float64 `json:"bound"`
	ShortBurn  float64 `json:"short_burn"`
	LongBurn   float64 `json:"long_burn"`
	Violations uint64  `json:"violations"`
}

// DetectionStatus is the wire form of DetectionStats (milliseconds, so
// the JSON reads naturally).
type DetectionStatus struct {
	Joined       uint64  `json:"joined"`
	WindowJoined int     `json:"window_joined"`
	P50Ms        float64 `json:"p50_ms"`
	P99Ms        float64 `json:"p99_ms"`
	OpenShots    int     `json:"open_shots"`
	WatermarkMs  float64 `json:"watermark_ms"`
	Overruns     uint64  `json:"overruns"`
	Evicted      uint64  `json:"evicted,omitempty"`
}

// Status assembles the full health document: overall and per-subsystem
// states, the shot ledger, and (when attached) audit debt. It
// self-ticks a stale evaluator first, so the document is fresh even when
// the executor is saturated.
func (p *Plane) Status() Status {
	subs := p.eval.snapshot()
	st := Status{State: p.State(), Subsystems: subs}
	ds := p.det.Snapshot(p.now())
	st.Detection = &DetectionStatus{
		Joined:       ds.Joined,
		WindowJoined: ds.WindowJoined,
		P50Ms:        float64(ds.P50) / float64(time.Millisecond),
		P99Ms:        float64(ds.P99) / float64(time.Millisecond),
		OpenShots:    ds.OpenShots,
		WatermarkMs:  float64(ds.OldestOpen) / float64(time.Millisecond),
		Overruns:     ds.Overruns,
		Evicted:      ds.Evicted,
	}
	if p.debt != nil {
		st.AuditDebt = p.debt.Status()
	}
	return st
}

// MarshalJSON commits the document shape explicitly.
func (s Status) MarshalJSON() ([]byte, error) {
	type plain Status
	return json.Marshal(plain(s))
}

// ParseStatus decodes a Status document — the client half of the HEALTH
// wire op and /healthz.
func ParseStatus(data []byte) (Status, error) {
	var s Status
	if err := json.Unmarshal(data, &s); err != nil {
		return Status{}, fmt.Errorf("health: parse status: %w", err)
	}
	return s, nil
}

// WriteText renders the document as aligned human-readable lines — the
// /healthz?format=text and `dbctl health` body.
func (s Status) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "health: %s\n", s.State); err != nil {
		return err
	}
	if s.Role != "" {
		if _, err := fmt.Fprintf(w, "role: %s\n", s.Role); err != nil {
			return err
		}
	}
	for _, sub := range s.Subsystems {
		if _, err := fmt.Fprintf(w, "subsystem %-12s %s\n", sub.Name, sub.State); err != nil {
			return err
		}
		for _, o := range sub.Objectives {
			if _, err := fmt.Fprintf(w, "  %-18s %-9s value=%.2f bound=%.2f burn=%.2f/%.2f violations=%d\n",
				o.Name, o.State, o.Value, o.Bound, o.ShortBurn, o.LongBurn, o.Violations); err != nil {
				return err
			}
		}
	}
	if d := s.Detection; d != nil {
		if _, err := fmt.Fprintf(w,
			"detection: joined=%d window=%d p50=%.1fms p99=%.1fms open_shots=%d watermark=%.1fms overruns=%d\n",
			d.Joined, d.WindowJoined, d.P50Ms, d.P99Ms, d.OpenShots, d.WatermarkMs, d.Overruns); err != nil {
			return err
		}
	}
	if d := s.AuditDebt; d != nil {
		if _, err := fmt.Fprintf(w,
			"audit debt: behind=%d max_behind=%d sweeps=%d/%d elements=%d/%d overruns=%d last_gap=%.0fms\n",
			d.Behind, d.MaxBehind, d.SweepsCompleted, d.SweepsStarted,
			d.ElementsCompleted, d.ElementsScheduled, d.IntervalOverruns, d.LastGapMs); err != nil {
			return err
		}
		names := make([]string, 0, len(d.Elements))
		for n := range d.Elements {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			e := d.Elements[n]
			if _, err := fmt.Fprintf(w, "  %-18s scheduled=%d completed=%d\n", n, e.Scheduled, e.Completed); err != nil {
				return err
			}
		}
	}
	return nil
}
