package main

import (
	"fmt"
	"sort"

	"repro/internal/trace"
	"repro/internal/wire"
)

// journal is the cumulative tail of the server's flight recorder for the
// shot and finding kinds, keyed by recorder sequence: one TRACE reply holds
// only the newest events that fit a frame, so the driver polls while the
// injector runs and merges.
type journal map[uint64]trace.Event

// journalTail is how many events one poll asks for; a reply is cut to the
// frame limit server-side, which the poll interval stays well inside.
const journalTail = 512

func (j journal) poll(ctl *wire.Conn) error {
	for _, k := range []trace.Kind{trace.KindShot, trace.KindFinding} {
		doc, err := ctl.TraceJSON(int(k), journalTail)
		if err != nil {
			return fmt.Errorf("TRACE %v: %w", k, err)
		}
		evs, err := trace.DecodeJSON(doc)
		if err != nil {
			return err
		}
		for _, ev := range evs {
			j[ev.Seq] = ev
		}
	}
	return nil
}

// detection is the shot → finding join of one injection window.
type detection struct {
	shots    int
	unjoined int
	latMs    []float64 // ascending, one per joined shot
}

// join pairs every region shot whose sequence lies in (afterSeq, ∞) with
// the first finding that carries its trace ID. Both timestamps are the
// server recorder's clock, so the latency has no client clock in it.
func (j journal) join(afterSeq uint64) detection {
	evs := make([]trace.Event, 0, len(j))
	for _, ev := range j {
		evs = append(evs, ev)
	}
	sort.Slice(evs, func(a, b int) bool { return evs[a].Seq < evs[b].Seq })
	first := map[uint64]trace.Event{}
	for _, ev := range evs {
		if ev.Kind == trace.KindFinding && ev.Trace != 0 {
			if _, ok := first[ev.Trace]; !ok {
				first[ev.Trace] = ev
			}
		}
	}
	var d detection
	for _, ev := range evs {
		if ev.Kind != trace.KindShot || ev.Op != "dbflip" || ev.Seq <= afterSeq {
			continue
		}
		d.shots++
		f, ok := first[ev.Trace]
		if !ok || f.At < ev.At {
			d.unjoined++
			continue
		}
		d.latMs = append(d.latMs, float64(f.At-ev.At)/1e6)
	}
	sort.Float64s(d.latMs)
	return d
}

// maxSeq is the newest recorder sequence the journal holds.
func (j journal) maxSeq() uint64 {
	var m uint64
	for s := range j {
		if s > m {
			m = s
		}
	}
	return m
}
