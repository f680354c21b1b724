package inject

import (
	"errors"
	"time"

	"repro/internal/memdb"
	"repro/internal/sim"
)

// DBState tracks what ultimately happened to one database injection, with
// the Table 3 precedence: an error that impacted the client is Escaped even
// if an audit also found it later; otherwise an audit detection makes it
// Caught; anything else is latent at run end (the paper's "no effect").
type DBState int

// Database injection states.
const (
	// DBOutstanding: injected, fate undecided.
	DBOutstanding DBState = iota + 1
	// DBCaught: an audit finding covered the damaged bytes.
	DBCaught
	// DBEscaped: the client observed or was failed by the damage.
	DBEscaped
	// DBNoEffect: still latent when the run ended.
	DBNoEffect
)

// String returns the state name.
func (s DBState) String() string {
	switch s {
	case DBOutstanding:
		return "outstanding"
	case DBCaught:
		return "caught"
	case DBEscaped:
		return "escaped"
	case DBNoEffect:
		return "no-effect"
	default:
		return "unknown"
	}
}

// DBInjection is one bit flip into the database region.
type DBInjection struct {
	Offset int
	Bit    uint
	At     time.Duration
	State  DBState
	// DecidedAt is when the state left DBOutstanding.
	DecidedAt time.Duration
}

// DBInjector flips random bits in the database region (the §5.1 error
// process) and keeps the registry that the audit-effectiveness experiments
// classify against.
type DBInjector struct {
	db  *memdb.DB
	rng *sim.RNG
	// Extent, when non-nil, confines injections to a byte range — used
	// by the proportional error model of §5.3 (errors proportional to
	// table access frequency).
	Extent *memdb.Extent

	injections []*DBInjection
}

// NewDBInjector builds an injector over the database.
func NewDBInjector(db *memdb.DB, rng *sim.RNG) *DBInjector {
	return &DBInjector{db: db, rng: rng}
}

// InjectRandomBit flips one uniformly random bit (within the configured
// extent, if any) and registers the injection.
func (di *DBInjector) InjectRandomBit(now time.Duration) (*DBInjection, error) {
	off, length := 0, di.db.Size()
	if di.Extent != nil {
		off, length = di.Extent.Off, di.Extent.Len
	}
	if length <= 0 {
		return nil, errors.New("inject: empty injection extent")
	}
	pos, bit := RandomBit(di.rng, length)
	inj := &DBInjection{Offset: off + pos, Bit: bit, At: now, State: DBOutstanding}
	if err := di.db.FlipBit(inj.Offset, inj.Bit); err != nil {
		return nil, err
	}
	di.injections = append(di.injections, inj)
	return inj, nil
}

// Injections returns the registry (live pointers; states mutate).
func (di *DBInjector) Injections() []*DBInjection { return di.injections }

// MarkCaught transitions outstanding injections covered by [off, off+n) to
// DBCaught, returning how many. Escaped is terminal and never downgraded.
func (di *DBInjector) MarkCaught(off, n int, now time.Duration) int {
	return len(di.Mark(off, n, now, DBCaught))
}

// MarkEscaped transitions injections covered by [off, off+n) to DBEscaped,
// returning how many. Escape takes precedence: callers invoke it on
// client-observation events, which necessarily precede repair of those
// bytes.
func (di *DBInjector) MarkEscaped(off, n int, now time.Duration) int {
	return len(di.Mark(off, n, now, DBEscaped))
}

// Mark transitions every outstanding injection covered by [off, off+n) to
// the given state and returns them, letting callers attribute each (e.g.
// record which audit class caught it).
func (di *DBInjector) Mark(off, n int, now time.Duration, to DBState) []*DBInjection {
	if n <= 0 {
		n = 1
	}
	var marked []*DBInjection
	for _, inj := range di.injections {
		if inj.State != DBOutstanding {
			continue
		}
		if inj.Offset >= off && inj.Offset < off+n {
			inj.State = to
			inj.DecidedAt = now
			marked = append(marked, inj)
		}
	}
	return marked
}

// Finalize transitions every still-outstanding injection to DBNoEffect.
func (di *DBInjector) Finalize(now time.Duration) {
	for _, inj := range di.injections {
		if inj.State == DBOutstanding {
			inj.State = DBNoEffect
			inj.DecidedAt = now
		}
	}
}

// Tally counts injections by state.
func (di *DBInjector) Tally() map[DBState]int {
	out := make(map[DBState]int, 4)
	for _, inj := range di.injections {
		out[inj.State]++
	}
	return out
}

// DetectionLatencies returns the injection→decision delay of every caught
// injection — the §5.3 detection-latency metric.
func (di *DBInjector) DetectionLatencies() []time.Duration {
	var out []time.Duration
	for _, inj := range di.injections {
		if inj.State == DBCaught {
			out = append(out, inj.DecidedAt-inj.At)
		}
	}
	return out
}
