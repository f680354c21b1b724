package inject

import (
	"repro/internal/memdb"
	"repro/internal/sim"
)

// RandomBit draws a uniformly random bit of an n-byte range: the byte
// offset first, then the bit within it. DBInjector, the mixed campaign and
// Uniform all draw through it, so one seed yields one shot stream wherever
// it is injected.
func RandomBit(rng *sim.RNG, n int) (off int, bit uint) {
	off = rng.Intn(n)
	return off, uint(rng.Intn(8))
}

// Uniform targets every bit of an n-byte region with equal probability.
type Uniform int

// Next draws the next fault's byte offset and bit; ok is always true.
func (n Uniform) Next(rng *sim.RNG) (off int, bit uint, ok bool) {
	off, bit = RandomBit(rng, int(n))
	return off, bit, true
}

// StaticWalk targets the static data the checksum audit covers, catalog
// excluded, so injection never turns live requests into catalog errors. It
// walks the extents with a stride coprime to their total length: consecutive
// shots land on distinct, non-adjacent bytes, each becomes its own damaged
// run for the static audit, and every shot joins exactly one finding.
type StaticWalk struct {
	extents []memdb.Extent
	total   int
	stride  int
	next    int
}

// NewStaticWalk builds the walk over db's non-catalog static extents.
func NewStaticWalk(db *memdb.DB) *StaticWalk {
	w := &StaticWalk{}
	for _, e := range db.StaticExtents() {
		if e.Name == "catalog" || e.Len <= 0 {
			continue
		}
		w.extents = append(w.extents, e)
		w.total += e.Len
	}
	if w.total > 0 {
		w.stride = 5
		for !coprime(w.stride, w.total) {
			w.stride++
		}
	}
	return w
}

// Next draws the walk's next byte and a random bit in it; ok is false when
// the region has no non-catalog static data.
func (w *StaticWalk) Next(rng *sim.RNG) (off int, bit uint, ok bool) {
	if w.total == 0 {
		return 0, 0, false
	}
	pos := (w.next * w.stride) % w.total
	w.next++
	for _, e := range w.extents {
		if pos < e.Len {
			return e.Off + pos, uint(rng.Intn(8)), true
		}
		pos -= e.Len
	}
	return 0, 0, false
}

// coprime reports whether a and b share no factor but 1 (Euclid).
func coprime(a, b int) bool {
	for b != 0 {
		a, b = b, a%b
	}
	return a == 1
}
