package inject

import "repro/internal/sim"

// TextFlipper corrupts a registered procedure's live text segment in place
// while real connections invoke it — the live-load counterpart of
// TextInjector's breakpoint-triggered offline model. There is no restore
// window: the flip persists until the registry reloads the pristine image,
// which is exactly the detection→recovery loop under test.
//
// Not safe for concurrent use with the text's execution; the server drives
// it from the turn holder between procedure executions.
type TextFlipper struct {
	rng *sim.RNG
	// Shots counts the flips applied.
	Shots int
}

// NewTextFlipper builds a flipper drawing addresses and bits from rng.
func NewTextFlipper(rng *sim.RNG) *TextFlipper {
	return &TextFlipper{rng: rng}
}

// Flip corrupts one word of text with a DATAInF single-bit error at an
// address drawn from candidates (a procedure's control words, or any
// address set the campaign targets). Returns the address and the XOR mask
// applied; ok is false when there is nothing to target.
func (f *TextFlipper) Flip(text []uint32, candidates []uint32) (addr, mask uint32, ok bool) {
	if len(candidates) == 0 {
		return 0, 0, false
	}
	addr = candidates[f.rng.Intn(len(candidates))]
	if int(addr) >= len(text) {
		return 0, 0, false
	}
	corrupted, err := Corrupt(DATAInF, f.rng, text, addr, text[addr])
	if err != nil {
		return 0, 0, false
	}
	mask = corrupted ^ text[addr]
	text[addr] = corrupted
	f.Shots++
	return addr, mask, true
}

// FlipAt corrupts the given bit of the given word — the deterministic
// variant used by targeted tests. ok is false when addr is out of range.
func (f *TextFlipper) FlipAt(text []uint32, addr uint32, bit uint) (mask uint32, ok bool) {
	if int(addr) >= len(text) || bit > 31 {
		return 0, false
	}
	mask = 1 << bit
	text[addr] ^= mask
	f.Shots++
	return mask, true
}
