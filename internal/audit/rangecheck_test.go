package audit

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"repro/internal/memdb"
)

// Catalog layout offsets (memdb's layout.go) the damage below addresses.
const (
	catalogHdrSize = 8
	tableDescSize  = 20
	fieldDescSize  = 16
)

// damagedRangeRegion builds one damaged controller region; every call
// builds a byte-identical copy. It holds out-of-range active fields, a free
// record off its defaults, a field descriptor that lost its range flag, one
// whose range was widened, and a Process table descriptor whose field
// descriptors point at Process's own record array, so the rules come from
// record bytes the sweep itself repairs.
func damagedRangeRegion(t *testing.T) *memdb.DB {
	t.Helper()
	db := newTestDB(t)
	c, err := db.Connect()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []struct{ table, count int }{{tblProc, 4}, {tblConn, 6}, {tblRes, 4}} {
		for i := 0; i < n.count; i++ {
			if _, err := c.Alloc(n.table, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, w := range []struct {
		table, rec, field int
		v                 uint32
	}{
		{tblProc, 2, 0, 5},
		{tblConn, 0, 0, 99},    // ChannelID above its range
		{tblConn, 1, 2, 9},     // State above its range
		{tblConn, 2, 1, 12345}, // CallerID: no rule
		{tblConn, 5, 2, 3},     // freed below, keeping a non-default State
		{tblRes, 0, 1, 7},      // Status above its range, whose rule is dropped below
		{tblRes, 1, 0, 40},     // ProcID inside the widened range below
		{tblRes, 2, 0, 60},     // ProcID above even the widened range
	} {
		if err := c.WriteFld(w.table, w.rec, w.field, w.v); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Free(tblProc, 1); err != nil {
		t.Fatal(err)
	}
	raw := db.Raw()
	conn5, _ := db.TrueRecordOffset(tblConn, 5)
	raw[conn5+1] = memdb.StatusFree

	descFieldOff := func(ti int) int { return catalogHdrSize + tableDescSize*ti + 12 }
	fieldDesc := func(ti, fi int) int {
		return int(binary.LittleEndian.Uint32(raw[descFieldOff(ti):])) + fieldDescSize*fi
	}
	raw[fieldDesc(tblRes, 1)+1] = 0                                 // Resource.Status: no rule
	binary.LittleEndian.PutUint32(raw[fieldDesc(tblRes, 0)+8:], 50) // Resource.ProcID max 15 → 50
	proc0, _ := db.TrueRecordOffset(tblProc, 0)
	binary.LittleEndian.PutUint32(raw[descFieldOff(tblProc):], uint32(proc0))
	return db
}

// TestRangeSweepMatchesPerRecordChecks: a CheckAll pass, which decodes the
// rules once per table, must give the same findings and leave the same
// region as auditing every record of a second copy with CheckRecord, which
// decodes them per record.
func TestRangeSweepMatchesPerRecordChecks(t *testing.T) {
	swept, single := damagedRangeRegion(t), damagedRangeRegion(t)
	got := NewRangeCheck(swept, Recovery{}).CheckAll()

	rc := NewRangeCheck(single, Recovery{})
	var want []Finding
	for ti, spec := range single.Schema().Tables {
		if !spec.Dynamic {
			continue
		}
		for ri := 0; ri < spec.NumRecords; ri++ {
			want = append(want, rc.CheckRecord(ti, ri)...)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("CheckAll findings differ from per-record CheckRecord:\n got %v\nwant %v", got, want)
	}
	if !bytes.Equal(swept.Raw(), single.Raw()) {
		t.Error("CheckAll left a different region than per-record CheckRecord")
	}

	// The damage is visible in what was found: Process's rule dies with
	// the record it is decoded from, the dropped and the widened
	// Resource rules find nothing, the others reset and free.
	type key struct {
		table, rec, field int
		action            Action
	}
	var keys []key
	for _, f := range got {
		keys = append(keys, key{f.Table, f.Record, f.Field, f.Action})
	}
	wantKeys := []key{
		{tblProc, 0, 0, ActionReset}, {tblProc, 0, -1, ActionFree},
		{tblConn, 0, 0, ActionReset}, {tblConn, 0, -1, ActionFree},
		{tblConn, 1, 2, ActionReset}, {tblConn, 1, -1, ActionFree},
		{tblConn, 5, 2, ActionReset},
		{tblRes, 2, 0, ActionReset}, {tblRes, 2, -1, ActionFree},
	}
	if !reflect.DeepEqual(keys, wantKeys) {
		t.Errorf("findings %v, want %v", keys, wantKeys)
	}
}

// TestRangeRestoreHook drives the Restore hook with a fake log. Connection
// record 0 is written ChannelID 7 and State 3, then its ChannelID (and,
// in the partial case, its State) is corrupted out of range. A logged
// in-range value is restored and the record stays active; a logged value
// out of range, or a miss, resets the field and frees the record; in shadow
// mode the hook is never asked.
func TestRangeRestoreHook(t *testing.T) {
	type logged struct {
		v  uint32
		ok bool
	}
	cases := []struct {
		name       string
		log        map[int]logged // by field; absent is a miss
		stateBad   bool           // corrupt State as well as ChannelID
		detectOnly bool
		wantCalls  int
		wantActs   []Action
		wantChan   uint32
		wantActive bool
	}{
		{name: "in-range hit", log: map[int]logged{0: {7, true}}, wantCalls: 1,
			wantActs: []Action{ActionLogRestore}, wantChan: 7, wantActive: true},
		{name: "out-of-range hit", log: map[int]logged{0: {40, true}}, wantCalls: 1,
			wantActs: []Action{ActionReset, ActionFree}, wantChan: 0},
		{name: "miss", wantCalls: 1,
			wantActs: []Action{ActionReset, ActionFree}, wantChan: 0},
		{name: "partial", log: map[int]logged{0: {7, true}}, stateBad: true, wantCalls: 2,
			wantActs: []Action{ActionReset, ActionReset, ActionFree}, wantChan: 0},
		{name: "detect-only", log: map[int]logged{0: {7, true}}, detectOnly: true,
			wantActs: []Action{ActionNone}, wantChan: 99, wantActive: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db := newTestDB(t)
			c, err := db.Connect()
			if err != nil {
				t.Fatal(err)
			}
			ri, err := c.Alloc(tblConn, 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.WriteRec(tblConn, ri, []uint32{7, 1234, 3}); err != nil {
				t.Fatal(err)
			}
			if err := db.WriteFieldDirect(tblConn, ri, 0, 99); err != nil {
				t.Fatal(err)
			}
			if tc.stateBad {
				if err := db.WriteFieldDirect(tblConn, ri, 2, 77); err != nil {
					t.Fatal(err)
				}
			}
			rc := NewRangeCheck(db, Recovery{})
			rc.DetectOnly = tc.detectOnly
			calls := 0
			rc.Restore = func(table, rec, field int) (uint32, bool) {
				calls++
				if table != tblConn || rec != ri {
					t.Errorf("Restore asked for table %d record %d", table, rec)
				}
				l := tc.log[field]
				return l.v, l.ok
			}
			var acts []Action
			for _, f := range rc.CheckTable(tblConn) {
				acts = append(acts, f.Action)
			}
			if !reflect.DeepEqual(acts, tc.wantActs) {
				t.Errorf("actions %v, want %v", acts, tc.wantActs)
			}
			if calls != tc.wantCalls {
				t.Errorf("Restore called %d times, want %d", calls, tc.wantCalls)
			}
			if v, _ := db.ReadFieldDirect(tblConn, ri, 0); v != tc.wantChan {
				t.Errorf("ChannelID = %d, want %d", v, tc.wantChan)
			}
			if st, _ := db.StatusDirect(tblConn, ri); (st == memdb.StatusActive) != tc.wantActive {
				t.Errorf("status %d, want active=%v", st, tc.wantActive)
			}
		})
	}
}
