package memdb

import "fmt"

// Logical-group chains. Tables declaring Groups > 0 carry an on-region
// directory of chain heads; active records are singly linked through the
// header adjacency index (§3.1.2: header fields contain "record
// identifiers and indexes of logically adjacent records"). DBmove
// manipulates exactly this structure. Chains are redundant with the
// per-record group field, which is what makes corrupted links repairable:
// the directory and links can always be rebuilt from the group labels.

// ErrNoGroups is returned for group-chain operations on tables without a
// group directory.
var ErrNoGroups = fmt.Errorf("memdb: table has no group directory")

// groupCount returns the schema's directory size for table ti.
func (db *DB) groupCount(ti int) int {
	if ti < 0 || ti >= len(db.schema.Tables) {
		return 0
	}
	return db.schema.Tables[ti].Groups
}

// checkGroup validates group as a logical-group label of table ti: an
// index into the table's chain directory, or, on a table without one, any
// value the record header's 16-bit group field can hold. DBalloc, DBmove
// and their log replays share it, so replay accepts every label the API
// acknowledged.
func (db *DB) checkGroup(ti, group int) error {
	if n := db.groupCount(ti); n > 0 {
		if group < 0 || group >= n {
			return &BoundsError{What: "group", Index: group, Limit: n}
		}
		return nil
	}
	if group < 0 || group > 0xFFFF {
		return &BoundsError{What: "group", Index: group, Limit: 0x10000}
	}
	return nil
}

// groupDirBase returns the region offset of table ti's directory.
func (db *DB) groupDirBase(ti int) (int, error) {
	if db.groupCount(ti) == 0 {
		return 0, fmt.Errorf("table %d: %w", ti, ErrNoGroups)
	}
	return db.tableOffs[ti], nil
}

// GroupDirExtent returns the byte range of table ti's chain directory.
func (db *DB) GroupDirExtent(ti int) (Extent, error) {
	base, err := db.groupDirBase(ti)
	if err != nil {
		return Extent{}, err
	}
	return Extent{
		Off:  base,
		Len:  groupDirSize(db.groupCount(ti)),
		Name: db.schema.Tables[ti].Name + ".groups",
	}, nil
}

// GroupHead returns the first record index of group g's chain, or -1 for
// an empty chain.
func (db *DB) GroupHead(ti, g int) (int, error) {
	base, err := db.groupDirBase(ti)
	if err != nil {
		return 0, err
	}
	if g < 0 || g >= db.groupCount(ti) {
		return 0, &BoundsError{What: "group", Index: g, Limit: db.groupCount(ti)}
	}
	h := int(getU16(db.region, base+2*g))
	if h == NilIndex {
		return -1, nil
	}
	return h, nil
}

// setGroupHead writes group g's chain head (NilIndex for empty).
func (db *DB) setGroupHead(ti, g, head int) error {
	base, err := db.groupDirBase(ti)
	if err != nil {
		return err
	}
	if g < 0 || g >= db.groupCount(ti) {
		return &BoundsError{What: "group", Index: g, Limit: db.groupCount(ti)}
	}
	putU16(db.region, base+2*g, uint16(head))
	return nil
}

// WalkGroup returns the record indexes on group g's chain in link order.
// The walk is bounded and cycle-guarded; a malformed chain returns what was
// reachable plus ok=false.
func (db *DB) WalkGroup(ti, g int) (records []int, ok bool, err error) {
	head, err := db.GroupHead(ti, g)
	if err != nil {
		return nil, false, err
	}
	n := db.schema.Tables[ti].NumRecords
	seen := make(map[int]bool, 8)
	cur := head
	for cur != -1 {
		if cur < 0 || cur >= n || seen[cur] {
			return records, false, nil
		}
		st, serr := db.StatusDirect(ti, cur)
		if serr != nil || st != StatusActive {
			return records, false, nil
		}
		off, oerr := db.TrueRecordOffset(ti, cur)
		if oerr != nil {
			return records, false, nil
		}
		h := decodeHeader(db.region, off)
		if h.GroupID != g {
			return records, false, nil
		}
		seen[cur] = true
		records = append(records, cur)
		if h.NextIdx == NilIndex {
			break
		}
		cur = h.NextIdx
	}
	return records, true, nil
}

// linkIntoGroup pushes record ri onto group g's chain head and stamps the
// record's group label.
func (db *DB) linkIntoGroup(ti, ri, g int) error {
	head, err := db.GroupHead(ti, g)
	if err != nil {
		return err
	}
	off, err := db.TrueRecordOffset(ti, ri)
	if err != nil {
		return err
	}
	putU16(db.region, off+4, uint16(g))
	next := NilIndex
	if head >= 0 {
		next = head
	}
	putU16(db.region, off+6, uint16(next))
	return db.setGroupHead(ti, g, ri)
}

// unlinkFromGroup removes record ri from its group chain (best effort: a
// record not actually on the chain, e.g. after link corruption, is left to
// the structural audit's rebuild).
func (db *DB) unlinkFromGroup(ti, ri int) error {
	off, err := db.TrueRecordOffset(ti, ri)
	if err != nil {
		return err
	}
	h := decodeHeader(db.region, off)
	g := h.GroupID
	if g < 0 || g >= db.groupCount(ti) {
		return nil // label out of range: nothing to unlink from
	}
	head, err := db.GroupHead(ti, g)
	if err != nil {
		return err
	}
	next := h.NextIdx
	nextVal := NilIndex
	if next != NilIndex {
		nextVal = next
	}
	if head == ri {
		if nextVal == NilIndex {
			return db.setGroupHead(ti, g, NilIndex)
		}
		return db.setGroupHead(ti, g, nextVal)
	}
	// Scan the chain for the predecessor, cycle-guarded.
	n := db.schema.Tables[ti].NumRecords
	cur := head
	for hops := 0; cur >= 0 && cur < n && hops <= n; hops++ {
		coff, err := db.TrueRecordOffset(ti, cur)
		if err != nil {
			return err
		}
		ch := decodeHeader(db.region, coff)
		if ch.NextIdx == ri {
			putU16(db.region, coff+6, uint16(nextVal))
			return nil
		}
		if ch.NextIdx == NilIndex {
			return nil // not on its chain: audit will rebuild
		}
		cur = ch.NextIdx
	}
	return nil
}

// GroupsConsistent verifies every chain of table ti: each chain must
// consist of active records carrying its group label, visited exactly
// once, and the union of all chains must cover every active record.
func (db *DB) GroupsConsistent(ti int) (bool, error) {
	groups := db.groupCount(ti)
	if groups == 0 {
		return true, fmt.Errorf("table %d: %w", ti, ErrNoGroups)
	}
	covered := make(map[int]bool)
	for g := 0; g < groups; g++ {
		records, ok, err := db.WalkGroup(ti, g)
		if err != nil {
			return false, err
		}
		if !ok {
			return false, nil
		}
		for _, ri := range records {
			if covered[ri] {
				return false, nil // shared between chains
			}
			covered[ri] = true
		}
	}
	for ri := 0; ri < db.schema.Tables[ti].NumRecords; ri++ {
		st, err := db.StatusDirect(ti, ri)
		if err != nil {
			return false, err
		}
		if st == StatusActive && !covered[ri] {
			return false, nil // active record on no chain
		}
	}
	return true, nil
}

// RebuildGroups reconstructs table ti's directory and links from the
// redundant per-record group labels — the recovery for corrupted adjacency
// state. Records whose label is out of range are freed (their group
// membership is unrecoverable). Returns the number of records relinked.
func (db *DB) RebuildGroups(ti int) (int, error) {
	groups := db.groupCount(ti)
	if groups == 0 {
		return 0, fmt.Errorf("table %d: %w", ti, ErrNoGroups)
	}
	defer db.mutate()()
	for g := 0; g < groups; g++ {
		if err := db.setGroupHead(ti, g, NilIndex); err != nil {
			return 0, err
		}
	}
	relinked := 0
	n := db.schema.Tables[ti].NumRecords
	// Iterate high→low so chains end up in ascending index order.
	for ri := n - 1; ri >= 0; ri-- {
		st, err := db.StatusDirect(ti, ri)
		if err != nil || st != StatusActive {
			continue
		}
		off, err := db.TrueRecordOffset(ti, ri)
		if err != nil {
			continue
		}
		g := decodeHeader(db.region, off).GroupID
		if g < 0 || g >= groups {
			if err := db.freeAt(ti, ri, off, nil); err != nil {
				return relinked, err
			}
			db.stamp(ti, ri, repairPID)
			continue
		}
		if err := db.linkIntoGroup(ti, ri, g); err != nil {
			return relinked, err
		}
		relinked++
	}
	return relinked, nil
}
