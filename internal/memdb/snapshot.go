package memdb

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// Live-state snapshots. image.go persists and restores the pristine seed
// image only; checkpoints and replica bootstrap need the *current* region —
// active calls included — captured consistently. Because DB is single-writer,
// consistency is free as long as the region's single writer takes the
// snapshot, which guardEnter enforces when the concurrency check is armed.
//
// Snapshot format: magic "MDBS" u32 | layout CRC u32 | length u32 | region.
// The layout CRC fingerprints the schema (CRC32 of the pristine catalog
// bytes), so a snapshot can never be restored into a database built for a
// different schema, even one with an identical region length.
const snapMagic = 0x4D444253 // "MDBS"

// snapHeaderSize is the fixed snapshot header length in bytes.
const snapHeaderSize = 12

// LayoutCRC returns the schema fingerprint embedded in live snapshots: the
// CRC32 of the pristine catalog extent.
func (db *DB) LayoutCRC() uint32 {
	e := db.CatalogExtent()
	return crc32.ChecksumIEEE(db.snapshot[e.Off : e.Off+e.Len])
}

// SnapshotInto serializes the current region — live state, not the pristine
// seed — to w. Must be called by the region's single writer; the concurrency guard
// treats it like any other API entry.
func (db *DB) SnapshotInto(w io.Writer) error {
	defer db.guardEnter("SnapshotInto")()
	var hdr [snapHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], snapMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], db.LayoutCRC())
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(len(db.region)))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("memdb: write snapshot header: %w", err)
	}
	if _, err := w.Write(db.region); err != nil {
		return fmt.Errorf("memdb: write snapshot body: %w", err)
	}
	return nil
}

// RestoreFrom replaces the live region with a snapshot previously produced
// by SnapshotInto on a database of the identical schema. The pristine seed
// snapshot is left untouched, so static-extent reload recovery keeps its
// ground truth. Every shadow record version is bumped, invalidating any
// in-flight audit of pre-restore state. Must be called by the region's
// single writer. On error the region is unchanged.
func (db *DB) RestoreFrom(r io.Reader) error {
	defer db.guardEnter("RestoreFrom")()
	var hdr [snapHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return fmt.Errorf("memdb: read snapshot header: %w", err)
	}
	if m := binary.LittleEndian.Uint32(hdr[0:4]); m != snapMagic {
		return fmt.Errorf("memdb: bad snapshot magic %#x", m)
	}
	if c := binary.LittleEndian.Uint32(hdr[4:8]); c != db.LayoutCRC() {
		return fmt.Errorf("memdb: snapshot layout CRC %#x does not match schema %#x", c, db.LayoutCRC())
	}
	if n := int(binary.LittleEndian.Uint32(hdr[8:12])); n != len(db.region) {
		return fmt.Errorf("memdb: snapshot length %d does not match region %d", n, len(db.region))
	}
	// Stage into a scratch buffer so a short read cannot leave the region
	// half-replaced, and validate the catalog before committing.
	buf := make([]byte, len(db.region))
	if _, err := io.ReadFull(r, buf); err != nil {
		return fmt.Errorf("memdb: read snapshot body: %w", err)
	}
	for ti := range db.schema.Tables {
		if _, err := readTableDesc(buf, ti); err != nil {
			return fmt.Errorf("memdb: snapshot catalog invalid: %w", err)
		}
	}
	func() {
		defer db.mutate()()
		copy(db.region, buf)
	}()
	for ti := range db.shadow.records {
		for ri := range db.shadow.records[ti] {
			db.shadow.records[ti][ri].Version++
		}
	}
	return nil
}
