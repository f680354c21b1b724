package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"repro/internal/memdb"
)

// RecoverResult describes a completed recovery.
type RecoverResult struct {
	// DB is the rebuilt database: the schema's pristine image, overlaid
	// with the newest valid checkpoint, with the log tail replayed on top.
	DB *memdb.DB
	// CheckpointSeq is the sequence of the checkpoint used (0 if none).
	CheckpointSeq uint64
	// LastSeq is the sequence of the last replayed record (or the
	// checkpoint's, when the tail was empty).
	LastSeq uint64
	// Replayed counts records applied from the log tail.
	Replayed int
	// Skipped counts records that decoded but failed to apply.
	Skipped int
	// Truncated is true when a torn or corrupt record ended replay early
	// and the log was physically cut at that point.
	Truncated bool
}

// Recover rebuilds database state from dir: load the newest valid
// checkpoint into a fresh DB for schema (the pristine seed snapshot is
// preserved, so static-image reload recovery keeps working), then replay
// every log record past the checkpoint in sequence order. The first torn or
// corrupt record ends replay; the containing segment is truncated there and
// later segments are removed, so a subsequent Open never resurrects
// unreachable records. An empty or missing dir yields a pristine DB with
// LastSeq 0.
func Recover(dir string, schema memdb.Schema, opts ...memdb.Option) (*RecoverResult, error) {
	db, err := memdb.New(schema, opts...)
	if err != nil {
		return nil, err
	}
	res := &RecoverResult{DB: db}
	if _, err := os.Stat(dir); os.IsNotExist(err) {
		return res, nil
	}

	// Newest valid checkpoint wins; invalid ones are skipped, not fatal.
	ckpts := listFiles(dir, "ckpt-", ckptSuffix)
	for i := len(ckpts) - 1; i >= 0; i-- {
		body, seq, err := readCheckpoint(filepath.Join(dir, ckpts[i]))
		if err != nil {
			continue
		}
		if err := db.RestoreFrom(bytes.NewReader(body)); err != nil {
			continue
		}
		res.CheckpointSeq = seq
		res.LastSeq = seq
		break
	}

	for si, name := range listFiles(dir, "wal-", segSuffix) {
		path := filepath.Join(dir, name)
		buf, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("wal: read segment %s: %w", name, err)
		}
		dec := NewDecoder(buf)
		for {
			rec, err := dec.Next()
			if err != nil {
				if err == io.EOF {
					break
				}
				// Torn tail: cut the segment at the last good frame and
				// drop any later segments — their records are unreachable
				// past the tear.
				if terr := os.Truncate(path, int64(dec.Offset())); terr != nil {
					return nil, fmt.Errorf("wal: truncate %s: %w", name, terr)
				}
				res.Truncated = true
				for _, later := range listFiles(dir, "wal-", segSuffix)[si+1:] {
					os.Remove(filepath.Join(dir, later))
				}
				return res, nil
			}
			if rec.Seq <= res.LastSeq {
				continue // covered by the checkpoint (or a replayed duplicate)
			}
			if err := Apply(db, rec); err != nil {
				res.Skipped++
			} else {
				res.Replayed++
			}
			res.LastSeq = rec.Seq
		}
	}
	return res, nil
}

// readCheckpoint loads and validates one checkpoint file.
func readCheckpoint(path string) (body []byte, seq uint64, err error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	if len(buf) < 20 {
		return nil, 0, fmt.Errorf("wal: checkpoint %s truncated", path)
	}
	if m := binary.LittleEndian.Uint32(buf[0:4]); m != ckptMagic {
		return nil, 0, fmt.Errorf("wal: checkpoint %s bad magic %#x", path, m)
	}
	seq = binary.LittleEndian.Uint64(buf[4:12])
	n := int(binary.LittleEndian.Uint32(buf[12:16]))
	if len(buf) != 16+n+4 {
		return nil, 0, fmt.Errorf("wal: checkpoint %s length %d, want %d", path, len(buf), 16+n+4)
	}
	body = buf[16 : 16+n]
	crc := crc32.ChecksumIEEE(buf[4:16])
	crc = crc32.Update(crc, crc32.IEEETable, body)
	if got := binary.LittleEndian.Uint32(buf[16+n:]); got != crc {
		return nil, 0, fmt.Errorf("wal: checkpoint %s crc %#x, want %#x", path, got, crc)
	}
	return body, seq, nil
}

// replayOps maps each logged op to the memdb operation it repeats. The
// log's own numbering is its on-disk format and does not follow memdb's.
var replayOps = [opMax]memdb.Op{
	OpWriteRec: memdb.OpWriteRec,
	OpWriteFld: memdb.OpWriteFld,
	OpMove:     memdb.OpMove,
	OpAlloc:    memdb.OpAlloc,
	OpFree:     memdb.OpFree,
}

// Apply replays one record against db through memdb's one replay entry,
// DB.Replay. Audit repairs are deliberately never logged: replay from a
// clean checkpoint plus valid client operations reconstructs uncorrupted
// state, which is the whole point of recovering from the log rather than
// copying the region.
func Apply(db *memdb.DB, r Record) error {
	if r.Op < 1 || r.Op >= opMax {
		return fmt.Errorf("wal: unknown op %d", r.Op)
	}
	if r.Op == OpWriteFld && len(r.Vals) != 1 {
		return fmt.Errorf("wal: write-fld carries %d values", len(r.Vals))
	}
	return db.Replay(replayOps[r.Op], int(r.Table), int(r.Rec), int(r.Field), int(r.Aux), r.Vals)
}
