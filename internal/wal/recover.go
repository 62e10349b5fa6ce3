package wal

import (
	"errors"
	"fmt"
	"math"
	"os"
)

// ErrCorrupt wraps corruption detected while scanning a journal. Recover
// never returns it — corruption ends the valid prefix, and Cut cuts there —
// but sub-scanners use it to signal where the valid prefix ends.
var ErrCorrupt = errors.New("wal: corrupt record")

// Recovery is the result of scanning a journal directory: the newest
// snapshot (nil if none survived) and every record appended after it, in
// order. Tail records never include KindSnapshot.
type Recovery struct {
	// Snapshot is the blob of the newest snapshot record (DecodeSnapshot),
	// nil when the journal holds none.
	Snapshot []byte
	// Tail holds the records after the snapshot, oldest first.
	Tail []Record
	// Records counts every valid record scanned (snapshots included),
	// not just the post-snapshot tail.
	Records int
	// Segments counts the segment files scanned.
	Segments int
	// Truncated reports that a torn or corrupt tail ends the valid prefix.
	Truncated bool
	// TruncatedSegment/TruncatedOffset locate the cut: Cut truncates the
	// named segment to the offset and deletes any later segments.
	TruncatedSegment string
	TruncatedOffset  int64
	// End is the cursor just past the last valid record — the position a
	// replication client resumes from. Zero when the journal is empty.
	End Cursor
	// LastCRC is the stored checksum of the record ending at End (zero when
	// the journal is empty); the resume handshake presents it so the source
	// can prove the histories match before streaming.
	LastCRC uint32
	// SnapshotAt is the position of the frame Snapshot came from; zero when
	// the journal holds none.
	SnapshotAt Cursor

	nextSeq int
	// segBytes is the size of every segment left on disk after Cut, by
	// sequence number: with SnapshotAt, all that OpenRecovered's retention
	// index needs, so the journal is scanned once.
	segBytes map[int]int64
	// The cut plan (Cut): zero tails to trim, and segments to delete.
	dir  string
	trim map[string]int64
	drop []string
}

// Recover scans dir's segments in order and reconstructs the journal's
// logical state, writing nothing: the result describes dir as Cut leaves it.
// Corruption — a torn final write, a CRC mismatch, a bad header — does not
// fail recovery: it ends the valid prefix, and every later segment is to be
// deleted (records after a tear are not trustworthy even if individually
// well-formed). The zero tail of a segment that was active at a crash is not
// corruption: it ends the segment, unreported, and later segments stand.
func Recover(dir string) (*Recovery, error) {
	rec := &Recovery{segBytes: make(map[int]int64), dir: dir, trim: make(map[string]int64)}
	segs, err := segments(dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return rec, nil
		}
		return nil, err
	}
	rec.Segments = len(segs)
	for i, seg := range segs {
		n, err := segmentSeq(seg)
		if err != nil {
			return nil, err
		}
		if n >= rec.nextSeq {
			rec.nextSeq = n + 1
		}
		validEnd, scanErr := scanSegment(seg, n, rec)
		if validEnd > headerSize {
			rec.End = Cursor{Seg: n, Off: validEnd}
		}
		rec.segBytes[n] = validEnd
		if errors.Is(scanErr, errEndOfLog) {
			rec.trim[seg] = validEnd
			continue
		}
		if scanErr == nil {
			continue
		}
		if !errors.Is(scanErr, ErrCorrupt) {
			return nil, scanErr
		}
		rec.Truncated, rec.TruncatedSegment, rec.TruncatedOffset = true, seg, validEnd
		rec.drop = segs[i+1:]
		if validEnd <= headerSize {
			rec.drop = segs[i:] // nothing valid in it, maybe not even the header
			delete(rec.segBytes, n)
		}
		break
	}
	return rec, nil
}

// Cut, recovery's only write, makes dir what Recover reported: zero tails
// trimmed, the corrupt segment truncated to its valid prefix and synced (or
// removed), later segments deleted, the dir synced. A clean dir is left alone,
// and a second call deletes nothing: the fresh segment may reuse a name.
func (rec *Recovery) Cut() error {
	// A trimmed zero tail is not synced: zeros that come back after a crash
	// are trimmed again, and the segments after them stand either way.
	for seg, end := range rec.trim {
		if err := os.Truncate(seg, end); err != nil {
			return fmt.Errorf("wal: trimming preallocated tail: %w", err)
		}
	}
	if !rec.Truncated {
		return nil
	}
	// The cut is durable before anything is deleted or the fresh segment
	// exists: a lost truncation would show the next recovery the same tear,
	// and it would cut there again, deleting acknowledged records.
	if rec.TruncatedOffset > headerSize {
		if err := truncateSynced(rec.TruncatedSegment, rec.TruncatedOffset); err != nil {
			return fmt.Errorf("wal: truncating corrupt segment: %w", err)
		}
	}
	for ; len(rec.drop) > 0; rec.drop = rec.drop[1:] {
		if err := os.Remove(rec.drop[0]); err != nil {
			return fmt.Errorf("wal: removing corrupt segment: %w", err)
		}
	}
	return syncDir(rec.dir)
}

// truncateSynced truncates the file at path to size and fsyncs it.
func truncateSynced(path string, size int64) error {
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	err = f.Truncate(size)
	if err == nil {
		err = f.Sync()
	}
	return errors.Join(err, f.Close())
}

// scanSegment walks segment n at path, folding each valid record into rec,
// and returns the byte offset just past the last valid record. A corrupt or
// torn record yields an error wrapping ErrCorrupt; the offset then marks
// where the caller should truncate. That error is errEndOfLog exactly when
// nothing but preallocated zeros follows the offset.
func scanSegment(path string, n int, rec *Recovery) (validEnd int64, err error) {
	data, err := segmentFrames(path, 0, math.MaxInt64)
	if err != nil {
		return 0, err
	}
	return walkFrames(data, headerSize, func(off int64, _, payload []byte, crc uint32) error {
		r, err := DecodeRecord(payload)
		if err != nil {
			return fmt.Errorf("%w: %v in %s@%d", ErrCorrupt, err, path, off)
		}
		rec.fold(r, Cursor{Seg: n, Off: off})
		rec.LastCRC = crc
		return nil
	})
}

// fold applies the valid record at cursor at to the recovery state: a
// snapshot resets the tail (everything before it is superseded), anything
// else extends it.
func (rec *Recovery) fold(r Record, at Cursor) {
	rec.Records++
	if r.Kind == KindSnapshot {
		rec.Snapshot, rec.SnapshotAt = r.Snapshot, at
		rec.Tail = rec.Tail[:0]
		return
	}
	rec.Tail = append(rec.Tail, r)
}
