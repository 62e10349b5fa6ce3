package wal

import (
	"errors"
	"fmt"
	"math"
	"os"
)

// ErrCorrupt wraps corruption detected while scanning a journal. Recover
// never returns it — corruption truncates — but sub-scanners use it to
// signal where the valid prefix ends.
var ErrCorrupt = errors.New("wal: corrupt record")

// Recovery is the result of scanning a journal directory: the newest
// snapshot (nil if none survived) and every record appended after it, in
// order. Tail records never include KindSnapshot.
type Recovery struct {
	// Snapshot is the owner-encoded blob of the newest snapshot record,
	// nil when the journal holds none.
	Snapshot []byte
	// Tail holds the records after the snapshot, oldest first.
	Tail []Record
	// Records counts every valid record scanned (snapshots included),
	// not just the post-snapshot tail.
	Records int
	// Segments counts the segment files scanned.
	Segments int
	// Truncated reports that a torn or corrupt tail was cut off.
	Truncated bool
	// TruncatedSegment/TruncatedOffset locate the cut: the named segment
	// was truncated to the offset, and any later segments were deleted.
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
	// segBytes is the size of every segment left on disk, by sequence
	// number: with SnapshotAt, all that Open's retention index needs, so the
	// journal is scanned once.
	segBytes map[int]int64
}

// Recover scans dir's segments in order and reconstructs the journal's
// logical state. Corruption — a torn final write, a CRC mismatch, a bad
// header — does not fail recovery: the affected segment is truncated to
// its last valid record, every later segment is deleted (records after a
// tear are not trustworthy even if individually well-formed), and the scan
// result reflects only the valid prefix. The zero tail of a segment that was
// active at a crash is not corruption: it is trimmed at the frame boundary it
// starts on, unreported, and later segments stand. Open calls this before
// appending.
func Recover(dir string) (*Recovery, error) {
	rec := &Recovery{segBytes: make(map[int]int64)}
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
			if err := os.Truncate(seg, validEnd); err != nil {
				return nil, fmt.Errorf("wal: trimming preallocated tail: %w", err)
			}
			continue
		}
		if scanErr == nil {
			continue
		}
		if !errors.Is(scanErr, ErrCorrupt) {
			return nil, scanErr
		}
		// Corruption: cut this segment back to its valid prefix and drop
		// everything after it.
		rec.Truncated = true
		rec.TruncatedSegment = seg
		rec.TruncatedOffset = validEnd
		if validEnd <= headerSize {
			// Nothing valid in the file (even the header may be bad);
			// remove it entirely.
			if err := os.Remove(seg); err != nil {
				return nil, fmt.Errorf("wal: removing corrupt segment: %w", err)
			}
			delete(rec.segBytes, n)
		} else if err := os.Truncate(seg, validEnd); err != nil {
			return nil, fmt.Errorf("wal: truncating corrupt segment: %w", err)
		}
		for _, later := range segs[i+1:] {
			if err := os.Remove(later); err != nil {
				return nil, fmt.Errorf("wal: removing post-corruption segment: %w", err)
			}
		}
		if err := syncDir(dir); err != nil {
			return nil, err
		}
		break
	}
	return rec, nil
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
