package wal

import (
	"bytes"
	"errors"
	"fmt"
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
	nextSeq int
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
	segs, err := segments(dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return &Recovery{}, nil
		}
		return nil, err
	}
	rec := &Recovery{Segments: len(segs)}
	for i, seg := range segs {
		n, err := segmentSeq(seg)
		if err != nil {
			return nil, err
		}
		if n >= rec.nextSeq {
			rec.nextSeq = n + 1
		}
		validEnd, scanErr := scanSegment(seg, rec)
		if validEnd > headerSize {
			rec.End = Cursor{Seg: n, Off: validEnd}
		}
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

// scanSegment reads one segment, folding each valid record into rec, and
// returns the byte offset just past the last valid record. A corrupt or
// torn record yields an error wrapping ErrCorrupt; the offset then marks
// where the caller should truncate. That error is errEndOfLog exactly when
// nothing but preallocated zeros follows the offset.
func scanSegment(path string, rec *Recovery) (validEnd int64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, fmt.Errorf("wal: reading segment: %w", err)
	}
	if err := checkHeader(path, data); err != nil {
		return 0, err
	}
	off := int64(headerSize)
	for off < int64(len(data)) {
		total, err := frameLen(data[off:])
		if err == errEndOfLog && len(bytes.TrimLeft(data[off:], "\x00")) > 0 {
			err = fmt.Errorf("%w: data after a zero length prefix", ErrCorrupt)
		}
		if err != nil {
			return off, fmt.Errorf("%w in %s@%d", err, path, off)
		}
		payload, crc, err := ParseFrame(data[off : off+total])
		if err != nil {
			return off, fmt.Errorf("%w in %s@%d", err, path, off)
		}
		r, err := DecodeRecord(payload)
		if err != nil {
			return off, fmt.Errorf("%w: %v in %s@%d", ErrCorrupt, err, path, off)
		}
		rec.fold(r)
		rec.LastCRC = crc
		off += total
	}
	return off, nil
}

// fold applies one valid record to the recovery state: a snapshot resets
// the tail (everything before it is superseded), anything else extends it.
func (rec *Recovery) fold(r Record) {
	rec.Records++
	if r.Kind == KindSnapshot {
		rec.Snapshot = r.Snapshot
		rec.Tail = rec.Tail[:0]
		return
	}
	rec.Tail = append(rec.Tail, r)
}
