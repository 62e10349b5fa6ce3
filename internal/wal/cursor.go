package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// Cursor addresses a byte position inside a journal directory: a segment
// sequence number and an offset within that segment file. Valid offsets
// always land on frame boundaries (headerSize is the first). Cursors order
// lexicographically by (Seg, Off); the zero Cursor means "no position".
type Cursor struct {
	Seg int   `json:"seg"`
	Off int64 `json:"off"`
}

// Less reports whether c is strictly before o in journal order.
func (c Cursor) Less(o Cursor) bool {
	return c.Seg < o.Seg || (c.Seg == o.Seg && c.Off < o.Off)
}

// IsZero reports whether c is the "no position" cursor.
func (c Cursor) IsZero() bool { return c.Seg == 0 && c.Off == 0 }

// AtSegmentStart reports whether c sits at (or before) its segment's first
// frame: between it and the end of the previous segment lies only a header.
func (c Cursor) AtSegmentStart() bool { return c.Off <= headerSize }

// String renders the cursor as "seg/off" — the wire spelling the replication
// protocol uses in headers and query parameters.
func (c Cursor) String() string { return fmt.Sprintf("%d/%d", c.Seg, c.Off) }

// ParseCursor parses the "seg/off" spelling produced by Cursor.String.
func ParseCursor(s string) (Cursor, error) {
	seg, off, ok := strings.Cut(s, "/")
	if !ok {
		return Cursor{}, fmt.Errorf("wal: malformed cursor %q", s)
	}
	n, err := strconv.Atoi(seg)
	if err != nil || n < 0 {
		return Cursor{}, fmt.Errorf("wal: malformed cursor segment %q", s)
	}
	o, err := strconv.ParseInt(off, 10, 64)
	if err != nil || o < 0 {
		return Cursor{}, fmt.Errorf("wal: malformed cursor offset %q", s)
	}
	return Cursor{Seg: n, Off: o}, nil
}

// Frame is one raw on-disk record frame with its journal position. Raw is
// the frame exactly as stored — uvarint payload length, payload, CRC-32 —
// so a follower can mirror segment files byte for byte.
type Frame struct {
	Seg int
	Off int64
	Raw []byte
}

// End returns the cursor just past the frame.
func (f Frame) End() Cursor { return Cursor{Seg: f.Seg, Off: f.Off + int64(len(f.Raw))} }

var (
	// ErrCursorGone reports a cursor whose segment is no longer retained —
	// pruned by a snapshot — so the reader must re-seed from a snapshot
	// instead of resuming.
	ErrCursorGone = errors.New("wal: cursor segment no longer retained")
	// ErrCursorInvalid reports a cursor that does not land on a record
	// boundary of the journal's current contents (divergent history, a
	// reader ahead of the journal, or a CRC mismatch at the boundary).
	ErrCursorInvalid = errors.New("wal: cursor does not match journal contents")
)

// ParseFrame splits a raw frame into its payload and stored CRC, verifying
// the length prefix spans the frame exactly and the CRC matches the payload.
func ParseFrame(raw []byte) (payload []byte, crc uint32, err error) {
	plen, n := binary.Uvarint(raw)
	if n <= 0 || plen > maxRecordBytes {
		return nil, 0, fmt.Errorf("%w: bad frame length prefix", ErrCorrupt)
	}
	if int64(len(raw)) != int64(n)+int64(plen)+4 {
		return nil, 0, fmt.Errorf("%w: frame length %d does not match prefix %d", ErrCorrupt, len(raw), plen)
	}
	payload = raw[n : int64(n)+int64(plen)]
	crc = binary.LittleEndian.Uint32(raw[int64(n)+int64(plen):])
	if crc32.ChecksumIEEE(payload) != crc {
		return nil, 0, fmt.Errorf("%w: frame crc mismatch", ErrCorrupt)
	}
	return payload, crc, nil
}

// checkHeader validates a segment file's 5-byte header.
func checkHeader(path string, data []byte) error {
	if len(data) < headerSize || string(data[:4]) != magic || data[4] != version {
		return fmt.Errorf("%w: bad header in %s", ErrCorrupt, path)
	}
	return nil
}

// errEndOfLog is frameLen's answer to a zero length prefix.
var errEndOfLog = fmt.Errorf("%w: zero length prefix (end of log)", ErrCorrupt)

// frameLen returns the total length of the frame starting at buf[0]. A torn
// or corrupt frame yields an ErrCorrupt error. No record has an empty
// payload, so a zero length prefix is never a frame: it is errEndOfLog, the
// first byte of an active segment's preallocated tail. Readers bounded by
// the durable cursor never reach one; Recover decides whether what follows
// is that tail or a torn write.
func frameLen(buf []byte) (int64, error) {
	plen, n := binary.Uvarint(buf)
	switch {
	case n <= 0 || plen > maxRecordBytes:
		return 0, fmt.Errorf("%w: bad length prefix", ErrCorrupt)
	case plen == 0:
		return 0, errEndOfLog
	}
	total := int64(n) + int64(plen) + 4
	if int64(len(buf)) < total {
		return 0, fmt.Errorf("%w: torn frame", ErrCorrupt)
	}
	return total, nil
}

// readSegment returns bytes [from, to) of the segment file at path, clamped
// to the file's size.
func readSegment(path string, from, to int64) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, err
	}
	to = min(to, info.Size())
	if to <= from {
		return nil, nil
	}
	data := make([]byte, to-from)
	_, err = f.ReadAt(data, from)
	return data, err
}

// retainedSegments returns the journal's segment sequence numbers, sorted.
func retainedSegments(dir string) ([]int, error) {
	segs, err := segments(dir)
	if err != nil {
		return nil, err
	}
	var out []int
	for _, s := range segs {
		n, err := segmentSeq(s)
		if err != nil {
			continue // foreign file matching the glob
		}
		out = append(out, n)
	}
	return out, nil
}

// OldestCursor returns the position of the first frame in the journal's
// oldest retained segment; ok is false when the directory holds no segments.
func OldestCursor(dir string) (Cursor, bool, error) {
	seqs, err := retainedSegments(dir)
	if err != nil || len(seqs) == 0 {
		return Cursor{}, false, err
	}
	return Cursor{Seg: seqs[0], Off: headerSize}, true, nil
}

// ReadFrames walks raw frames from cur (exclusive of anything before it) up
// to limit — normally the journal's durable cursor — calling fn for each and
// returning the advanced cursor. Sealed segments below limit.Seg are read to
// EOF; the segment at limit.Seg is read only to limit.Off. A missing segment
// below the limit yields ErrCursorGone (pruned under the reader). fn's Frame
// aliases a per-call buffer; it must not be retained across calls.
func ReadFrames(dir string, cur, limit Cursor, fn func(Frame) error) (Cursor, error) {
	for cur.Less(limit) {
		if cur.Off < headerSize {
			cur.Off = headerSize
		}
		// Read only the window asked for: a tailing stream calls this once
		// per commit round, and the active segment is a preallocation step
		// long at least. The header rides along (and is checked) when the
		// window starts the segment.
		from, to := cur.Off, int64(math.MaxInt64)
		if from == headerSize {
			from = 0
		}
		if cur.Seg == limit.Seg {
			to = limit.Off
		}
		path := filepath.Join(dir, segmentName(cur.Seg))
		data, err := readSegment(path, from, to)
		if err != nil {
			if os.IsNotExist(err) {
				return cur, fmt.Errorf("%w: segment %d missing", ErrCursorGone, cur.Seg)
			}
			return cur, fmt.Errorf("wal: reading segment: %w", err)
		}
		if from == 0 {
			if err := checkHeader(path, data); err != nil {
				return cur, err
			}
			data = data[headerSize:]
		}
		for len(data) > 0 {
			total, err := frameLen(data)
			if err != nil {
				return cur, fmt.Errorf("%w @%v", err, cur)
			}
			if err := fn(Frame{Seg: cur.Seg, Off: cur.Off, Raw: data[:total]}); err != nil {
				return cur, err
			}
			cur.Off += total
			data = data[total:]
		}
		if cur.Seg >= limit.Seg {
			return cur, nil
		}
		// Finished a sealed segment: advance to the next retained one.
		// Recovery can leave numbering gaps (corrupt segments are deleted),
		// so scan for the next sequence rather than assuming Seg+1.
		seqs, err := retainedSegments(dir)
		if err != nil {
			return cur, err
		}
		next := -1
		for _, n := range seqs {
			if n > cur.Seg {
				next = n
				break
			}
		}
		if next < 0 || next > limit.Seg {
			return cur, nil
		}
		cur = Cursor{Seg: next, Off: headerSize}
	}
	return cur, nil
}

// ValidateCursor checks that cur names a frame boundary of the journal at
// dir and that the frame ending exactly at cur carries lastCRC (lastCRC is
// ignored when cur.Off == headerSize — the segment start has no preceding
// frame). It returns ErrCursorGone when the segment was pruned and
// ErrCursorInvalid when the position or checksum does not match — either way
// the holder's history has diverged and it must re-seed.
func ValidateCursor(dir string, cur Cursor, lastCRC uint32) error {
	// Read first, classify a missing segment afterwards: listing before
	// reading would let a prune in between surface a raw ENOENT.
	path := filepath.Join(dir, segmentName(cur.Seg))
	data, err := readSegment(path, 0, max(cur.Off, headerSize))
	if os.IsNotExist(err) {
		seqs, lerr := retainedSegments(dir)
		if lerr != nil {
			return lerr
		}
		if len(seqs) > 0 && cur.Seg < seqs[0] {
			return fmt.Errorf("%w: segment %d pruned (oldest retained %d)", ErrCursorGone, cur.Seg, seqs[0])
		}
		return fmt.Errorf("%w: segment %d not in journal", ErrCursorInvalid, cur.Seg)
	}
	if err != nil {
		return fmt.Errorf("wal: reading segment: %w", err)
	}
	if err := checkHeader(path, data); err != nil {
		return err
	}
	if cur.Off == headerSize {
		return nil
	}
	off := int64(headerSize)
	for off < cur.Off {
		total, err := frameLen(data[off:])
		if err != nil {
			return fmt.Errorf("%w: %v @%d", ErrCursorInvalid, err, off)
		}
		if off+total == cur.Off {
			_, crc, perr := ParseFrame(data[off : off+total])
			if perr != nil {
				return fmt.Errorf("%w: %v", ErrCursorInvalid, perr)
			}
			if crc != lastCRC {
				return fmt.Errorf("%w: crc 0x%08x at %v, holder has 0x%08x", ErrCursorInvalid, crc, cur, lastCRC)
			}
			return nil
		}
		off += total
	}
	return fmt.Errorf("%w: offset %d is not a frame boundary of segment %d", ErrCursorInvalid, cur.Off, cur.Seg)
}

// LatestSnapshotCursor returns the position of the newest snapshot frame in
// the journal; ok is false when no snapshot record exists. A reader seeding
// from scratch starts applying at this cursor (the snapshot itself) and
// treats everything before it as history it persists but does not replay.
func LatestSnapshotCursor(dir string) (Cursor, bool, error) {
	seqs, err := retainedSegments(dir)
	if err != nil {
		return Cursor{}, false, err
	}
	var at Cursor
	ok := false
	for _, n := range seqs {
		path := filepath.Join(dir, segmentName(n))
		data, rerr := os.ReadFile(path)
		if rerr != nil {
			return Cursor{}, false, fmt.Errorf("wal: reading segment: %w", rerr)
		}
		if err := checkHeader(path, data); err != nil {
			return Cursor{}, false, err
		}
		off := int64(headerSize)
		for off < int64(len(data)) {
			total, ferr := frameLen(data[off:])
			if ferr != nil {
				break // end of log or torn active tail; nothing past it is durable yet
			}
			payload, _, perr := ParseFrame(data[off : off+total])
			if perr == nil && len(payload) > 0 && Kind(payload[0]) == KindSnapshot {
				at = Cursor{Seg: n, Off: off}
				ok = true
			}
			off += total
		}
	}
	return at, ok, nil
}
