package wal

import (
	"bytes"
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

// The two ways a cursor fails a reader (see "Reading" in the package comment);
// after either, its holder re-seeds.
var (
	ErrCursorGone    = errors.New("wal: cursor segment no longer retained")
	ErrCursorInvalid = errors.New("wal: cursor does not match journal contents")
)

// errEndOfLog is parseFrame's answer to the preallocated tail of a segment
// that was active at a crash: a zero length prefix with nothing but zeros
// behind it.
var errEndOfLog = fmt.Errorf("%w: zero length prefix (end of log)", ErrCorrupt)

// parseFrame decodes the frame at the start of buf — length prefix, payload,
// stored CRC-32 — and returns its total length n; buf may run on past it.
// Whatever is not a whole frame with a matching checksum is an ErrCorrupt
// error: a prefix that is malformed or larger than a record may be, a frame
// that runs past buf (torn), a checksum mismatch. No record has an empty
// payload, so a zero prefix is never a frame: it is errEndOfLog when only
// zeros follow, and corruption like any other when something else does.
// This is the only decoder of the frame format (see walkFrames).
func parseFrame(buf []byte) (n int64, payload []byte, crc uint32, err error) {
	plen, k := binary.Uvarint(buf)
	switch {
	case k <= 0 || plen > maxRecordBytes:
		return 0, nil, 0, fmt.Errorf("%w: bad length prefix", ErrCorrupt)
	case plen == 0 && len(bytes.TrimLeft(buf, "\x00")) > 0:
		return 0, nil, 0, fmt.Errorf("%w: data after a zero length prefix", ErrCorrupt)
	case plen == 0:
		return 0, nil, 0, errEndOfLog
	}
	end := int64(k) + int64(plen)
	if int64(len(buf)) < end+4 {
		return 0, nil, 0, fmt.Errorf("%w: torn frame", ErrCorrupt)
	}
	payload = buf[k:end]
	crc = binary.LittleEndian.Uint32(buf[end:])
	if crc32.ChecksumIEEE(payload) != crc {
		return 0, nil, 0, fmt.Errorf("%w: frame crc mismatch", ErrCorrupt)
	}
	return end + 4, payload, crc, nil
}

// walkFrames is the one loop over segment bytes: Recover, the streaming
// reader and cursor validation all decide "what is a frame and where does the
// log end" here. data holds frames starting at segment offset off; fn sees
// each valid one (raw and payload alias data). It returns the offset just
// past the last frame fn accepted and what stopped the walk: nil at the end
// of data, parseFrame's error at the first thing that is not a frame, or
// fn's own.
func walkFrames(data []byte, off int64, fn func(off int64, raw, payload []byte, crc uint32) error) (int64, error) {
	for len(data) > 0 {
		n, payload, crc, err := parseFrame(data)
		if err != nil {
			return off, fmt.Errorf("%w @%d", err, off)
		}
		if err := fn(off, data[:n], payload, crc); err != nil {
			return off, err
		}
		off += n
		data = data[n:]
	}
	return off, nil
}

// segmentReads (tests only) observes every segment file read.
var segmentReads func(path string)

// readSegment returns bytes [from, to) of the segment file at path, clamped
// to the file's size.
func readSegment(path string, from, to int64) ([]byte, error) {
	if segmentReads != nil {
		segmentReads(path)
	}
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

// segmentFrames returns the frame bytes [from, to) of the segment file at
// path. from is a frame boundary, or 0 for the whole segment: the header then
// rides along, is checked (ErrCorrupt) and stripped, so the bytes returned
// start at offset headerSize.
func segmentFrames(path string, from, to int64) ([]byte, error) {
	data, err := readSegment(path, from, to)
	switch {
	case err != nil:
		return nil, fmt.Errorf("wal: reading segment: %w", err)
	case from > 0:
		return data, nil
	case len(data) < headerSize || string(data[:4]) != magic || data[4] != version:
		return nil, fmt.Errorf("%w: bad header in %s", ErrCorrupt, path)
	}
	return data[headerSize:], nil
}

// read is segmentFrames for the journal's readers: a segment whose file is
// gone — pruned, or dropped by a recovery — is ErrCursorGone.
func (j *Journal) read(seg int, from, to int64) ([]byte, error) {
	data, err := segmentFrames(filepath.Join(j.dir, segmentName(seg)), from, to)
	if errors.Is(err, os.ErrNotExist) {
		err = fmt.Errorf("%w: segment %d", ErrCursorGone, seg)
	}
	return data, err
}

// ReadFrames walks raw frames from cur up to the durable cursor, calling fn
// for each and returning the advanced cursor. Sealed segments are read to
// their end, the durable cursor's segment only up to it — a tailing stream
// calls this once per commit round, and the active segment is a
// preallocation step long at least. fn's Frame aliases a per-call buffer; it
// must not be retained across calls.
func (j *Journal) ReadFrames(cur Cursor, fn func(Frame) error) (Cursor, error) {
	limit := j.DurableCursor()
	for cur.Less(limit) {
		from, to := max(cur.Off, headerSize), int64(math.MaxInt64)
		cur.Off = from
		if from == headerSize {
			from = 0
		}
		if cur.Seg == limit.Seg {
			to = limit.Off
		}
		data, err := j.read(cur.Seg, from, to)
		if err != nil {
			return cur, err
		}
		cur.Off, err = walkFrames(data, cur.Off, func(off int64, raw, _ []byte, _ uint32) error {
			return fn(Frame{Seg: cur.Seg, Off: off, Raw: raw})
		})
		if err != nil || cur.Seg == limit.Seg {
			return cur, err
		}
		// Finished a sealed segment: on to the next retained one. Numbers have
		// gaps (a recovery deletes what follows a tear), so ask the index.
		next, err := j.segmentAfter(cur.Seg)
		if err != nil {
			return cur, err
		}
		cur = Cursor{Seg: next, Off: headerSize}
	}
	return cur, nil
}

// segmentAfter returns the retained segment that follows seg. Prune deletes
// oldest first, so what is retained is one unbroken suffix of the journal:
// if seg is still in it nothing after seg is missing, and if it is not the
// reader has been pruned under and what followed seg may be gone as well.
func (j *Journal) segmentAfter(seg int) (int, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, ok := j.sealedBytes[seg]; !ok {
		return 0, fmt.Errorf("%w: segment %d", ErrCursorGone, seg)
	}
	return j.nextSegmentLocked(seg), nil
}

// nextSegmentLocked returns the lowest retained segment above after; the
// active segment follows every sealed one. The caller holds mu.
func (j *Journal) nextSegmentLocked(after int) int {
	next := j.seq
	for n := range j.sealedBytes {
		if n > after && n < next {
			next = n
		}
	}
	return next
}

// ValidateCursor checks that cur is a frame boundary of the durable journal
// and that the frame ending exactly there carries lastCRC (ignored at a
// segment start, which has no preceding frame): the proof a resuming reader
// gives that its history is this journal's.
func (j *Journal) ValidateCursor(cur Cursor, lastCRC uint32) error {
	if durable := j.DurableCursor(); durable.Less(cur) {
		return fmt.Errorf("%w: cursor %v ahead of durable %v", ErrCursorInvalid, cur, durable)
	}
	var end int64
	crc := lastCRC
	data, err := j.read(cur.Seg, 0, max(cur.Off, headerSize))
	if err == nil {
		end, err = walkFrames(data, headerSize, func(_ int64, _, _ []byte, c uint32) error {
			crc = c
			return nil
		})
	}
	switch {
	case errors.Is(err, ErrCorrupt):
		return fmt.Errorf("%w: %v", ErrCursorInvalid, err)
	case err != nil:
		return err
	case end != cur.Off:
		return fmt.Errorf("%w: offset %d is not a frame boundary of segment %d", ErrCursorInvalid, cur.Off, cur.Seg)
	case crc != lastCRC:
		return fmt.Errorf("%w: crc 0x%08x at %v, holder has 0x%08x", ErrCursorInvalid, crc, cur, lastCRC)
	}
	return nil
}

// Seed is the handshake of a reader that starts from nothing. From one
// critical section it returns where to start reading (the oldest retained
// frame), where to start applying (the newest snapshot; start when there is
// none — everything in between is history to persist, not to replay) and a
// lease already pinning start, so no prune can slip in between picking the
// cursor and holding it. The caller must Release the lease.
func (j *Journal) Seed() (start, applyFrom Cursor, lease *Lease) {
	j.mu.Lock()
	defer j.mu.Unlock()
	start = Cursor{Seg: j.nextSegmentLocked(-1), Off: headerSize}
	applyFrom = start
	if !j.snapAt.IsZero() {
		applyFrom = j.snapAt
	}
	return start, applyFrom, j.acquireLeaseLocked(start)
}
