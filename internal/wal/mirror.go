package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// ErrMirrorGap reports a replicated frame that does not continue the
// mirrored tail — a skipped or repeated position. The mirror's owner must
// discard its local copy and re-seed from a snapshot; patching a gap locally
// would silently diverge from the source journal.
var ErrMirrorGap = errors.New("wal: replicated frame does not continue the mirrored tail")

// Mirror maintains a byte-for-byte replica of a journal directory from a
// stream of raw frames (see Frame). It is the follower half of log
// shipping: frames append to the same segment files, at the same offsets,
// with the same headers as the source journal, so after any restart the
// mirror's own Recover yields the exact resume cursor. There is no group
// commit — Sync is explicit and the owner chooses the cadence. Not safe for
// concurrent use; the replication client owns it from one goroutine.
type Mirror struct {
	dir   string
	f     *os.File
	seg   int
	off   int64
	dirty bool
	open  bool
}

// OpenMirror opens dir for mirroring with its tail at cursor at. A zero
// cursor means the directory is empty (the first frame creates the first
// segment); otherwise the segment file must exist with exactly at.Off bytes
// — anything else means the local copy has diverged and the caller should
// wipe and re-seed.
func OpenMirror(dir string, at Cursor) (*Mirror, error) {
	if err := mkdirAll(dir); err != nil {
		return nil, fmt.Errorf("wal: creating mirror dir: %w", err)
	}
	m := &Mirror{dir: dir}
	if at.IsZero() {
		return m, nil
	}
	path := filepath.Join(dir, segmentName(at.Seg))
	info, err := os.Stat(path)
	if err != nil {
		return nil, fmt.Errorf("%w: resume segment %d missing", ErrMirrorGap, at.Seg)
	}
	if info.Size() != at.Off {
		return nil, fmt.Errorf("%w: resume segment %d holds %d bytes, cursor says %d",
			ErrMirrorGap, at.Seg, info.Size(), at.Off)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: opening mirror segment: %w", err)
	}
	m.f, m.seg, m.off, m.open = f, at.Seg, at.Off, true
	return m, nil
}

// Append persists one replicated frame, verifying cursor continuity and the
// frame's CRC, and returns the verified record payload and that CRC. The
// frame must land exactly at the mirrored tail, or at the start of a later
// segment (the source rolled); anything else is ErrMirrorGap.
func (m *Mirror) Append(fr Frame) (payload []byte, crc uint32, err error) {
	n, payload, crc, err := parseFrame(fr.Raw)
	if err == nil && n != int64(len(fr.Raw)) {
		err = fmt.Errorf("%w: %d bytes behind the frame", ErrCorrupt, int64(len(fr.Raw))-n)
	}
	if err != nil {
		return nil, 0, err
	}
	switch {
	case m.open && fr.Seg == m.seg && fr.Off == m.off:
		// Sequential append to the active mirrored segment.
	case fr.Off == headerSize && (!m.open || fr.Seg > m.seg):
		// The source rolled (or this is the first frame): seal the old
		// file and start the new segment with a fresh header.
		if err := m.roll(fr.Seg); err != nil {
			return nil, 0, err
		}
	default:
		have := Cursor{Seg: m.seg, Off: m.off}
		if !m.open {
			have = Cursor{}
		}
		return nil, 0, fmt.Errorf("%w: frame at %d/%d, tail at %v", ErrMirrorGap, fr.Seg, fr.Off, have)
	}
	if _, err := m.f.Write(fr.Raw); err != nil {
		return nil, 0, fmt.Errorf("wal: mirror write: %w", err)
	}
	m.off += int64(len(fr.Raw))
	m.dirty = true
	return payload, crc, nil
}

// roll seals the active mirrored segment and creates segment seg with a
// journal header, syncing the directory so the new file survives a crash.
func (m *Mirror) roll(seg int) error {
	if m.open {
		if err := m.Sync(); err != nil {
			return err
		}
		if err := m.f.Close(); err != nil {
			return err
		}
		m.open = false
	}
	f, err := os.OpenFile(filepath.Join(m.dir, segmentName(seg)), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: creating mirror segment: %w", err)
	}
	if _, err := f.WriteString(magic); err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write([]byte{version}); err != nil {
		f.Close()
		return err
	}
	m.f, m.seg, m.off, m.open, m.dirty = f, seg, headerSize, true, true
	return syncDir(m.dir)
}

// Sync forces mirrored bytes to stable storage.
func (m *Mirror) Sync() error {
	if !m.open || !m.dirty {
		return nil
	}
	if err := m.f.Sync(); err != nil {
		return err
	}
	m.dirty = false
	return nil
}

// Close syncs and closes the active mirrored segment. Idempotent.
func (m *Mirror) Close() error {
	if !m.open {
		return nil
	}
	err := m.Sync()
	if cerr := m.f.Close(); err == nil {
		err = cerr
	}
	m.open = false
	return err
}
