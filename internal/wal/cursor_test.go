package wal

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"
)

func TestCursorStringParseRoundTrip(t *testing.T) {
	for _, c := range []Cursor{{}, {Seg: 0, Off: 5}, {Seg: 3, Off: 4096}, {Seg: 120, Off: 1}} {
		back, err := ParseCursor(c.String())
		if err != nil {
			t.Fatalf("parse %q: %v", c.String(), err)
		}
		if back != c {
			t.Fatalf("round trip changed %v to %v", c, back)
		}
	}
	for _, s := range []string{"", "3", "3/", "/5", "a/5", "3/b", "-1/5", "3/-5"} {
		if _, err := ParseCursor(s); err == nil {
			t.Fatalf("ParseCursor(%q) accepted garbage", s)
		}
	}
}

func TestCursorOrdering(t *testing.T) {
	if !(Cursor{Seg: 1, Off: 900}).Less(Cursor{Seg: 2, Off: 5}) {
		t.Fatal("segment order must dominate offset order")
	}
	if !(Cursor{Seg: 2, Off: 5}).Less(Cursor{Seg: 2, Off: 6}) {
		t.Fatal("offset order within a segment")
	}
	if (Cursor{Seg: 2, Off: 5}).Less(Cursor{Seg: 2, Off: 5}) {
		t.Fatal("Less must be strict")
	}
}

// shipFrames reads every durable frame of the journal at dir from cur.
func shipFrames(t *testing.T, dir string, cur, durable Cursor) []Frame {
	t.Helper()
	var out []Frame
	next, err := ReadFrames(dir, cur, durable, func(fr Frame) error {
		raw := make([]byte, len(fr.Raw))
		copy(raw, fr.Raw)
		out = append(out, Frame{Seg: fr.Seg, Off: fr.Off, Raw: raw})
		return nil
	})
	if err != nil {
		t.Fatalf("ReadFrames: %v", err)
	}
	if next != durable {
		t.Fatalf("ReadFrames stopped at %v, durable %v", next, durable)
	}
	return out
}

func TestReadFramesWalksDurableRecords(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir, Options{Fsync: FsyncAlways, SegmentBytes: 96})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	want := sampleRecords()
	appendAll(t, j, want)

	frames := shipFrames(t, dir, Cursor{}, j.DurableCursor())
	if len(frames) != len(want) {
		t.Fatalf("read %d frames, want %d", len(frames), len(want))
	}
	for i, fr := range frames {
		payload, _, err := ParseFrame(fr.Raw)
		if err != nil {
			t.Fatalf("frame %d unparseable: %v", i, err)
		}
		rec, err := DecodeRecord(payload)
		if err != nil {
			t.Fatalf("frame %d undecodable: %v", i, err)
		}
		if !reflect.DeepEqual(rec, want[i]) {
			t.Fatalf("frame %d decoded to %+v, want %+v", i, rec, want[i])
		}
	}
	// Resuming from the end of frame 2 yields exactly the remaining frames.
	rest := shipFrames(t, dir, frames[2].End(), j.DurableCursor())
	if len(rest) != len(want)-3 {
		t.Fatalf("resume read %d frames, want %d", len(rest), len(want)-3)
	}
	if rest[0].Seg != frames[3].Seg || rest[0].Off != frames[3].Off {
		t.Fatalf("resume started at %d/%d, want %d/%d", rest[0].Seg, rest[0].Off, frames[3].Seg, frames[3].Off)
	}
}

// tailWindow builds a journal whose active segment holds about 1 MiB and
// returns the last ~100 bytes of it as a (cur, limit) window — what a
// replication stream reads when one commit round wakes it.
func tailWindow(tb testing.TB) (dir string, cur, limit Cursor) {
	tb.Helper()
	dir = tb.TempDir()
	j, _, err := Open(dir, Options{Fsync: FsyncNone, Interval: time.Hour})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { j.Close() })
	blob := Record{Kind: KindSnapshot, Snapshot: make([]byte, 4096)}
	for i := 0; i < 256; i++ {
		if _, err := j.Append(blob); err != nil {
			tb.Fatal(err)
		}
	}
	if err := j.Sync(); err != nil {
		tb.Fatal(err)
	}
	cur = j.DurableCursor()
	for i := 0; i < 14; i++ { // 14 × 7 bytes
		if _, err := j.Append(Record{Kind: KindQuit, Employee: i}); err != nil {
			tb.Fatal(err)
		}
	}
	if err := j.Sync(); err != nil {
		tb.Fatal(err)
	}
	return dir, cur, j.DurableCursor()
}

// TestReadFramesReadsOnlyTheWindow: tailing a busy tenant must cost the
// bytes asked for, not the segment — reading the whole file on every wake-up
// is quadratic per segment.
func TestReadFramesReadsOnlyTheWindow(t *testing.T) {
	dir, cur, limit := tailWindow(t)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	frames := 0
	next, err := ReadFrames(dir, cur, limit, func(Frame) error { frames++; return nil })
	runtime.ReadMemStats(&ms)
	if err != nil || next != limit || frames != 14 {
		t.Fatalf("read %d frames up to %v (%v), want 14 up to %v", frames, next, err, limit)
	}
	if got := ms.TotalAlloc - before; got > 16<<10 {
		t.Fatalf("a %d-byte window of a %d-byte segment allocated %d bytes", limit.Off-cur.Off, limit.Off, got)
	}
	// The resume handshake reads no further than its cursor either.
	if err := ValidateCursor(dir, Cursor{Seg: 0, Off: headerSize}, 0); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkReadFramesTail(b *testing.B) {
	dir, cur, limit := tailWindow(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadFrames(dir, cur, limit, func(Frame) error { return nil }); err != nil {
			b.Fatal(err)
		}
	}
}

func TestValidateCursor(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir, Options{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, j, sampleRecords())
	durable := j.DurableCursor()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.End != durable {
		t.Fatalf("recovered end %v, durable was %v", rec.End, durable)
	}
	if err := ValidateCursor(dir, rec.End, rec.LastCRC); err != nil {
		t.Fatalf("recovered cursor rejected: %v", err)
	}
	if err := ValidateCursor(dir, rec.End, rec.LastCRC+1); !errors.Is(err, ErrCursorInvalid) {
		t.Fatalf("wrong CRC accepted: %v", err)
	}
	if err := ValidateCursor(dir, Cursor{Seg: rec.End.Seg, Off: rec.End.Off - 1}, 0); !errors.Is(err, ErrCursorInvalid) {
		t.Fatalf("non-boundary offset accepted: %v", err)
	}
	if err := ValidateCursor(dir, Cursor{Seg: rec.End.Seg + 7, Off: headerSize}, 0); !errors.Is(err, ErrCursorInvalid) {
		t.Fatalf("future segment accepted: %v", err)
	}
	// The segment start needs no CRC proof (no preceding frame).
	if err := ValidateCursor(dir, Cursor{Seg: rec.End.Seg, Off: headerSize}, 12345); err != nil {
		t.Fatalf("segment-start cursor rejected: %v", err)
	}
}

func TestValidateCursorPrunedSegment(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir, Options{Fsync: FsyncAlways, SegmentBytes: 96})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for i := 0; i < 24; i++ {
		appendAll(t, j, []Record{{Kind: KindQuit, Employee: i}})
	}
	if err := j.Snapshot([]byte("snap")); err != nil {
		t.Fatal(err)
	}
	oldest, ok, err := OldestCursor(dir)
	if err != nil || !ok {
		t.Fatalf("OldestCursor: %v ok=%v", err, ok)
	}
	if oldest.Seg == 0 {
		t.Fatal("snapshot should have pruned segment 0")
	}
	if err := ValidateCursor(dir, Cursor{Seg: 0, Off: headerSize}, 0); !errors.Is(err, ErrCursorGone) {
		t.Fatalf("pruned cursor: %v, want ErrCursorGone", err)
	}
	if _, err := ReadFrames(dir, Cursor{Seg: 0, Off: headerSize}, j.DurableCursor(), func(Frame) error { return nil }); !errors.Is(err, ErrCursorGone) {
		t.Fatalf("ReadFrames over pruned segment: %v, want ErrCursorGone", err)
	}
	snap, found, err := LatestSnapshotCursor(dir)
	if err != nil || !found {
		t.Fatalf("LatestSnapshotCursor: %v found=%v", err, found)
	}
	if snap.Seg < oldest.Seg {
		t.Fatalf("snapshot cursor %v behind oldest retained %v", snap, oldest)
	}
}

// TestValidateCursorSegmentVanishes is the deterministic form of the
// prune-vs-validate race: the directory listing still names the cursor's
// segment but reading it finds nothing (here a dangling symlink stands in for
// the file a concurrent prune unlinked). The holder must get a cursor error —
// a 409 and a re-seed — never the raw ENOENT that used to surface as a 500.
func TestValidateCursorSegmentVanishes(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir, Options{Fsync: FsyncAlways, SegmentBytes: 96})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for i := 0; i < 24; i++ {
		appendAll(t, j, []Record{{Kind: KindQuit, Employee: i}})
	}
	cur, ok, err := OldestCursor(dir)
	if err != nil || !ok {
		t.Fatalf("OldestCursor: %v ok=%v", err, ok)
	}
	if err := ValidateCursor(dir, cur, 0); err != nil {
		t.Fatalf("cursor rejected before the prune: %v", err)
	}
	path := filepath.Join(dir, segmentName(cur.Seg))
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := ValidateCursor(dir, cur, 0); !errors.Is(err, ErrCursorGone) {
		t.Fatalf("pruned cursor: %v, want ErrCursorGone", err)
	}
	if err := os.Symlink(filepath.Join(dir, "unlinked"), path); err != nil {
		t.Skipf("no symlinks here: %v", err)
	}
	err = ValidateCursor(dir, cur, 0)
	if !errors.Is(err, ErrCursorGone) && !errors.Is(err, ErrCursorInvalid) {
		t.Fatalf("listed-but-missing segment: %v, want a cursor error", err)
	}
}

// TestMirrorRoundTrip ships every frame of a source journal into a mirror and
// requires the mirrored directory to be byte-identical, with the same
// recovery result — the invariant the hot standby rests on.
func TestMirrorRoundTrip(t *testing.T) {
	src := t.TempDir()
	dst := t.TempDir()
	j, _, err := Open(src, Options{Fsync: FsyncAlways, SegmentBytes: 96})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	appendAll(t, j, sampleRecords())

	m, err := OpenMirror(dst, Cursor{})
	if err != nil {
		t.Fatal(err)
	}
	frames := shipFrames(t, src, Cursor{}, j.DurableCursor())
	half := len(frames) / 2
	for _, fr := range frames[:half] {
		if _, err := m.Append(fr); err != nil {
			t.Fatalf("append %d/%d: %v", fr.Seg, fr.Off, err)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	// Restarting the mirror mid-stream must resume exactly where recovery
	// says the tail is — the cursor a real follower derives after a crash.
	rec, err := Recover(dst)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Records != half {
		t.Fatalf("mirror recovered %d records, want %d", rec.Records, half)
	}
	m, err = OpenMirror(dst, rec.End)
	if err != nil {
		t.Fatalf("reopen mirror at %v: %v", rec.End, err)
	}
	for _, fr := range frames[half:] {
		if _, err := m.Append(fr); err != nil {
			t.Fatalf("append %d/%d: %v", fr.Seg, fr.Off, err)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	// Seal the source: only its live active segment carries a preallocated
	// tail, which is never shipped.
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	srcRec, err := Recover(src)
	if err != nil {
		t.Fatal(err)
	}
	dstRec, err := Recover(dst)
	if err != nil {
		t.Fatal(err)
	}
	if dstRec.End != srcRec.End || dstRec.LastCRC != srcRec.LastCRC || dstRec.Records != srcRec.Records {
		t.Fatalf("mirror recovery (%v crc %08x n=%d) != source (%v crc %08x n=%d)",
			dstRec.End, dstRec.LastCRC, dstRec.Records, srcRec.End, srcRec.LastCRC, srcRec.Records)
	}
	segs, err := segments(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range segs {
		want, err := os.ReadFile(s)
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dst, filepath.Base(s)))
		if err != nil {
			t.Fatalf("mirror missing %s: %v", filepath.Base(s), err)
		}
		if string(got) != string(want) {
			t.Fatalf("segment %s is not byte-identical", filepath.Base(s))
		}
	}
}

func TestMirrorRejectsGaps(t *testing.T) {
	src := t.TempDir()
	j, _, err := Open(src, Options{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	appendAll(t, j, sampleRecords())
	frames := shipFrames(t, src, Cursor{}, j.DurableCursor())
	if len(frames) < 3 {
		t.Fatalf("need at least 3 frames, got %d", len(frames))
	}

	m, err := OpenMirror(t.TempDir(), Cursor{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := m.Append(frames[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Append(frames[2]); !errors.Is(err, ErrMirrorGap) {
		t.Fatalf("skipped frame accepted: %v", err)
	}
	if _, err := m.Append(frames[0]); !errors.Is(err, ErrMirrorGap) {
		t.Fatalf("repeated frame accepted: %v", err)
	}

	// A resume cursor that does not match the file size is a gap too.
	dst2 := t.TempDir()
	m2, err := OpenMirror(dst2, Cursor{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m2.Append(frames[0]); err != nil {
		t.Fatal(err)
	}
	if err := m2.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenMirror(dst2, Cursor{Seg: frames[0].Seg, Off: frames[0].Off + int64(len(frames[0].Raw)) + 3}); !errors.Is(err, ErrMirrorGap) {
		t.Fatalf("mismatched resume size accepted: %v", err)
	}
	if _, err := OpenMirror(dst2, Cursor{Seg: 9, Off: headerSize + 1}); !errors.Is(err, ErrMirrorGap) {
		t.Fatalf("missing resume segment accepted: %v", err)
	}
}

func TestOldestCursorEmptyDir(t *testing.T) {
	if _, ok, err := OldestCursor(t.TempDir()); err != nil || ok {
		t.Fatalf("empty dir: ok=%v err=%v", ok, err)
	}
}
