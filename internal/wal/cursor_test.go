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

// shipFrames reads every durable frame of j from cur.
func shipFrames(t *testing.T, j *Journal, cur Cursor) []Frame {
	t.Helper()
	var out []Frame
	durable := j.DurableCursor()
	next, err := j.ReadFrames(cur, func(fr Frame) error {
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

	frames := shipFrames(t, j, Cursor{})
	if len(frames) != len(want) {
		t.Fatalf("read %d frames, want %d", len(frames), len(want))
	}
	for i, fr := range frames {
		_, payload, _, err := parseFrame(fr.Raw)
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
	rest := shipFrames(t, j, frames[2].End())
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
func tailWindow(tb testing.TB) (j *Journal, cur, limit Cursor) {
	tb.Helper()
	j, _, err := Open(tb.TempDir(), Options{Fsync: FsyncNone, Interval: time.Hour})
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
	return j, cur, j.DurableCursor()
}

// TestReadFramesReadsOnlyTheWindow: tailing a busy tenant must cost the
// bytes asked for, not the segment — reading the whole file on every wake-up
// is quadratic per segment.
func TestReadFramesReadsOnlyTheWindow(t *testing.T) {
	j, cur, limit := tailWindow(t)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	frames := 0
	next, err := j.ReadFrames(cur, func(Frame) error { frames++; return nil })
	runtime.ReadMemStats(&ms)
	if err != nil || next != limit || frames != 14 {
		t.Fatalf("read %d frames up to %v (%v), want 14 up to %v", frames, next, err, limit)
	}
	if got := ms.TotalAlloc - before; got > 16<<10 {
		t.Fatalf("a %d-byte window of a %d-byte segment allocated %d bytes", limit.Off-cur.Off, limit.Off, got)
	}
	// The resume handshake reads no further than its cursor either.
	if err := j.ValidateCursor(Cursor{Seg: 0, Off: headerSize}, 0); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkReadFramesTail(b *testing.B) {
	j, cur, _ := tailWindow(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := j.ReadFrames(cur, func(Frame) error { return nil }); err != nil {
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
	if err := j.ValidateCursor(rec.End, rec.LastCRC); err != nil {
		t.Fatalf("recovered cursor rejected: %v", err)
	}
	if err := j.ValidateCursor(rec.End, rec.LastCRC+1); !errors.Is(err, ErrCursorInvalid) {
		t.Fatalf("wrong CRC accepted: %v", err)
	}
	if err := j.ValidateCursor(Cursor{Seg: rec.End.Seg, Off: rec.End.Off - 1}, 0); !errors.Is(err, ErrCursorInvalid) {
		t.Fatalf("non-boundary offset accepted: %v", err)
	}
	if err := j.ValidateCursor(Cursor{Seg: rec.End.Seg + 7, Off: headerSize}, 0); !errors.Is(err, ErrCursorInvalid) {
		t.Fatalf("future segment accepted: %v", err)
	}
	// The segment start needs no CRC proof (no preceding frame).
	if err := j.ValidateCursor(Cursor{Seg: rec.End.Seg, Off: headerSize}, 12345); err != nil {
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
	oldest, lease := j.Seed()
	lease.Release()
	if oldest.Seg == 0 {
		t.Fatal("snapshot should have pruned segment 0")
	}
	if err := j.ValidateCursor(Cursor{Seg: 0, Off: headerSize}, 0); !errors.Is(err, ErrCursorGone) {
		t.Fatalf("pruned cursor: %v, want ErrCursorGone", err)
	}
	if _, err := j.ReadFrames(Cursor{Seg: 0, Off: headerSize}, func(Frame) error { return nil }); !errors.Is(err, ErrCursorGone) {
		t.Fatalf("ReadFrames over pruned segment: %v, want ErrCursorGone", err)
	}
	if frames := shipFrames(t, j, j.snapAt); len(frames) != 1 || Kind(frames[0].Raw[1]) != KindSnapshot {
		t.Fatalf("snapshot cursor %v (oldest retained %v) is not the snapshot frame ending the journal: %d frames from it", j.snapAt, oldest, len(frames))
	}
}

// TestValidateCursorSegmentVanishes is the deterministic form of the
// prune-vs-validate race: the index still names the cursor's segment but
// reading it finds nothing (Prune unlinks the file before it forgets the
// segment; a dangling symlink is the same thing seen through a listing). The holder must get a cursor error —
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
	cur := Cursor{Seg: 0, Off: headerSize}
	if err := j.ValidateCursor(cur, 0); err != nil {
		t.Fatalf("cursor rejected before the prune: %v", err)
	}
	path := filepath.Join(dir, segmentName(cur.Seg))
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := j.ValidateCursor(cur, 0); !errors.Is(err, ErrCursorGone) {
		t.Fatalf("pruned cursor: %v, want ErrCursorGone", err)
	}
	if err := os.Symlink(filepath.Join(dir, "unlinked"), path); err != nil {
		t.Skipf("no symlinks here: %v", err)
	}
	if err := j.ValidateCursor(cur, 0); !errors.Is(err, ErrCursorGone) {
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
	frames := shipFrames(t, j, Cursor{})
	half := len(frames) / 2
	for _, fr := range frames[:half] {
		if _, _, err := m.Append(fr); err != nil {
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
		if _, _, err := m.Append(fr); err != nil {
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
	frames := shipFrames(t, j, Cursor{})
	if len(frames) < 3 {
		t.Fatalf("need at least 3 frames, got %d", len(frames))
	}

	m, err := OpenMirror(t.TempDir(), Cursor{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, _, err := m.Append(frames[0]); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Append(frames[2]); !errors.Is(err, ErrMirrorGap) {
		t.Fatalf("skipped frame accepted: %v", err)
	}
	if _, _, err := m.Append(frames[0]); !errors.Is(err, ErrMirrorGap) {
		t.Fatalf("repeated frame accepted: %v", err)
	}

	// A resume cursor that does not match the file size is a gap too.
	dst2 := t.TempDir()
	m2, err := OpenMirror(dst2, Cursor{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m2.Append(frames[0]); err != nil {
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

// TestSeedEmptyJournal: with nothing written yet the handshake starts at the
// durable cursor — the active segment's first frame.
func TestSeedEmptyJournal(t *testing.T) {
	j, _, err := Open(t.TempDir(), Options{Fsync: FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	start, lease := j.Seed()
	defer lease.Release()
	if durable := j.DurableCursor(); start != durable {
		t.Fatalf("seed of an empty journal = %v, want the durable cursor %v", start, durable)
	}
	if floor := j.RetainStats().LeaseFloorSeg; floor != start.Seg {
		t.Fatalf("lease floor %d, want %d", floor, start.Seg)
	}
}
