package wal

import (
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

func TestRecoverTornTailTruncates(t *testing.T) {
	recs := []Record{
		{Kind: KindCycleOpen, Budget: 5},
		{Kind: KindQuit, Employee: 1},
		{Kind: KindQuit, Employee: 2},
	}
	// Tear the final write: chop bytes off the end, as a kill -9 mid-write
	// (or a lost page) would. A fresh journal per cut — truncating an already
	// recovered file back up would append zeros, which are a clean tail.
	for cut := int64(1); cut < 4; cut++ {
		dir := t.TempDir()
		j := openJournal(t, dir, Options{Fsync: FsyncNone})
		appendAll(t, j, recs...)
		mustClose(t, j)
		disk, seg := readDir(t, dir), filepath.Join(dir, segmentName(0))
		if len(disk) != 1 {
			t.Fatalf("want one segment, got %d files", len(disk))
		}
		if err := os.Truncate(seg, disk.size(0)-cut); err != nil {
			t.Fatal(err)
		}
		rec := recoverDir(t, dir)
		if !rec.Truncated {
			t.Fatalf("cut %d: torn tail not reported", cut)
		}
		if rec.TruncatedSegment != seg || rec.TruncatedOffset <= int64(headerSize) {
			t.Fatalf("cut %d: truncation located at %s@%d", cut, rec.TruncatedSegment, rec.TruncatedOffset)
		}
		// The last record is gone; the valid prefix survives.
		if !reflect.DeepEqual(rec.Tail, recs[:2]) {
			t.Fatalf("cut %d: recovered %+v, want first two records", cut, rec.Tail)
		}
		// Cut truncates the file physically: a second recovery is clean.
		mustCut(t, rec)
		rec2 := recoverDir(t, dir)
		if rec2.Truncated {
			t.Fatalf("cut %d: second recovery still reports corruption", cut)
		}
		if !reflect.DeepEqual(rec2.Tail, recs[:2]) {
			t.Fatalf("cut %d: second recovery lost records", cut)
		}
	}
}

func TestRecoverCRCCorruptionTruncates(t *testing.T) {
	dir := t.TempDir()
	recs := []Record{
		{Kind: KindQuit, Employee: 10},
		{Kind: KindQuit, Employee: 20},
		{Kind: KindQuit, Employee: 30},
	}
	j := openJournal(t, dir, Options{Fsync: FsyncNone})
	appendAll(t, j, recs...)
	mustClose(t, j)
	// Flip a bit in the middle record's payload (each record here is
	// 1-byte length + 2-byte payload + 4-byte CRC = 7 bytes).
	const mid = headerSize + 7 + 2
	writeAt(t, filepath.Join(dir, segmentName(0)), mid, []byte{readDir(t, dir)[segmentName(0)][mid] ^ 0x40})
	rec := recoverDir(t, dir)
	if !rec.Truncated {
		t.Fatal("CRC corruption not reported")
	}
	// Only the record before the corruption survives; the corrupt record
	// AND the (individually valid) one after it are gone — records after a
	// tear are not trustworthy.
	if !reflect.DeepEqual(rec.Tail, recs[:1]) {
		t.Fatalf("recovered %+v, want only the first record", rec.Tail)
	}
}

func TestRecoverCorruptionDropsLaterSegments(t *testing.T) {
	dir := t.TempDir()
	j := openJournal(t, dir, Options{Fsync: FsyncNone, SegmentBytes: 64})
	var recs []Record
	for i := 0; i < 40; i++ {
		recs = append(recs, Record{Kind: KindQuit, Employee: i})
	}
	appendAll(t, j, recs...)
	mustClose(t, j)
	segs, _ := segments(dir)
	if len(segs) < 3 {
		t.Fatalf("test needs ≥3 segments, got %d", len(segs))
	}
	// Corrupt the header of the second segment.
	if err := os.WriteFile(segs[1], []byte("BOGUS"), 0o644); err != nil {
		t.Fatal(err)
	}
	rec := recoverDir(t, dir)
	if !rec.Truncated {
		t.Fatal("corrupt segment header not reported")
	}
	mustCut(t, rec)
	// Everything from the corrupt segment onward is gone from disk.
	left, _ := segments(dir)
	if len(left) != 1 || left[0] != segs[0] {
		t.Fatalf("remaining segments %v, want only %s", left, segs[0])
	}
	// The first segment's records all survive, and nothing after.
	for i, r := range rec.Tail {
		if r.Employee != i {
			t.Fatalf("record %d = %+v", i, r)
		}
	}
	if len(rec.Tail) == 0 || len(rec.Tail) >= len(recs) {
		t.Fatalf("recovered %d of %d records", len(rec.Tail), len(recs))
	}
}

func TestRecoverEmptyAndMissingDir(t *testing.T) {
	rec, err := Recover(t.TempDir())
	if err != nil || rec.Records != 0 {
		t.Fatalf("empty dir: %+v, %v", rec, err)
	}
	if _, err := Recover(filepath.Join(t.TempDir(), "missing")); err != nil {
		t.Fatalf("missing dir should recover empty, got %v", err)
	}
}

func TestRecoverWhollyCorruptSegmentRemoved(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, segmentName(0))
	if err := os.WriteFile(path, []byte("not a segment at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	rec := recoverDir(t, dir)
	if !rec.Truncated || rec.Records != 0 {
		t.Fatalf("recovery = %+v", rec)
	}
	mustCut(t, rec)
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("wholly corrupt segment not removed")
	}
	// The journal must boot cleanly on the scrubbed directory.
	j, rec2, err := Open(dir, Options{Fsync: FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if rec2.Truncated || rec2.Records != 0 {
		t.Fatalf("second recovery = %+v", rec2)
	}
}

func TestOpenAfterTornTailAppendsCleanly(t *testing.T) {
	dir := t.TempDir()
	j := openJournal(t, dir, Options{Fsync: FsyncNone})
	appendAll(t, j, quits[:2]...)
	mustClose(t, j)
	if err := os.Truncate(filepath.Join(dir, segmentName(0)), readDir(t, dir).size(0)-2); err != nil {
		t.Fatal(err)
	}
	// Open recovers (truncating the tear) and appends on a fresh segment.
	j, rec, err := Open(dir, Options{Fsync: FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if !rec.Truncated || len(rec.Tail) != 1 {
		t.Fatalf("recovery = %+v", rec)
	}
	appendAll(t, j, Record{Kind: KindQuit, Employee: 3})
	mustClose(t, j)
	final := recoverDir(t, dir)
	want := []Record{quits[0], quits[2]}
	if !reflect.DeepEqual(final.Tail, want) {
		t.Fatalf("final tail %+v, want %+v", final.Tail, want)
	}
}

// abandonedJournal appends recs under FsyncAlways and abandons the journal.
// It returns the active segment's path and the cursor just past the last
// record, behind which the file holds only zeros.
func abandonedJournal(t *testing.T, dir string, recs []Record) (seg string, end Cursor) {
	t.Helper()
	j := openJournal(t, dir, Options{Fsync: FsyncAlways})
	end = appendAll(t, j, recs...)
	abandon(j)
	seg = filepath.Join(dir, segmentName(end.Seg))
	if size := readDir(t, dir).size(end.Seg); size <= end.Off {
		t.Fatalf("abandoned segment holds %d bytes, last frame ends at %d: no zero tail to recover from", size, end.Off)
	}
	return seg, end
}

// writeAt overwrites part of a segment file in place.
func writeAt(t *testing.T, path string, off int64, b []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt(b, off); err != nil {
		t.Fatal(err)
	}
}

var quits = []Record{
	{Kind: KindQuit, Employee: 1},
	{Kind: KindQuit, Employee: 2},
	{Kind: KindQuit, Employee: 3},
}

// A journal abandoned without Close was not torn: its zero tail is trimmed
// at the frame boundary without a truncation report, once.
func TestRecoverZeroTailIsNotCorruption(t *testing.T) {
	dir := t.TempDir()
	_, end := abandonedJournal(t, dir, quits)
	rec := recoverDir(t, dir)
	last, err := encode(nil, quits[len(quits)-1])
	if err != nil {
		t.Fatal(err)
	}
	if rec.Truncated || rec.Records != len(quits) || rec.End != end || rec.LastCRC != crc32.ChecksumIEEE(last) {
		t.Fatalf("recovery = %+v, want %d records ending at %v, nothing truncated", rec, len(quits), end)
	}
	if !reflect.DeepEqual(rec.Tail, quits) {
		t.Fatalf("recovered %+v, want %+v", rec.Tail, quits)
	}
	mustCut(t, rec)
	if size := readDir(t, dir).size(end.Seg); size != end.Off {
		t.Fatalf("segment holds %d bytes after recovery, want it trimmed to %d", size, end.Off)
	}
	if rec2 := recoverDir(t, dir); rec2.Truncated || rec2.End != end || !reflect.DeepEqual(rec2.Tail, quits) {
		t.Fatalf("second recovery changed something: %+v", rec2)
	}
}

// A frame torn in front of the preallocated zeros is still a torn frame.
func TestRecoverTornFrameBeforeZeroTail(t *testing.T) {
	dir := t.TempDir()
	seg, end := abandonedJournal(t, dir, quits)
	writeAt(t, seg, end.Off-2, []byte{0, 0}) // the last frame's CRC never made it
	rec := recoverDir(t, dir)
	if !rec.Truncated || rec.TruncatedSegment != seg || rec.TruncatedOffset != end.Off-7 {
		t.Fatalf("recovery = %+v, want a truncation at the last frame (%d)", rec, end.Off-7)
	}
	if !reflect.DeepEqual(rec.Tail, quits[:2]) {
		t.Fatalf("recovered %+v, want the first two records", rec.Tail)
	}
	mustCut(t, rec)
	if size := readDir(t, dir).size(end.Seg); size != end.Off-7 {
		t.Fatalf("segment holds %d bytes, want %d", size, end.Off-7)
	}
}

// Zeros are the end of the log only when nothing follows them: a frame
// behind a gap of zeros is not trusted, however well-formed.
func TestRecoverZerosThenFrameTruncates(t *testing.T) {
	dir := t.TempDir()
	seg, end := abandonedJournal(t, dir, quits)
	data := readDir(t, dir)[segmentName(end.Seg)]
	writeAt(t, seg, end.Off+16, []byte(data[headerSize:headerSize+7])) // a copy of the first frame
	rec := recoverDir(t, dir)
	if !rec.Truncated || rec.TruncatedOffset != end.Off {
		t.Fatalf("recovery = %+v, want a truncation at the zeros (%d)", rec, end.Off)
	}
	if !reflect.DeepEqual(rec.Tail, quits) {
		t.Fatalf("recovered %+v, want every record in front of the zeros", rec.Tail)
	}
}

// A crash right after a roll leaves a sealed, exact-size segment and a
// header-only preallocated one: both recover clean.
func TestRecoverCrashRightAfterRoll(t *testing.T) {
	dir := t.TempDir()
	j := openJournal(t, dir, Options{Fsync: FsyncNone, Interval: time.Hour, SegmentBytes: 64})
	full := Record{Kind: KindSnapshot, Snapshot: make([]byte, 64)}
	appendAll(t, j, full, Record{Kind: KindCycleClose}) // the second rolls, then sits in the buffer
	sealed := j.DurableCursor()
	abandon(j)
	if sealed.Seg != 0 || readDir(t, dir).size(0) != sealed.Off {
		t.Fatalf("segment 0 was not sealed at its exact size (durable %v)", sealed)
	}
	if size := readDir(t, dir).size(1); size != 64 {
		t.Fatalf("fresh segment holds %d bytes, want one 64-byte step", size)
	}
	rec := recoverDir(t, dir)
	if rec.Truncated || rec.Records != 1 || rec.End != sealed || rec.Segments != 2 {
		t.Fatalf("recovery = %+v, want 1 record ending at %v in 2 segments, nothing truncated", rec, sealed)
	}
	mustCut(t, rec)
	if size := readDir(t, dir).size(1); size != headerSize {
		t.Fatalf("header-only segment holds %d bytes after recovery, want %d", size, headerSize)
	}
	j2 := openJournal(t, dir, Options{Fsync: FsyncNone})
	if cur := j2.DurableCursor(); cur.Seg != 2 {
		t.Fatalf("reopened on segment %d, want 2", cur.Seg)
	}
}

// A zero tail is not a tear, so the segments after it are kept.
func TestRecoverZeroTailKeepsLaterSegments(t *testing.T) {
	dir := t.TempDir()
	j := openJournal(t, dir, Options{Fsync: FsyncNone, SegmentBytes: 64})
	var recs []Record
	for i := 0; i < 40; i++ {
		recs = append(recs, Record{Kind: KindQuit, Employee: i})
	}
	appendAll(t, j, recs...)
	mustClose(t, j)
	segs, _ := segments(dir)
	if len(segs) < 3 {
		t.Fatalf("test needs ≥3 segments, got %d", len(segs))
	}
	size := readDir(t, dir).size(0)
	if err := os.Truncate(segs[0], size+32); err != nil { // grows: 32 zeros
		t.Fatal(err)
	}
	rec := recoverDir(t, dir)
	if rec.Truncated || !reflect.DeepEqual(rec.Tail, recs) {
		t.Fatalf("recovery = truncated %v with %d of %d records", rec.Truncated, len(rec.Tail), len(recs))
	}
	mustCut(t, rec)
	if left, _ := segments(dir); !reflect.DeepEqual(left, segs) {
		t.Fatalf("segments after recovery %v, want all of %v", left, segs)
	}
	if got := readDir(t, dir).size(0); got != size {
		t.Fatalf("zero-tailed segment holds %d bytes after recovery, want %d", got, size)
	}
}

// TestRecoverWritesNothing: on every crashed shape Recover is a pure read —
// twice, with equal results, every file byte-identical and no dir synced —
// and Cut alone makes the directory what the scan reported: each segment
// left is the size the scan gave it, a second Cut and a fresh scan find
// nothing more to cut, and the dir is synced exactly when a corruption was
// cut.
func TestRecoverWritesNothing(t *testing.T) {
	for _, c := range []struct {
		name  string
		crash func(t *testing.T, dir string)
	}{
		{"torn tail", func(t *testing.T, dir string) {
			j := openJournal(t, dir, Options{Fsync: FsyncNone})
			appendAll(t, j, quits...)
			mustClose(t, j)
			if err := os.Truncate(filepath.Join(dir, segmentName(0)), readDir(t, dir).size(0)-3); err != nil {
				t.Fatal(err)
			}
		}},
		{"crc flip", func(t *testing.T, dir string) {
			j := openJournal(t, dir, Options{Fsync: FsyncNone})
			appendAll(t, j, quits...)
			mustClose(t, j)
			writeAt(t, filepath.Join(dir, segmentName(0)), headerSize+7+2, []byte{0x40})
		}},
		{"zero tail", func(t *testing.T, dir string) { abandonedJournal(t, dir, quits) }},
		{"zeros then a frame", func(t *testing.T, dir string) {
			seg, end := abandonedJournal(t, dir, quits)
			writeAt(t, seg, end.Off+16, []byte(readDir(t, dir)[segmentName(end.Seg)][headerSize:headerSize+7]))
		}},
		{"wholly corrupt segment", func(t *testing.T, dir string) {
			if err := os.WriteFile(filepath.Join(dir, segmentName(0)), []byte("not a segment at all"), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"corruption then later segments", func(t *testing.T, dir string) {
			j := openJournal(t, dir, Options{Fsync: FsyncNone, SegmentBytes: 64})
			for i := 0; i < 40; i++ {
				appendAll(t, j, Record{Kind: KindQuit, Employee: i})
			}
			mustClose(t, j)
			writeAt(t, filepath.Join(dir, segmentName(1)), 0, []byte("BOGUS"))
		}},
		{"crash right after a roll", func(t *testing.T, dir string) {
			j := openJournal(t, dir, Options{Fsync: FsyncNone, Interval: time.Hour, SegmentBytes: 64})
			appendAll(t, j, Record{Kind: KindSnapshot, Snapshot: make([]byte, 64)}, Record{Kind: KindCycleClose})
			abandon(j)
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			c.crash(t, dir)
			syncs := recordDirSyncs(t)
			rec, again := recoverDir(t, dir), recoverDir(t, dir)
			if len(*syncs) != 0 {
				t.Fatalf("Recover synced %q", *syncs)
			}
			if !reflect.DeepEqual(rec, again) {
				t.Fatalf("two scans of the same dir differ:\n%+v\n%+v", rec, again)
			}

			mustCut(t, rec)
			var want []string
			if rec.Truncated {
				want = []string{dir}
			}
			if !reflect.DeepEqual(*syncs, want) {
				t.Fatalf("Cut synced %q, want %q", *syncs, want)
			}
			cutOnce := readDir(t, dir)
			if len(cutOnce) != len(rec.segBytes) {
				t.Fatalf("Cut left %d segments, the scan reported %d", len(cutOnce), len(rec.segBytes))
			}
			for n, want := range rec.segBytes {
				if size := cutOnce.size(n); size != want {
					t.Fatalf("Cut left segment %d at %d bytes, the scan reported %d", n, size, want)
				}
			}
			mustCut(t, rec)
			after := recoverDir(t, dir)
			mustCut(t, after)
			if !reflect.DeepEqual(readDir(t, dir), cutOnce) || after.Truncated ||
				!reflect.DeepEqual(after.Tail, rec.Tail) || after.End != rec.End || after.Records != rec.Records {
				t.Fatalf("after the cut: %+v, want the cut state %+v and nothing left to cut", after, rec)
			}
		})
	}
}
