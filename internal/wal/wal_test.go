package wal

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"github.com/auditgames/sag/internal/core"
	"github.com/auditgames/sag/internal/fallback"
	"github.com/auditgames/sag/internal/obs"
)

// sampleRecords returns one record of every kind with non-trivial fields.
func sampleRecords() []Record {
	return []Record{
		{Kind: KindCycleOpen, Budget: 12.5},
		{Kind: KindDecision, Decision: core.DecisionRecord{
			Seq: 0, Type: 3, Time: 90 * time.Minute,
			Warned: true, AppliedSAG: true, Fallback: fallback.None,
			Theta: 0.41, AuditCharge: 0.3125,
			BudgetBefore: 12.5, BudgetAfter: 11.875,
			SSEUtility: -42.7, OSSPUtility: -31.9,
		}},
		{Kind: KindMeta, Meta: Meta{Alerted: true}},
		{Kind: KindMeta, Meta: Meta{Alerted: true, Warned: true}},
		{Kind: KindMeta},
		{Kind: KindQuit, Employee: 417},
		{Kind: KindDecision, Decision: core.DecisionRecord{
			Seq: 1, Type: 0, Time: time.Hour,
			Vacuous: true, Fallback: fallback.Static,
			BudgetBefore: 11.875, BudgetAfter: 11.875,
		}},
		{Kind: KindCycleClose},
		{Kind: KindSnapshot, Snapshot: []byte(`{"engine":{"budget":1}}`)},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, r := range sampleRecords() {
		payload, err := encode(nil, r)
		if err != nil {
			t.Fatalf("encode %v: %v", r.Kind, err)
		}
		back, err := DecodeRecord(payload)
		if err != nil {
			t.Fatalf("decode %v: %v", r.Kind, err)
		}
		if !reflect.DeepEqual(r, back) {
			t.Fatalf("round trip changed %v record:\n got %+v\nwant %+v", r.Kind, back, r)
		}
	}
}

func TestEncodeRejectsInvalid(t *testing.T) {
	cases := []Record{
		{Kind: Kind(99)},
		{Kind: KindDecision, Decision: core.DecisionRecord{Type: -1}},
		{Kind: KindDecision, Decision: core.DecisionRecord{Time: -time.Second}},
		{Kind: KindQuit, Employee: -4},
	}
	for _, r := range cases {
		if _, err := encode(nil, r); err == nil {
			t.Errorf("encode accepted invalid record %+v", r)
		}
	}
}

func TestDecodeRejectsTrailingBytes(t *testing.T) {
	for _, r := range sampleRecords() {
		if r.Kind == KindSnapshot {
			continue // snapshot payloads are opaque, any length is valid
		}
		payload, err := encode(nil, r)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeRecord(append(payload, 0xAA)); err == nil {
			t.Errorf("decode accepted %v record with a trailing byte", r.Kind)
		}
	}
}

func TestDecodeFloatBitExact(t *testing.T) {
	// The budget chain must survive the journal bit for bit, including
	// values that decimal formats mangle.
	vals := []float64{0, math.Pi, 1.0 / 3.0, math.SmallestNonzeroFloat64, math.MaxFloat64}
	for _, v := range vals {
		payload, err := encode(nil, Record{Kind: KindCycleOpen, Budget: v})
		if err != nil {
			t.Fatal(err)
		}
		back, err := DecodeRecord(payload)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(back.Budget) != math.Float64bits(v) {
			t.Fatalf("float %g changed bits through the journal", v)
		}
	}
}

// appendAll appends records and waits for each durability ack.
func appendAll(t *testing.T, j *Journal, recs []Record) {
	t.Helper()
	for _, r := range recs {
		wait, err := j.Append(r)
		if err != nil {
			t.Fatalf("append %v: %v", r.Kind, err)
		}
		if wait != nil {
			if err := wait(); err != nil {
				t.Fatalf("wait %v: %v", r.Kind, err)
			}
		}
	}
}

func TestJournalAppendRecover(t *testing.T) {
	for _, policy := range []FsyncPolicy{FsyncAlways, FsyncInterval, FsyncNone} {
		t.Run(policy.String(), func(t *testing.T) {
			dir := t.TempDir()
			j, rec, err := Open(dir, Options{Fsync: policy, Interval: time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			if rec.Records != 0 || rec.Snapshot != nil {
				t.Fatalf("fresh dir recovered %+v", rec)
			}
			want := sampleRecords()
			appendAll(t, j, want)
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}

			rec2, err := Recover(dir)
			if err != nil {
				t.Fatal(err)
			}
			if rec2.Records != len(want) {
				t.Fatalf("recovered %d records, want %d", rec2.Records, len(want))
			}
			// The final sample record is a snapshot, so the tail is empty and
			// the snapshot blob is the last one written.
			if string(rec2.Snapshot) != string(want[len(want)-1].Snapshot) {
				t.Fatalf("snapshot blob changed: %q", rec2.Snapshot)
			}
			if len(rec2.Tail) != 0 {
				t.Fatalf("tail has %d records, want 0 (snapshot is last)", len(rec2.Tail))
			}
		})
	}
}

func TestRecoverTailAfterSnapshot(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir, Options{Fsync: FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Snapshot([]byte("snap-1")); err != nil {
		t.Fatal(err)
	}
	tail := []Record{
		{Kind: KindMeta, Meta: Meta{Alerted: true}},
		{Kind: KindQuit, Employee: 7},
	}
	appendAll(t, j, tail)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if string(rec.Snapshot) != "snap-1" {
		t.Fatalf("snapshot = %q", rec.Snapshot)
	}
	if !reflect.DeepEqual(rec.Tail, tail) {
		t.Fatalf("tail = %+v, want %+v", rec.Tail, tail)
	}
}

func TestJournalRollsSegments(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir, Options{Fsync: FsyncNone, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	var want []Record
	for i := 0; i < 64; i++ {
		r := Record{Kind: KindQuit, Employee: i}
		want = append(want, r)
	}
	appendAll(t, j, want)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("expected multiple segments at a 256-byte roll size, got %d", len(segs))
	}
	rec, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rec.Tail, want) {
		t.Fatalf("recovered %d records across %d segments, want %d", len(rec.Tail), len(segs), len(want))
	}
}

func TestReopenStartsFreshSegment(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir, Options{Fsync: FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, j, []Record{{Kind: KindCycleClose}})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, rec, err := Open(dir, Options{Fsync: FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if rec.Records != 1 {
		t.Fatalf("recovered %d records, want 1", rec.Records)
	}
	segs, err := segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Sealed segment + the reopened journal's fresh one.
	if len(segs) != 2 {
		t.Fatalf("expected sealed + fresh segment, got %v", segs)
	}
}

func TestSnapshotPrunesSealedSegments(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir, Options{Fsync: FsyncNone, SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		appendAll(t, j, []Record{{Kind: KindQuit, Employee: i}})
	}
	before, _ := segments(dir)
	if len(before) < 3 {
		t.Fatalf("test needs several segments, got %d", len(before))
	}
	if err := j.Snapshot([]byte("snap")); err != nil {
		t.Fatal(err)
	}
	after, err := segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != 1 {
		t.Fatalf("snapshot kept %d segments, want 1: %v", len(after), after)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if string(rec.Snapshot) != "snap" || len(rec.Tail) != 0 {
		t.Fatalf("recovered snapshot=%q tail=%d", rec.Snapshot, len(rec.Tail))
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir, Options{Fsync: FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil { // idempotent
		t.Fatalf("second close: %v", err)
	}
	if _, err := j.Append(Record{Kind: KindCycleClose}); err != ErrClosed {
		t.Fatalf("append after close: %v, want ErrClosed", err)
	}
	if err := j.Sync(); err != ErrClosed {
		t.Fatalf("sync after close: %v, want ErrClosed", err)
	}
}

func TestConcurrentGroupCommit(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir, Options{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	const workers, per = 8, 50
	var wg sync.WaitGroup
	errs := make(chan error, workers*per)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				wait, err := j.Append(Record{Kind: KindQuit, Employee: w*per + i})
				if err != nil {
					errs <- err
					return
				}
				if err := wait(); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Tail) != workers*per {
		t.Fatalf("recovered %d records, want %d", len(rec.Tail), workers*per)
	}
	seen := make(map[int]bool)
	for _, r := range rec.Tail {
		if r.Kind != KindQuit || seen[r.Employee] {
			t.Fatalf("bad or duplicate record %+v", r)
		}
		seen[r.Employee] = true
	}
}

// TestAppendWaitAcrossRolls is the regression test for the fsync-vs-roll
// race: a commit round captures the active file, drops mu, and fsyncs; a
// concurrent Append that rolls the segment in that window has already
// flushed, fsynced and closed that file. The late Sync then fails with
// "file already closed" although the record is durable in the sealed
// segment, and the waiter must succeed. Tiny segments make nearly every
// round race a roll.
func TestAppendWaitAcrossRolls(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir, Options{Fsync: FsyncAlways, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	// The durable cursor must never move backward, rolls or not.
	sub, cancel := j.Subscribe()
	defer cancel()
	stop := make(chan struct{})
	watched := make(chan struct{})
	go func() {
		defer close(watched)
		var last Cursor
		for {
			select {
			case <-stop:
				return
			case <-sub:
				if cur := j.DurableCursor(); cur.Less(last) {
					t.Errorf("durable cursor moved backward: %v after %v", cur, last)
				} else {
					last = cur
				}
			}
		}
	}()

	const workers, per = 8, 500
	var wg sync.WaitGroup
	var acked atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				wait, err := j.Append(Record{Kind: KindQuit, Employee: w*per + i})
				if err == nil {
					err = wait()
				}
				if err != nil {
					t.Errorf("worker %d append %d: %v", w, i, err)
					return
				}
				acked.Add(1)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-watched
	if got := j.DurableRecords(); got != acked.Load() {
		t.Fatalf("durable records %d, acknowledged %d", got, acked.Load())
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if int64(rec.Records) != acked.Load() || acked.Load() != workers*per {
		t.Fatalf("recovered %d records, acknowledged %d, want %d", rec.Records, acked.Load(), workers*per)
	}
	if rec.Segments < 10 {
		t.Fatalf("only %d segments: the test never exercised a roll", rec.Segments)
	}
}

// TestRollUnderARound drives the same race deterministically: the round
// has flushed and captured the active file when an Append rolls the
// segment — flush, fsync, close — under it. The round's own Sync then hits
// a closed file; the seal already covered the record, so the wait succeeds
// and the stale position it captured never moves the durable cursor back.
func TestRollUnderARound(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir, Options{Fsync: FsyncAlways, SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	wait, err := j.Append(Record{Kind: KindSnapshot, Snapshot: make([]byte, 64)}) // fills the segment
	if err != nil {
		t.Fatal(err)
	}
	var wait2 func() error
	j.beforeSync = func() {
		j.beforeSync = nil
		if wait2, err = j.Append(Record{Kind: KindCycleClose}); err != nil { // rolls first
			t.Errorf("append during the round: %v", err)
		}
	}
	if err := wait(); err != nil {
		t.Fatalf("wait of a record sealed under its round: %v", err)
	}
	sealed := j.DurableCursor()
	if sealed.Seg != 0 || j.DurableRecords() != 1 {
		t.Fatalf("after the roll: durable %v with %d records, want the sealed end of segment 0 with 1", sealed, j.DurableRecords())
	}
	if err := wait2(); err != nil {
		t.Fatal(err)
	}
	if cur := j.DurableCursor(); !sealed.Less(cur) || cur.Seg != 1 || j.DurableRecords() != 2 {
		t.Fatalf("after the next round: durable %v with %d records, want segment 1 with 2", cur, j.DurableRecords())
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if rec, err := Recover(dir); err != nil || rec.Records != 2 {
		t.Fatalf("recovered %+v, %v; want 2 records", rec, err)
	}
}

// refusePreallocation makes fallocate answer err for the rest of the test.
func refusePreallocation(t *testing.T, err error) {
	t.Helper()
	prev := preallocate
	preallocate = func(*os.File, int64) error { return err }
	t.Cleanup(func() { preallocate = prev })
}

// TestGrowingAppendFallback: on a file system without fallocate the journal
// is what it was before preallocation — the active file ends at its last
// flushed frame — and the roll races come out the same.
func TestGrowingAppendFallback(t *testing.T) {
	refusePreallocation(t, errors.ErrUnsupported)
	dir := t.TempDir()
	j, _, err := Open(dir, Options{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, j, sampleRecords())
	end := j.DurableCursor()
	if size := fileSize(t, filepath.Join(dir, segmentName(end.Seg))); size != end.Off {
		t.Fatalf("active segment holds %d bytes, want it to end at the last frame (%d)", size, end.Off)
	}
	if st := j.RetainStats(); st.TotalBytes != end.Off {
		t.Fatalf("TotalBytes = %d, disk holds %d", st.TotalBytes, end.Off)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	t.Run("AppendWaitAcrossRolls", TestAppendWaitAcrossRolls)
	t.Run("RollUnderARound", TestRollUnderARound)
}

// TestPreallocationFailureFailsTheAppend: a full disk is not "unsupported".
// The append that needed the space fails and nothing of it is journaled.
func TestPreallocationFailureFailsTheAppend(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir, Options{Fsync: FsyncAlways, SegmentBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, j, []Record{{Kind: KindCycleClose}})
	refusePreallocation(t, syscall.ENOSPC)
	if _, err := j.Append(Record{Kind: KindSnapshot, Snapshot: make([]byte, allocStep)}); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("append past a full disk: %v, want ENOSPC", err)
	}
	if _, _, err := Open(t.TempDir(), Options{}); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("open on a full disk: %v, want ENOSPC", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if rec, err := Recover(dir); err != nil || rec.Records != 1 || rec.Truncated {
		t.Fatalf("recovered %+v, %v; want the 1 record appended before the disk filled", rec, err)
	}
}

// TestAppendsDoNotMoveTheFileSize pins what makes a commit round a pure data
// write: the active file's size is constant across the appends inside one
// preallocation step and moves by exactly one step at the boundary.
func TestAppendsDoNotMoveTheFileSize(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir, Options{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	active := filepath.Join(dir, segmentName(0))
	blob := Record{Kind: KindSnapshot, Snapshot: make([]byte, 1000)}
	const frame = 2 + 1 + 1000 + 4 // length prefix, kind, blob, CRC
	for j.DurableCursor().Off+frame <= allocStep {
		appendAll(t, j, []Record{blob})
		if size := fileSize(t, active); size != allocStep {
			t.Fatalf("file size %d after an append inside the first step, want %d", size, allocStep)
		}
	}
	appendAll(t, j, []Record{blob}) // crosses the allocated end
	if size := fileSize(t, active); size != 2*allocStep {
		t.Fatalf("file size %d after crossing the boundary, want %d", size, 2*allocStep)
	}
	if st := j.RetainStats(); st.TotalBytes != 2*allocStep {
		t.Fatalf("TotalBytes = %d, disk holds %d", st.TotalBytes, 2*allocStep)
	}

	// Segments smaller than a step are preallocated whole.
	small := t.TempDir()
	j2, _, err := Open(small, Options{Fsync: FsyncNone, SegmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if size := fileSize(t, filepath.Join(small, segmentName(0))); size != 4096 {
		t.Fatalf("4 KiB segment preallocated to %d bytes", size)
	}
}

// TestRecordLargerThanAStep: a snapshot blob bigger than the preallocation
// step extends the allocation to cover it, in whole steps, and survives a
// crash with the zero tail behind it.
func TestRecordLargerThanAStep(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir, Options{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	blob := make([]byte, 3*allocStep+123)
	for i := range blob {
		blob[i] = byte(i)
	}
	appendAll(t, j, []Record{{Kind: KindSnapshot, Snapshot: blob}, {Kind: KindQuit, Employee: 9}})
	if size := fileSize(t, filepath.Join(dir, segmentName(0))); size != 4*allocStep {
		t.Fatalf("file size %d, want the %d covering the blob", size, 4*allocStep)
	}
	abandon(j)
	rec, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Truncated || string(rec.Snapshot) != string(blob) || len(rec.Tail) != 1 {
		t.Fatalf("recovered truncated=%v snapshot=%dB tail=%d, want the whole blob + 1 record", rec.Truncated, len(rec.Snapshot), len(rec.Tail))
	}
}

// TestSnapshotSizesAroundTheWriteBuffer: blobs that fit the write buffer,
// fill it exactly, overflow it by one byte and dwarf it all land behind a
// buffered record and in front of another, under every fsync policy, and
// come back from recovery byte for byte.
func TestSnapshotSizesAroundTheWriteBuffer(t *testing.T) {
	for _, policy := range []FsyncPolicy{FsyncAlways, FsyncInterval, FsyncNone} {
		for _, size := range []int{1, writeBufBytes - 1, writeBufBytes, writeBufBytes + 1, 1 << 20} {
			dir := t.TempDir()
			j, _, err := Open(dir, Options{Fsync: policy, Interval: time.Hour})
			if err != nil {
				t.Fatal(err)
			}
			blob := make([]byte, size)
			for i := range blob {
				blob[i] = byte(i*7 + size)
			}
			appendAll(t, j, []Record{{Kind: KindQuit, Employee: 3}})
			if err := j.Snapshot(blob); err != nil {
				t.Fatalf("%v, %d bytes: %v", policy, size, err)
			}
			tail := []Record{{Kind: KindCycleOpen, Budget: 12.5}}
			appendAll(t, j, tail)
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			rec, err := Recover(dir)
			if err != nil {
				t.Fatal(err)
			}
			if rec.Truncated || rec.Records != 3 || !bytes.Equal(rec.Snapshot, blob) || !reflect.DeepEqual(rec.Tail, tail) {
				t.Fatalf("%v, %d bytes: recovered truncated=%v records=%d snapshot=%dB tail=%+v",
					policy, size, rec.Truncated, rec.Records, len(rec.Snapshot), rec.Tail)
			}
		}
	}
}

// TestJournalKeepsNoBufferLargerThanAPage: what a journal pins does not grow
// with what went through it — not with the largest snapshot ever written
// (encBuf used to keep a copy's worth of capacity for good), not with a roll
// (the write buffer is Reset onto the next segment, not replaced).
func TestJournalKeepsNoBufferLargerThanAPage(t *testing.T) {
	j, _, err := Open(t.TempDir(), Options{Fsync: FsyncAlways, SegmentBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	bw := j.bw
	if err := j.Snapshot(make([]byte, 1<<20)); err != nil {
		t.Fatal(err)
	}
	appendAll(t, j, sampleRecords()) // the segment is over its roll size: this rolls
	if j.seq == 0 {
		t.Fatal("the journal never rolled")
	}
	if j.bw != bw || bw.Size() != writeBufBytes {
		t.Fatalf("write buffer replaced=%v size=%d, want the one %d-byte buffer throughout", j.bw != bw, bw.Size(), writeBufBytes)
	}
	if cap(j.encBuf) > writeBufBytes {
		t.Fatalf("encBuf keeps %d bytes after a 1 MiB snapshot, want at most a page (%d)", cap(j.encBuf), writeBufBytes)
	}
}

// TestSealedSegmentsAreExact: a roll and Close cut the preallocated tail, so
// a sealed file is byte for byte what the format has always been — here the
// file the build before preallocation wrote for the same records.
func TestSealedSegmentsAreExact(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir, Options{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, j, sampleRecords())
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, segmentName(0)))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "sealed-sample-records.sagw"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("sealed segment differs from the pre-preallocation build's:\n got %x\nwant %x", got, want)
	}

	rolled := t.TempDir()
	j, _, err = Open(rolled, Options{Fsync: FsyncAlways, SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	fillSegments(t, j, 3)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	for seq, n := range j.sealedBytes {
		if size := fileSize(t, filepath.Join(rolled, segmentName(seq))); size != n {
			t.Fatalf("sealed segment %d holds %d bytes, accounted %d", seq, size, n)
		}
	}
	if rec, err := Recover(rolled); err != nil || rec.Truncated {
		t.Fatalf("recovery after a clean close: %+v, %v", rec, err)
	}
}

// fsyncs reads the journal's fsync count off its histogram.
func fsyncs(reg *obs.Registry) uint64 {
	return reg.Histogram(MetricFsyncSeconds, "", nil).Count()
}

// TestQueuedWaitersShareOneRound pins the group commit's shape: a leader's
// round plus N waiters that queued behind it cost at most two fsyncs — the
// first queued waiter leads a round covering all of them, the rest return
// without touching the disk. Holding syncMu stands in for "a round is in
// flight": everything appended meanwhile belongs to the next round.
func TestQueuedWaitersShareOneRound(t *testing.T) {
	reg := obs.NewRegistry()
	j, _, err := Open(t.TempDir(), Options{Fsync: FsyncAlways, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	before := fsyncs(reg)

	appendAll(t, j, []Record{{Kind: KindCycleClose}}) // the leader: one round of its own

	const n = 16
	j.syncMu.Lock()
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wait, err := j.Append(Record{Kind: KindQuit, Employee: i})
		if err != nil {
			t.Fatal(err)
		}
		go func() { errs <- wait() }()
	}
	j.syncMu.Unlock()
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("queued waiter: %v", err)
		}
	}
	if got := fsyncs(reg) - before; got > 2 {
		t.Fatalf("1 leader + %d queued waiters cost %d fsyncs, want <= 2", n, got)
	}
	if got := j.DurableRecords(); got != n+1 {
		t.Fatalf("durable records %d, want %d", got, n+1)
	}
}

// TestFailedRoundFailsEveryWaiter: when a round's fsync fails, every record
// it covered sees that error — including waiters that reach syncMu only
// after the round is over, and even after a later round has succeeded.
func TestFailedRoundFailsEveryWaiter(t *testing.T) {
	j, _, err := Open(t.TempDir(), Options{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	waits := make([]func() error, n)
	for i := range waits {
		if waits[i], err = j.Append(Record{Kind: KindQuit, Employee: i}); err != nil {
			t.Fatal(err)
		}
	}
	// Break the active file under the journal: the round's flush/fsync fails.
	j.mu.Lock()
	broken := j.f
	_ = broken.Close()
	j.mu.Unlock()

	first := waits[0]()
	if first == nil {
		t.Fatal("round over a closed file succeeded")
	}
	// Heal the journal and let a later round succeed.
	j.mu.Lock()
	f, err := os.OpenFile(filepath.Join(j.dir, segmentName(j.seq)), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		j.mu.Unlock()
		t.Fatal(err)
	}
	j.f = f
	j.bw.Reset(f)
	j.mu.Unlock()
	appendAll(t, j, []Record{{Kind: KindCycleClose}})

	for i, wait := range waits[1:] {
		if err := wait(); err != first {
			t.Fatalf("waiter %d of the failed round saw %v, want the round's error %v", i+1, err, first)
		}
	}
	_ = j.Close()
}

func TestParseFsyncPolicy(t *testing.T) {
	for _, p := range []FsyncPolicy{FsyncAlways, FsyncInterval, FsyncNone} {
		got, err := ParseFsyncPolicy(p.String())
		if err != nil || got != p {
			t.Fatalf("ParseFsyncPolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParseFsyncPolicy("sometimes"); err == nil {
		t.Fatal("accepted unknown policy")
	}
}

func TestMetricsWired(t *testing.T) {
	reg := obs.NewRegistry()
	dir := t.TempDir()
	j, _, err := Open(dir, Options{Fsync: FsyncAlways, Metrics: reg, Labels: []obs.Label{obs.L("tenant", "x")}})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, j, []Record{{Kind: KindCycleClose}})
	if err := j.Snapshot([]byte("abcde")); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter(MetricAppendsTotal, "", obs.L("tenant", "x")).Value(); got != 2 {
		t.Fatalf("%s = %v, want 2", MetricAppendsTotal, got)
	}
	if got := reg.Gauge(MetricSnapshotBytes, "", obs.L("tenant", "x")).Value(); got != 5 {
		t.Fatalf("%s = %v, want 5", MetricSnapshotBytes, got)
	}
	if fsyncs(reg) == 0 {
		t.Fatalf("%s never observed", MetricFsyncSeconds)
	}
}

func TestRandomizedRoundTripThroughJournal(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dir := t.TempDir()
	j, _, err := Open(dir, Options{Fsync: FsyncNone, SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	var want []Record
	for i := 0; i < 300; i++ {
		var r Record
		switch rng.Intn(5) {
		case 0:
			r = Record{Kind: KindDecision, Decision: core.DecisionRecord{
				Seq:          uint64(i),
				Type:         rng.Intn(10),
				Time:         time.Duration(rng.Int63n(int64(24 * time.Hour))),
				Warned:       rng.Intn(2) == 0,
				Vacuous:      rng.Intn(8) == 0,
				AppliedSAG:   rng.Intn(2) == 0,
				Fallback:     fallback.Level(rng.Intn(4)),
				Theta:        rng.Float64(),
				AuditCharge:  rng.Float64(),
				BudgetBefore: rng.Float64() * 100,
				BudgetAfter:  rng.Float64() * 100,
				SSEUtility:   rng.NormFloat64() * 1000,
				OSSPUtility:  rng.NormFloat64() * 1000,
			}}
		case 1:
			r = Record{Kind: KindMeta, Meta: Meta{Alerted: rng.Intn(2) == 0, Warned: rng.Intn(2) == 0}}
		case 2:
			r = Record{Kind: KindQuit, Employee: rng.Intn(10000)}
		case 3:
			r = Record{Kind: KindCycleOpen, Budget: rng.Float64() * 50}
		case 4:
			r = Record{Kind: KindCycleClose}
		}
		want = append(want, r)
	}
	appendAll(t, j, want)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rec.Tail, want) {
		t.Fatal("randomized records did not survive the journal byte-exact")
	}
}

func TestOpenCreatesDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested", "wal")
	j, _, err := Open(dir, Options{Fsync: FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if _, err := os.Stat(dir); err != nil {
		t.Fatal(err)
	}
}
