package wal

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

func TestRetainStatsMatchesDisk(t *testing.T) {
	dir := t.TempDir()
	j := openJournal(t, dir, Options{Fsync: FsyncAlways, SegmentBytes: 128})

	for appendAll(t, j, alerted).Seg < 3 {
	}
	st := j.RetainStats()
	files, bytes := readDir(t, dir).footprint()
	if st.Segments != files {
		t.Fatalf("Segments = %d, disk has %d files", st.Segments, files)
	}
	if st.TotalBytes != bytes {
		t.Fatalf("TotalBytes = %d, disk holds %d", st.TotalBytes, bytes)
	}
	if st.SnapshotSeg != -1 {
		t.Fatalf("SnapshotSeg = %d before any snapshot, want -1", st.SnapshotSeg)
	}
	if st.LeaseFloorSeg != -1 {
		t.Fatalf("LeaseFloorSeg = %d with no lease, want -1", st.LeaseFloorSeg)
	}
	if st.PrunableBytes != 0 {
		t.Fatalf("PrunableBytes = %d with no snapshot, want 0", st.PrunableBytes)
	}
	// Everything sealed is reclaimable: a fresh snapshot would supersede it.
	if st.ReclaimableBytes <= 0 || st.ReclaimableBytes >= st.TotalBytes {
		t.Fatalf("ReclaimableBytes = %d, want in (0, %d)", st.ReclaimableBytes, st.TotalBytes)
	}
}

func TestSnapshotPrunesAndAccountingFollows(t *testing.T) {
	dir := t.TempDir()
	j := openJournal(t, dir, Options{Fsync: FsyncAlways, SegmentBytes: 128})

	for appendAll(t, j, alerted).Seg < 4 {
	}
	if err := j.Snapshot([]byte(`{"s":1}`)); err != nil {
		t.Fatal(err)
	}
	st := j.RetainStats()
	files, bytes := readDir(t, dir).footprint()
	if st.Segments != files || st.TotalBytes != bytes {
		t.Fatalf("post-prune stats (%d segs, %d B) disagree with disk (%d files, %d B)",
			st.Segments, st.TotalBytes, files, bytes)
	}
	if st.PrunableBytes != 0 {
		t.Fatalf("PrunableBytes = %d right after Snapshot's own prune, want 0", st.PrunableBytes)
	}
	if st.SnapshotSeg < 0 {
		t.Fatal("SnapshotSeg unset after Snapshot")
	}
	// Only segments at or above the snapshot segment survive.
	if oldest := readDir(t, dir).oldest(t); oldest < st.SnapshotSeg {
		t.Fatalf("oldest retained segment %d below snapshot segment %d", oldest, st.SnapshotSeg)
	}
}

func TestLeaseClampsPruneFrontier(t *testing.T) {
	dir := t.TempDir()
	j := openJournal(t, dir, Options{Fsync: FsyncAlways, SegmentBytes: 128})

	// A "follower" still needs segment 0.
	lease := j.AcquireLease(Cursor{Seg: 0, Off: headerSize})
	for appendAll(t, j, alerted).Seg < 4 {
	}
	if err := j.Snapshot([]byte(`{"s":1}`)); err != nil {
		t.Fatal(err)
	}
	st := j.RetainStats()
	if st.LeaseFloorSeg != 0 {
		t.Fatalf("LeaseFloorSeg = %d, want 0", st.LeaseFloorSeg)
	}
	if st.PrunableBytes != 0 || st.ReclaimableBytes != 0 {
		t.Fatalf("lease at 0 must clamp everything: prunable=%d reclaimable=%d",
			st.PrunableBytes, st.ReclaimableBytes)
	}
	if got := readDir(t, dir).oldest(t); got != 0 {
		t.Fatalf("segment 0 pruned under a live lease (oldest now %d)", got)
	}

	// Invariant check: lease floor ≤ prune frontier ≤ snapshot segment.
	j.mu.Lock()
	frontier := j.pruneFrontierLocked()
	j.mu.Unlock()
	if frontier != 0 {
		t.Fatalf("prune frontier = %d with lease floor 0, want 0", frontier)
	}

	// The follower advances past segment 2: exactly segments 0 and 1 become
	// prunable (snapshot seg permitting).
	lease.Advance(Cursor{Seg: 2, Off: headerSize})
	segs, bytes, err := j.Prune()
	if err != nil {
		t.Fatal(err)
	}
	if segs == 0 || bytes <= 0 {
		t.Fatalf("Prune freed nothing after lease advance (segs=%d bytes=%d)", segs, bytes)
	}
	if got := readDir(t, dir).oldest(t); got != 2 {
		t.Fatalf("oldest retained = %d after advancing lease to 2, want 2", got)
	}

	// Released: the frontier is the snapshot segment alone.
	lease.Release()
	if _, _, err := j.Prune(); err != nil {
		t.Fatal(err)
	}
	st = j.RetainStats()
	if got := readDir(t, dir).oldest(t); got != st.SnapshotSeg {
		t.Fatalf("oldest retained = %d after release, want snapshot seg %d", got, st.SnapshotSeg)
	}

	// A double release is a no-op.
	lease.Release()
}

func TestLeaseNeverMovesBackward(t *testing.T) {
	dir := t.TempDir()
	j := openJournal(t, dir, Options{Fsync: FsyncNone})
	l := j.AcquireLease(Cursor{Seg: 3})
	l.Advance(Cursor{Seg: 1})
	if floor := j.RetainStats().LeaseFloorSeg; floor != 3 {
		t.Fatalf("backward Advance moved the floor: %d, want 3", floor)
	}
	l.Advance(Cursor{Seg: 5})
	if floor := j.RetainStats().LeaseFloorSeg; floor != 5 {
		t.Fatalf("forward Advance: floor %d, want 5", floor)
	}
	l.Release()
	if floor := j.RetainStats().LeaseFloorSeg; floor != -1 {
		t.Fatalf("floor %d still present after Release", floor)
	}
}

// TestPruneVsReaderRace races concurrent journal readers (ReadFrames and
// ValidateCursor, the replication streamer's two entry points) against
// snapshot-then-prune cycles. A reader that loses the race must observe a
// clean ErrCursorGone — never a torn read, a decode failure, or a raw
// filesystem error.
func TestPruneVsReaderRace(t *testing.T) {
	dir := t.TempDir()
	j := openJournal(t, dir, Options{Fsync: FsyncNone, SegmentBytes: 128})

	for round := 0; round < 40; round++ {
		base := j.DurableCursor().Seg
		for appendAll(t, j, alerted).Seg < base+3 {
		}
		if err := j.Sync(); err != nil {
			t.Fatal(err)
		}
		start := Cursor{Seg: readDir(t, dir).oldest(t), Off: headerSize}

		var wg sync.WaitGroup
		errs := make(chan error, 4)
		for r := 0; r < 3; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, err := j.ReadFrames(start, func(fr Frame) error {
					_, payload, _, perr := parseFrame(fr.Raw)
					if perr != nil {
						return fmt.Errorf("torn frame at %d/%d: %w", fr.Seg, fr.Off, perr)
					}
					if _, derr := DecodeRecord(payload); derr != nil {
						return fmt.Errorf("undecodable frame at %d/%d: %w", fr.Seg, fr.Off, derr)
					}
					return nil
				})
				if err != nil && !errors.Is(err, ErrCursorGone) {
					errs <- fmt.Errorf("ReadFrames: %w", err)
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := j.ValidateCursor(start, 0)
			if err != nil && !errors.Is(err, ErrCursorGone) && !errors.Is(err, ErrCursorInvalid) {
				errs <- fmt.Errorf("ValidateCursor: %w", err)
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := j.Snapshot([]byte(`{"round":1}`)); err != nil {
				errs <- fmt.Errorf("Snapshot: %w", err)
			}
		}()
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}
}

// TestPruneVsReaderLeaseHeld is the lease-held variant: with the reader's
// start pinned by a lease, concurrent snapshot-then-prune must leave the
// reader entirely untouched — every frame readable, no ErrCursorGone at all.
func TestPruneVsReaderLeaseHeld(t *testing.T) {
	dir := t.TempDir()
	j := openJournal(t, dir, Options{Fsync: FsyncNone, SegmentBytes: 128})

	for round := 0; round < 40; round++ {
		base := j.DurableCursor().Seg
		for appendAll(t, j, alerted).Seg < base+3 {
		}
		if err := j.Sync(); err != nil {
			t.Fatal(err)
		}
		start, lease := j.Seed()

		var wg sync.WaitGroup
		errs := make(chan error, 2)
		wg.Add(1)
		go func() {
			defer wg.Done()
			n := 0
			_, err := j.ReadFrames(start, func(Frame) error { n++; return nil })
			if err != nil {
				errs <- fmt.Errorf("lease-held reader failed: %w", err)
			} else if n == 0 {
				errs <- errors.New("lease-held reader saw no frames")
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := j.Snapshot([]byte(`{"round":1}`)); err != nil {
				errs <- fmt.Errorf("Snapshot: %w", err)
			}
		}()
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		// The pinned suffix must still be on disk.
		if got := readDir(t, dir).oldest(t); got > start.Seg {
			t.Fatalf("round %d: prune crossed the lease floor (oldest %d > pinned %d)",
				round, got, start.Seg)
		}
		lease.Release()
		if _, _, err := j.Prune(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRetainStatsAfterReopen(t *testing.T) {
	dir := t.TempDir()
	j := openJournal(t, dir, Options{Fsync: FsyncAlways, SegmentBytes: 128})
	for appendAll(t, j, alerted).Seg < 3 {
	}
	if err := j.Snapshot([]byte(`{"s":1}`)); err != nil {
		t.Fatal(err)
	}
	if tail := j.RetainStats().TailRecords; tail != 0 {
		t.Fatalf("TailRecords = %d right after a snapshot, want 0", tail)
	}
	appendAll(t, j, Record{Kind: KindQuit, Employee: 1}, Record{Kind: KindQuit, Employee: 2}, Record{Kind: KindQuit, Employee: 3})
	stBefore := j.RetainStats()
	if stBefore.TailRecords != 3 {
		t.Fatalf("TailRecords = %d after 3 appends past the snapshot, want 3", stBefore.TailRecords)
	}
	mustClose(t, j)
	// Closed journal: the sealed active segment is still accounted for.
	stClosed := j.RetainStats()
	files, bytes := readDir(t, dir).footprint()
	if stClosed.Segments != files || stClosed.TotalBytes != bytes {
		t.Fatalf("closed stats (%d segs, %d B) disagree with disk (%d files, %d B)",
			stClosed.Segments, stClosed.TotalBytes, files, bytes)
	}

	j2 := openJournal(t, dir, Options{Fsync: FsyncAlways, SegmentBytes: 128})
	st := j2.RetainStats()
	files, bytes = readDir(t, dir).footprint()
	if st.Segments != files || st.TotalBytes != bytes {
		t.Fatalf("reopened stats (%d segs, %d B) disagree with disk (%d files, %d B)",
			st.Segments, st.TotalBytes, files, bytes)
	}
	if st.SnapshotSeg != stBefore.SnapshotSeg {
		t.Fatalf("reopen lost the snapshot segment: %d, want %d", st.SnapshotSeg, stBefore.SnapshotSeg)
	}
	if st.TailRecords != stBefore.TailRecords {
		t.Fatalf("reopen recovered TailRecords = %d, want %d", st.TailRecords, stBefore.TailRecords)
	}
}
