package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// refSegment is what a brute-force reading of one segment file's bytes says
// about it, written without parseFrame/walkFrames so the two can disagree.
type refSegment struct {
	n     int
	size  int64
	ends  []int64  // end offset of every frame in front of stop
	crcs  []uint32 // its stored checksum
	kinds []Kind
	// stop is the first offset that does not start a whole frame with a
	// matching checksum; size when the file is frames to its last byte.
	stop int64
	// zeroTail: the file is zeros from stop to its end (and stop < size).
	zeroTail bool
	// decodeStop is stop, or the first frame whose payload is not a record.
	decodeStop int64
}

func refScan(n int, b []byte) refSegment {
	s := refSegment{n: n, size: int64(len(b))}
	if len(b) < headerSize || string(b[:4]) != magic || b[4] != version {
		return s // stop 0: not even a header
	}
	off := headerSize
	s.decodeStop = -1
scan:
	for off < len(b) {
		var plen uint64
		k := 0
		for i := 0; ; i++ {
			if off+i >= len(b) || i == binary.MaxVarintLen64 || (i == binary.MaxVarintLen64-1 && b[off+i] > 1) {
				break scan
			}
			plen |= uint64(b[off+i]&0x7f) << (7 * i)
			if b[off+i] < 0x80 {
				k = i + 1
				break
			}
		}
		if plen == 0 || plen > maxRecordBytes || uint64(len(b)-off-k) < plen+4 {
			break
		}
		payload := b[off+k : off+k+int(plen)]
		stored := binary.LittleEndian.Uint32(b[off+k+int(plen):])
		if crc32.ChecksumIEEE(payload) != stored {
			break
		}
		if _, err := DecodeRecord(payload); err != nil && s.decodeStop < 0 {
			s.decodeStop = int64(off)
		}
		off += k + int(plen) + 4
		s.ends = append(s.ends, int64(off))
		s.crcs = append(s.crcs, stored)
		s.kinds = append(s.kinds, Kind(payload[0]))
	}
	s.stop = int64(off)
	if s.decodeStop < 0 {
		s.decodeStop = s.stop
	}
	s.zeroTail = s.stop < s.size
	for _, c := range b[s.stop:] {
		s.zeroTail = s.zeroTail && c == 0
	}
	return s
}

// refJournal is the reference's verdict on a whole directory.
type refJournal struct {
	segs []refSegment
	// recovered: what Recover must report — the last frame end in front of
	// the first tear (zero tails are trimmed and walked past), the newest
	// snapshot frame in front of it, the frame count, whether a tear exists.
	end        Cursor
	snapshotAt Cursor
	records    int
	truncated  bool
	// streamStop: where a reader shipping from the oldest frame stops, and
	// whether it stops with an error (anything but frames to the end).
	streamStop Cursor
	streamErr  bool
}

func refRead(t *testing.T, dir string) refJournal {
	t.Helper()
	disk := readDir(t, dir)
	var ref refJournal
	for _, name := range disk.names() {
		n, err := segmentSeq(name)
		if err != nil {
			t.Fatal(err)
		}
		ref.segs = append(ref.segs, refScan(n, []byte(disk[name])))
	}
	for _, s := range ref.segs {
		start := int64(headerSize)
		for i, end := range s.ends {
			if end > s.decodeStop {
				break
			}
			ref.records++
			ref.end = Cursor{Seg: s.n, Off: end}
			if s.kinds[i] == KindSnapshot {
				ref.snapshotAt = Cursor{Seg: s.n, Off: start}
			}
			start = end
		}
		if s.stop < headerSize || s.decodeStop < s.size && !(s.zeroTail && s.decodeStop == s.stop) {
			ref.truncated = true
			break
		}
	}
	last := ref.segs[len(ref.segs)-1]
	ref.streamStop = Cursor{Seg: last.n + 1, Off: headerSize} // the reader view's active segment
	for _, s := range ref.segs {
		if s.stop < s.size || s.stop < headerSize {
			ref.streamStop, ref.streamErr = Cursor{Seg: s.n, Off: max(s.stop, headerSize)}, true
			break
		}
	}
	return ref
}

// readerView is a Journal that only reads: its index names every segment file
// in dir as sealed and its durable cursor sits past them all, so ReadFrames
// and ValidateCursor see the bytes exactly as they are — Open would repair
// them first.
func readerView(t *testing.T, dir string, ref refJournal) *Journal {
	t.Helper()
	j := &Journal{dir: dir, sealedBytes: make(map[int]int64)}
	for _, s := range ref.segs {
		j.sealedBytes[s.n] = s.size
		j.seq = s.n + 1
	}
	j.durable = Cursor{Seg: j.seq, Off: headerSize}
	return j
}

// damage names one way of hurting a segment file's tail.
type damage int

const (
	damageNone damage = iota
	damageCut
	damageZeroTail
	damageZerosThenGarbage
	damageFlip
	damageBadSnapshot
	numDamages
)

func (d damage) String() string {
	return [...]string{"none", "cut", "zero tail", "zeros then garbage", "flipped byte", "crc-bad snapshot"}[d]
}

// randomJournal writes a journal of random records over several small
// segments with one or two snapshots in it, then leaves it as a crash (zero
// tail on the active segment) or a clean shutdown would.
func randomJournal(t *testing.T, rng *rand.Rand, dir string) {
	t.Helper()
	j := openJournal(t, dir, Options{Fsync: FsyncNone, Interval: time.Hour, SegmentBytes: int64(48 + rng.Intn(160))})
	// Pin segment 0 in most trials, so snapshots leave history in front of
	// them for a seeding reader to persist without applying.
	if rng.Intn(4) > 0 {
		j.AcquireLease(Cursor{Seg: 0, Off: headerSize})
	}
	samples := sampleRecords()
	samples = samples[:len(samples)-1] // snapshots go through Snapshot
	snapshots := 1 + rng.Intn(2)
	for total, i := 10+rng.Intn(50), 0; i < total; i++ {
		if rng.Intn(total) < 3 && snapshots > 0 {
			snapshots--
			if err := j.Snapshot([]byte(fmt.Sprintf(`{"at":%d}`, i))); err != nil {
				t.Fatal(err)
			}
			continue
		}
		appendAll(t, j, samples[rng.Intn(len(samples))])
	}
	if snapshots > 0 {
		if err := j.Snapshot([]byte(`{"at":"end"}`)); err != nil {
			t.Fatal(err)
		}
		appendAll(t, j, samples[rng.Intn(len(samples))])
	}
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	if rng.Intn(2) == 0 {
		abandon(j)
		return
	}
	mustClose(t, j)
}

// hurt applies d to the last segment of dir that holds a frame and reports
// the offset of the frame it spoiled on purpose (damageBadSnapshot; else -1).
func hurt(t *testing.T, rng *rand.Rand, dir string, d damage) (seg int, badFrame int64) {
	t.Helper()
	ref := refRead(t, dir)
	var s refSegment
	for _, c := range ref.segs {
		if len(c.ends) > 0 {
			s = c
		}
	}
	disk := readDir(t, dir)
	b := []byte(disk[segmentName(s.n)])
	badFrame = -1
	switch d {
	case damageCut:
		b = b[:headerSize+1+rng.Intn(int(s.stop)-headerSize-1)]
	case damageZeroTail:
		b = append(b[:s.stop], make([]byte, 1+rng.Intn(40))...)
	case damageZerosThenGarbage:
		b = append(b[:s.stop], make([]byte, 1+rng.Intn(40))...)
		b = append(b, byte(1+rng.Intn(255)), byte(rng.Intn(256)), byte(rng.Intn(256)))
	case damageFlip:
		b[headerSize+rng.Intn(int(s.stop)-headerSize)] ^= 1 << rng.Intn(8)
	case damageBadSnapshot:
		// The newest snapshot frame anywhere, not only in the last segment.
		for _, c := range ref.segs {
			start := int64(headerSize)
			for i, end := range c.ends {
				if c.kinds[i] == KindSnapshot {
					s, badFrame = c, start
				}
				start = end
			}
		}
		b = []byte(disk[segmentName(s.n)])
		b[badFrame+3] ^= 0x20 // inside the blob, behind prefix and kind byte
	}
	if err := os.WriteFile(filepath.Join(dir, segmentName(s.n)), b, 0o644); err != nil {
		t.Fatal(err)
	}
	return s.n, badFrame
}

// TestWalkerAgreesWithBruteForce is the differential property behind "one
// frame walker": over random journals × random tail damage, Recover, the
// streaming reader and cursor validation — three callers of walkFrames — must
// put the end of the log, every frame boundary and the newest snapshot exactly
// where an independent byte-by-byte reading puts them.
func TestWalkerAgreesWithBruteForce(t *testing.T) {
	trials := 120
	if testing.Short() {
		trials = 24
	}
	for seed := 0; seed < trials; seed++ {
		d := damage(seed % int(numDamages))
		t.Run(fmt.Sprintf("seed%d/%s", seed, d), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(seed)))
			dir := t.TempDir()
			randomJournal(t, rng, dir)
			hurtSeg, badFrame := hurt(t, rng, dir, d)
			ref := refRead(t, dir)
			view := readerView(t, dir, ref)

			// The streaming reader: every frame in front of the first thing
			// that is not one, then an error there — or none at all.
			var shipped []Cursor
			first := Cursor{Seg: ref.segs[0].n, Off: headerSize}
			stop, err := view.ReadFrames(first, func(fr Frame) error {
				shipped = append(shipped, fr.End())
				return nil
			})
			if stop != ref.streamStop || (err != nil) != ref.streamErr {
				t.Fatalf("stream stopped at %v (%v), reference says %v (error %v)", stop, err, ref.streamStop, ref.streamErr)
			}
			if err != nil && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("stream error %v does not say corrupt", err)
			}
			var want []Cursor
			for _, s := range ref.segs {
				for _, end := range s.ends {
					want = append(want, Cursor{Seg: s.n, Off: end})
				}
				if s.stop < s.size {
					break
				}
			}
			if fmt.Sprint(shipped) != fmt.Sprint(want) {
				t.Fatalf("stream shipped frames ending at %v, reference has %v", shipped, want)
			}
			if d == damageBadSnapshot && (err == nil || stop != Cursor{Seg: hurtSeg, Off: badFrame}) {
				t.Fatalf("a crc-bad snapshot frame at %d/%d must end the read there with an error, got %v (%v)", hurtSeg, badFrame, stop, err)
			}

			// Cursor validation accepts the frame boundaries of the damaged
			// segment, each with its own checksum only, and nothing else.
			for _, s := range ref.segs {
				if s.n != hurtSeg {
					continue
				}
				crcAt := map[int64]uint32{headerSize: 0}
				for i, end := range s.ends {
					crcAt[end] = s.crcs[i]
				}
				for off := int64(0); off <= s.size+2; off++ {
					crc, boundary := crcAt[off]
					cur := Cursor{Seg: s.n, Off: off}
					if err := view.ValidateCursor(cur, crc); (err == nil) != boundary {
						t.Fatalf("ValidateCursor(%v) = %v, reference says boundary=%v", cur, err, boundary)
					} else if err != nil && !errors.Is(err, ErrCursorInvalid) {
						t.Fatalf("ValidateCursor(%v) = %v, want ErrCursorInvalid", cur, err)
					}
					if boundary && off > headerSize {
						if err := view.ValidateCursor(cur, crc+1); !errors.Is(err, ErrCursorInvalid) {
							t.Fatalf("ValidateCursor(%v) took a wrong checksum: %v", cur, err)
						}
					}
				}
			}

			// Recovery — Open cuts the directory, so it goes last.
			rec := recoverDir(t, dir)
			if rec.End != ref.end || rec.SnapshotAt != ref.snapshotAt || rec.Records != ref.records || rec.Truncated != ref.truncated {
				t.Fatalf("Recover: end %v snapshot %v records %d truncated %v; reference: end %v snapshot %v records %d truncated %v",
					rec.End, rec.SnapshotAt, rec.Records, rec.Truncated, ref.end, ref.snapshotAt, ref.records, ref.truncated)
			}
			if d == damageBadSnapshot {
				// Never an older seed point past a bad frame: the log ends in
				// front of it, so whatever snapshot is left lies inside it.
				bad := Cursor{Seg: hurtSeg, Off: badFrame}
				if bad.Less(rec.End) || (!rec.SnapshotAt.IsZero() && !rec.SnapshotAt.Less(rec.End)) {
					t.Fatalf("recovered end %v / snapshot %v reach past the bad snapshot frame at %v", rec.End, rec.SnapshotAt, bad)
				}
			}
			// And the reopened journal indexes exactly that snapshot, and
			// a seed reads it to the end.
			j := openJournal(t, dir, Options{Fsync: FsyncNone, Interval: time.Hour})
			start, lease := j.Seed()
			lease.Release()
			if j.snapAt != rec.SnapshotAt {
				t.Fatalf("reopened journal indexes its snapshot at %v, recovery found it at %v", j.snapAt, rec.SnapshotAt)
			}
			if end, err := j.ReadFrames(start, func(Frame) error { return nil }); err != nil || end != j.DurableCursor() {
				t.Fatalf("reading the recovered journal from %v stopped at %v: %v", start, end, err)
			}
		})
	}
}

// FuzzFrameWalk feeds the walker arbitrary bytes: it must not panic or read
// past the buffer, must stop exactly where the brute-force reading stops, and
// every frame it yields must re-parse to the same payload and checksum.
func FuzzFrameWalk(f *testing.F) {
	var seg []byte
	for _, r := range sampleRecords() {
		payload, err := encode(nil, r)
		if err != nil {
			f.Fatal(err)
		}
		seg = binary.AppendUvarint(seg, uint64(len(payload)))
		seg = append(seg, payload...)
		seg = binary.LittleEndian.AppendUint32(seg, crc32.ChecksumIEEE(payload))
	}
	f.Add(seg)
	f.Add(seg[:len(seg)-3])
	f.Add(append(seg[:len(seg):len(seg)], make([]byte, 64)...))
	f.Add(append(seg[:len(seg):len(seg)], "\x00\x00\x00\x07garbage"...))
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01})

	f.Fuzz(func(t *testing.T, data []byte) {
		data = data[:len(data):len(data)] // a reslice past the end must panic
		ref := refScan(0, append([]byte(magic+"\x01"), data...))
		off := int64(headerSize)
		end, err := walkFrames(data, headerSize, func(at int64, raw, payload []byte, crc uint32) error {
			if at != off {
				t.Fatalf("frame at %d, previous one ended at %d", at, off)
			}
			n, p, c, err := parseFrame(raw)
			if err != nil || n != int64(len(raw)) || string(p) != string(payload) || c != crc {
				t.Fatalf("frame at %d does not re-parse: n=%d of %d, crc %08x vs %08x: %v", at, n, len(raw), c, crc, err)
			}
			off += n
			return nil
		})
		if end != off || end != ref.stop {
			t.Fatalf("walk ended at %d after frames up to %d, brute force stops at %d", end, off, ref.stop)
		}
		switch {
		case ref.stop == ref.size:
			if err != nil {
				t.Fatalf("frames to the last byte, yet: %v", err)
			}
		case !errors.Is(err, ErrCorrupt) || errors.Is(err, errEndOfLog) != ref.zeroTail:
			t.Fatalf("stop at %d of %d (zero tail %v): %v", ref.stop, ref.size, ref.zeroTail, err)
		}
	})
}

// TestSeedHandshakeHoldsLease interleaves a snapshot-then-prune between a
// fresh follower's handshake and its first read. Choosing the start cursor
// and pinning it used to be two steps with the journal unlocked in between
// (first half: the read dies with ErrCursorGone); Seed does both under one
// lock hold, so the prune frees nothing at or above the cursor handed out.
func TestSeedHandshakeHoldsLease(t *testing.T) {
	dir := t.TempDir()
	j := openJournal(t, dir, Options{Fsync: FsyncAlways, SegmentBytes: 128})
	skip := func(Frame) error { return nil }

	for appendAll(t, j, alerted).Seg < 3 {
	}
	start := Cursor{Seg: readDir(t, dir).oldest(t), Off: headerSize} // pick: a directory listing's answer
	if err := j.Snapshot([]byte(`{"s":1}`)); err != nil {            // snapshot-then-prune in the gap
		t.Fatal(err)
	}
	late := j.AcquireLease(start)
	if _, err := j.ReadFrames(start, skip); !errors.Is(err, ErrCursorGone) {
		t.Fatalf("pick-then-pin: read from %v = %v, want ErrCursorGone (the gap this test is about)", start, err)
	}
	late.Release()

	for seg := j.DurableCursor().Seg + 3; appendAll(t, j, alerted).Seg < seg; {
	}
	start, lease := j.Seed()
	defer lease.Release()
	if err := j.Snapshot([]byte(`{"s":2}`)); err != nil {
		t.Fatal(err)
	}
	if st := j.RetainStats(); st.SnapshotSeg <= start.Seg || st.LeaseFloorSeg != start.Seg {
		t.Fatalf("test setup: snapshot seg %d, lease floor %d, seeded at %d", st.SnapshotSeg, st.LeaseFloorSeg, start.Seg)
	}
	if segs, bytes, err := j.Prune(); err != nil || segs != 0 || bytes != 0 {
		t.Fatalf("prune under the handed-out lease freed %d segments (%d B): %v", segs, bytes, err)
	}
	if got := readDir(t, dir).oldest(t); got != start.Seg {
		t.Fatalf("oldest segment on disk %d, seeded at %d", got, start.Seg)
	}
	if end, err := j.ReadFrames(start, skip); err != nil || end != j.DurableCursor() {
		t.Fatalf("read from the seeded cursor %v stopped at %v: %v", start, end, err)
	}
}

// TestOpenScansOnce: Open reads each retained segment exactly once — recovery
// is the only scan, and the index it hands the journal is the one the previous
// incarnation held when it closed.
func TestOpenScansOnce(t *testing.T) {
	dir := t.TempDir()
	j := openJournal(t, dir, Options{Fsync: FsyncAlways, SegmentBytes: 128})
	j.AcquireLease(Cursor{Seg: 0, Off: headerSize}) // keep what the snapshot supersedes
	for appendAll(t, j, alerted).Seg < 3 {
	}
	if err := j.Snapshot([]byte(`{"s":1}`)); err != nil {
		t.Fatal(err)
	}
	for appendAll(t, j, alerted).Seg < 5 {
	}
	before := j.RetainStats()
	mustClose(t, j)
	wantIndex, wantSnap := maps.Clone(j.sealedBytes), j.snapAt
	if len(wantIndex) != before.Segments || wantSnap.Seg != before.SnapshotSeg {
		t.Fatalf("closed index %v / %v does not match the stats before Close: %+v", wantIndex, wantSnap, before)
	}

	reads := make(map[string]int)
	segmentReads = func(path string) { reads[path]++ }
	j2, rec, err := Open(dir, Options{Fsync: FsyncAlways, SegmentBytes: 128})
	segmentReads = nil
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(reads) != before.Segments || rec.Segments != before.Segments {
		t.Fatalf("Open read %d distinct segments of %d (recovery scanned %d)", len(reads), before.Segments, rec.Segments)
	}
	for path, n := range reads {
		if n != 1 {
			t.Fatalf("Open read %s %d times, want once", filepath.Base(path), n)
		}
	}
	if !maps.Equal(j2.sealedBytes, wantIndex) || j2.snapAt != wantSnap {
		t.Fatalf("reopened index %v / %v, the closed journal held %v / %v", j2.sealedBytes, j2.snapAt, wantIndex, wantSnap)
	}
	files, bytes := readDir(t, dir).footprint()
	if st := j2.RetainStats(); st.Segments != files || st.TotalBytes != bytes || st.SnapshotSeg != before.SnapshotSeg {
		t.Fatalf("reopened stats %+v disagree with disk (%d files, %d B) or the snapshot segment before (%d)", st, files, bytes, before.SnapshotSeg)
	}
}
