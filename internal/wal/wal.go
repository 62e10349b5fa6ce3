// Package wal is the engine's durability substrate: a per-tenant
// write-ahead journal of every state mutation — decision commits (with the
// sampled signal and budget charge), cycle opens and closes, quits, and
// counter deltas — plus periodic snapshot records capturing full state, so
// a crashed process recovers by restoring the last snapshot and replaying
// only the tail.
//
// # Format
//
// A journal is a directory of segment files named wal-NNNNNN.sagw, each a
// 5-byte header (magic "SAGW" + format version) followed by length-prefixed
// records
//
//	uvarint  payloadLen
//	payload  byte kind · kind-specific encoding (see record.go)
//	uint32   CRC-32 (IEEE) of payload, little endian
//
// A reopened journal always starts a fresh segment, so previously sealed
// files are immutable. Torn tails and CRC-corrupt records are handled at
// recovery by truncating to the last valid record (see Open); segments
// wholly superseded by a later snapshot are pruned.
//
// The active segment is preallocated: its file size runs ahead of its last
// frame in steps of allocStep, and the bytes in between are zeros. No record
// has an empty payload, so a zero length prefix is the end of the log, never
// a record (parseFrame). Sealing a segment — a roll, Close — truncates it to
// its last frame first, so a sealed file holds frames and nothing else;
// only a segment that was active at a crash keeps its zero tail, and Recover
// trims zeros that run to the end of the file without calling it corruption.
// Zeros followed by anything else are a torn write like any other.
//
// # Durability
//
// Appends go through a buffered writer under a short lock (mu). Its buffer is
// one page (writeBufBytes), allocated once and Reset onto each new segment:
// FsyncAlways flushes it every round, so it holds a few ~70-byte frames at
// most, and a snapshot blob is written from the caller's slice — bufio hands
// anything larger than its buffer straight to the file. Under
// FsyncAlways the wait Append returns is the group commit, run by the
// goroutine that needs it: it takes syncMu and either finds its record
// covered by a completed fsync or leads a round — flush under mu, fsync with
// mu dropped so appends keep flowing, advance the durable cursor. Waiters
// arriving meanwhile queue on syncMu; the first leads the next round, which
// covers everything appended so far, and the rest return without touching
// the disk. Lock order is syncMu → mu. Every record of a failed round sees
// that round's error. A roll and Close seal the active file under mu alone,
// never behind an fsync; a round whose file is sealed under it succeeds when
// the seal's fsync covered its records. Snapshot and Sync are rounds too.
// FsyncInterval runs a round on a timer; FsyncNone's timer only flushes, so
// buffered records still become readable (and replicable) on a bounded
// delay. That ticker is a journal's only goroutine; FsyncAlways starts none.
//
// A round's "fsync" is fdatasync(2). Appends land inside the preallocated
// size, so between two rounds only data pages change and the file system has
// no size to journal: the round costs a data write, not a metadata commit
// that every tenant syncing at that moment would queue behind. fdatasync
// still covers whatever metadata reading the data back needs — the new size
// after a preallocation step included. A seal is truncate-then-fsync: the
// full fsync makes the exact size durable before the next segment exists.
// Where fallocate(2) is unsupported (or off Linux) appends grow the file as
// they used to; ENOSPC from it is the append's error.
//
// # Reading
//
// Segment files are private to this package. Every reader goes through the
// Journal that writes them and asks its in-memory index — retained segments
// and their sizes, the newest snapshot frame, the leases — never the
// directory; Recover alone scans it, once, before the journal is open, and
// hands Open that index. All of them share one frame walker (walkFrames), so
// what is a frame and what ends the log is decided in one place:
//
//   - Recover reads everything. The first thing that is not a frame ends the
//     log: the file is cut there and later segments are deleted — except a
//     zero tail, which is trimmed without a report.
//   - ReadFrames reads from a cursor to the durable cursor and no further;
//     bytes past it may be half written. In front of it, anything but a frame
//     is an ErrCorrupt error that ends the read. Nothing is stepped over.
//   - ValidateCursor accepts exactly the frame boundaries at or in front of
//     the durable cursor, each with the checksum of the frame ending there.
//   - Seed gives a reader that has nothing the oldest retained frame to read
//     from, the newest durable snapshot frame to apply from, and a lease on
//     the former, all from one hold of mu.
//
// A reader that outlives one call holds a Lease at or below its cursor: Prune
// deletes oldest first and never at or above the lowest lease, so a leased
// reader never sees ErrCursorGone. That error means the cursor's segment is
// no longer there (pruned, or cut off by a recovery). ErrCursorInvalid means
// the cursor is ahead of the durable cursor, is not a frame boundary, lies
// behind something that is not a frame, or the checksum there differs. Either
// way the holder's history is not this journal's and it re-seeds. ErrCorrupt
// out of ReadFrames means the journal is damaged in front of its own durable
// cursor; the next Open cuts it there.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/auditgames/sag/internal/obs"
)

const (
	magic      = "SAGW"
	version    = 1
	headerSize = 5
	// maxRecordBytes guards against corrupt length prefixes on read.
	// Snapshot records carry whole-cycle state, so the cap is generous.
	maxRecordBytes = 64 << 20
	// allocStep is the unit the active segment is preallocated in (a whole
	// segment when segments are smaller). Anything from 16 KiB to 1 MiB
	// measured the same; this keeps an idle tenant's floor small.
	allocStep = 64 << 10
	// writeBufBytes is the write buffer every open journal keeps: one page,
	// ~58 decision frames. It is the bulk of what a resident tenant pins, and
	// FsyncAlways never fills it (see Durability); 64 KiB measured no faster.
	writeBufBytes = 4 << 10
)

// preallocate is fallocate behind a variable so tests can refuse it and
// exercise the growing-append fallback.
var preallocate = fallocate

// DefaultSegmentBytes is the default segment roll size.
const DefaultSegmentBytes = 16 << 20

// Journal metric names.
const (
	// MetricAppendsTotal counts records appended (snapshots included).
	MetricAppendsTotal = "sag_wal_appends_total"
	// MetricFsyncSeconds is a histogram of fsync latencies.
	MetricFsyncSeconds = "sag_wal_fsync_seconds"
	// MetricSnapshotBytes gauges the size of the last snapshot record.
	MetricSnapshotBytes = "sag_snapshot_bytes"
)

// FsyncPolicy selects when appended records are forced to stable storage.
type FsyncPolicy int

const (
	// FsyncAlways group-commits: every Append's wait returns once an fsync
	// covers the record. A kill -9 loses at most responses, never
	// acknowledged state.
	FsyncAlways FsyncPolicy = iota
	// FsyncInterval syncs on a timer (Options.Interval); a crash can lose
	// the records appended since the last tick.
	FsyncInterval
	// FsyncNone never fsyncs explicitly; the OS decides. Fastest, weakest.
	FsyncNone
)

// String returns the flag spelling of the policy.
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	case FsyncNone:
		return "none"
	default:
		return fmt.Sprintf("FsyncPolicy(%d)", int(p))
	}
}

// ParseFsyncPolicy parses the flag spelling ("always", "interval", "none").
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch strings.ToLower(s) {
	case "always":
		return FsyncAlways, nil
	case "interval":
		return FsyncInterval, nil
	case "none":
		return FsyncNone, nil
	default:
		return 0, fmt.Errorf("wal: unknown fsync policy %q (want always|interval|none)", s)
	}
}

// Options configures a Journal.
type Options struct {
	// Fsync selects the durability policy; the zero value is FsyncAlways.
	Fsync FsyncPolicy
	// Interval is the FsyncInterval tick; zero selects 100ms.
	Interval time.Duration
	// SegmentBytes is the roll size; zero selects DefaultSegmentBytes.
	SegmentBytes int64
	// Metrics, when non-nil, receives the journal's instruments.
	Metrics *obs.Registry
	// Labels are extra labels for its counter and gauge (the server passes
	// tenant="<id>"). The fsync histogram is the disk's, shared by every
	// journal in the registry.
	Labels []obs.Label
}

func (o *Options) fillDefaults() {
	if o.Interval <= 0 {
		o.Interval = 100 * time.Millisecond
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = DefaultSegmentBytes
	}
}

// ErrClosed is returned by appends to a closed journal.
var ErrClosed = errors.New("wal: journal is closed")

// Journal appends records to a journal directory. All methods are safe for
// concurrent use. Lock hierarchy: syncMu → mu; mu is a leaf — no callback
// runs under it.
type Journal struct {
	dir  string
	opts Options

	// syncMu serializes commit rounds and is held across the fsync: a waiter
	// blocked on it is queued for the next round.
	syncMu sync.Mutex

	mu      sync.Mutex
	f       *os.File
	bw      *bufio.Writer
	seq     int   // sequence number of the active segment
	written int64 // bytes in the active segment
	alloc   int64 // its preallocated file size; 0 when appends grow the file
	closed  bool
	encBuf  []byte

	records        int64  // total valid records (recovered + appended)
	synced         int64  // records covered by a completed fsync
	failed         int64  // records covered by the latest failed round or seal...
	failedErr      error  // ...and its error, which every one of them sees
	durable        Cursor // position up to which the journal is safely readable
	durableRecords int64  // records within the durable prefix
	subs           map[int]chan struct{}
	nextSubID      int

	// The in-memory index every reader and the pruner ask instead of the
	// directory (see retain.go): bytes per sealed segment — its keys are the
	// retained segments below the active one — the newest durable snapshot
	// frame's position (zero when none), and the live leases (id → pinned
	// segment) that clamp the prune frontier.
	sealedBytes map[int]int64
	snapAt      Cursor
	leases      map[int]int
	nextLeaseID int
	pruneMu     sync.Mutex // serializes Prune (deletion + accounting)

	done chan struct{} // stops the interval/none ticker
	wg   sync.WaitGroup

	// beforeSync (tests only) runs between a round's flush and its fsync —
	// the window in which an Append can roll the segment under the round.
	beforeSync func()

	appends   *obs.Counter
	fsyncSec  *obs.Histogram
	snapBytes *obs.Gauge
}

// Open recovers the journal directory (see Recover) and opens it for
// appending on a fresh segment. The returned Recovery describes what was
// restored — the caller replays Recovery.Snapshot + Recovery.Tail before
// appending new records.
func Open(dir string, opts Options) (*Journal, *Recovery, error) {
	opts.fillDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("wal: creating journal dir: %w", err)
	}
	rec, err := Recover(dir)
	if err != nil {
		return nil, nil, err
	}
	j := &Journal{
		dir:       dir,
		opts:      opts,
		seq:       rec.nextSeq,
		records:   int64(rec.Records),
		synced:    int64(rec.Records),
		bw:        bufio.NewWriterSize(nil, writeBufBytes),
		subs:      make(map[int]chan struct{}),
		done:      make(chan struct{}),
		appends:   opts.Metrics.Counter(MetricAppendsTotal, "Journal records appended.", opts.Labels...),
		fsyncSec:  opts.Metrics.Histogram(MetricFsyncSeconds, "Journal fsync latency in seconds.", obs.DefTimeBuckets),
		snapBytes: opts.Metrics.Gauge(MetricSnapshotBytes, "Size of the last snapshot record in bytes.", opts.Labels...),

		// The index is what the one recovery scan saw: everything it left on
		// disk is sealed, the fresh active segment comes next.
		sealedBytes: rec.segBytes,
		snapAt:      rec.SnapshotAt,
	}
	if err := j.openSegmentLocked(); err != nil {
		return nil, nil, err
	}
	// Everything recovered is already on disk, and the fresh segment's
	// header was flushed by openSegmentLocked, so readers (replication
	// streams) may start from the very first retained frame.
	j.durable = Cursor{Seg: j.seq, Off: headerSize}
	j.durableRecords = j.records
	if opts.Fsync != FsyncAlways {
		j.wg.Add(1)
		go j.ticker()
	}
	return j, rec, nil
}

// segmentName renders the file name of segment n.
func segmentName(n int) string { return fmt.Sprintf("wal-%06d.sagw", n) }

// segments lists the journal's segment files in sequence order.
func segments(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: reading journal dir: %w", err)
	}
	var out []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		if strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".sagw") {
			out = append(out, filepath.Join(dir, name))
		}
	}
	sort.Strings(out)
	return out, nil
}

// segmentSeq parses the sequence number out of a segment path.
func segmentSeq(path string) (int, error) {
	var n int
	if _, err := fmt.Sscanf(filepath.Base(path), "wal-%06d.sagw", &n); err != nil {
		return 0, fmt.Errorf("wal: unparsable segment name %q", path)
	}
	return n, nil
}

// openSegmentLocked creates the next segment and writes its header. The
// caller holds mu or has exclusive access (Open).
func (j *Journal) openSegmentLocked() error {
	name := filepath.Join(j.dir, segmentName(j.seq))
	f, err := os.OpenFile(name, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: creating segment: %w", err)
	}
	j.f = f
	j.bw.Reset(f)
	if _, err := j.bw.WriteString(magic); err != nil {
		return err
	}
	if err := j.bw.WriteByte(version); err != nil {
		return err
	}
	// Flush the header so the file is immediately parsable by direct
	// readers (cursor validation, replication streams); the fsync that
	// makes it durable rides on the next commit round.
	if err := j.bw.Flush(); err != nil {
		return err
	}
	j.written, j.alloc = headerSize, 0
	if err := j.extendLocked(headerSize); err != nil {
		return err
	}
	return syncDir(j.dir)
}

// extendLocked preallocates the active segment, in whole steps, to cover
// offset end. A file system without fallocate leaves alloc at 0 and the
// segment grows append by append; any other failure (ENOSPC) is the caller's
// error. The caller holds mu.
func (j *Journal) extendLocked(end int64) error {
	step := min(j.opts.SegmentBytes, allocStep)
	size := (end + step - 1) / step * step
	switch err := preallocate(j.f, size); {
	case err == nil:
		j.alloc = size
	case !errors.Is(err, errors.ErrUnsupported):
		return fmt.Errorf("wal: preallocating segment: %w", err)
	}
	return nil
}

// syncDir fsyncs a directory so freshly created/removed files survive a
// crash of the file system metadata. A file system that refuses directory
// fsync (EINVAL, ENOTSUP) is tolerated; any other failure is the caller's.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: opening journal dir to fsync it: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, syscall.EINVAL) && !errors.Is(err, errors.ErrUnsupported) {
		return fmt.Errorf("wal: fsync of journal dir: %w", err)
	}
	return nil
}

// rollLocked seals the active segment — flush, fsync, close; every record
// in it is thereby covered, so its waiters return without a round of their
// own — and opens the next one. The caller holds mu.
func (j *Journal) rollLocked() error {
	if err := j.sealLocked(); err != nil {
		return err
	}
	j.sealedBytes[j.seq] = j.written
	j.seq++
	return j.openSegmentLocked()
}

// sealLocked flushes, cuts the preallocated tail, fsyncs, and closes the
// active segment: the full fsync makes the exact size durable, so a sealed
// file never carries zeros. A failure is the failed round of every record
// not yet synced. The caller holds mu.
func (j *Journal) sealLocked() error {
	err := j.bw.Flush()
	if err == nil && j.alloc > j.written {
		err = j.f.Truncate(j.written)
	}
	if err == nil {
		t0 := time.Now()
		err = j.f.Sync()
		j.fsyncSec.ObserveSince(t0)
	}
	if err != nil {
		j.failed, j.failedErr = j.records, err
		return err
	}
	j.synced = j.records
	j.advanceDurableLocked(Cursor{Seg: j.seq, Off: j.written}, j.records)
	return j.f.Close()
}

// advanceDurableLocked moves the durable cursor forward (never backward —
// a commit round that raced a segment roll may report a stale position) and
// wakes every subscriber. The caller holds mu.
func (j *Journal) advanceDurableLocked(end Cursor, nrecs int64) {
	if !j.durable.Less(end) {
		return
	}
	j.durable = end
	if nrecs > j.durableRecords {
		j.durableRecords = nrecs
	}
	for _, ch := range j.subs {
		select {
		case ch <- struct{}{}:
		default: // subscriber already has a pending wake
		}
	}
}

// DurableCursor returns the position up to which the journal's on-disk
// contents are complete and safely readable: under FsyncAlways/FsyncInterval
// it advances after each fsync, under FsyncNone after each flush.
func (j *Journal) DurableCursor() Cursor {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.durable
}

// DurableRecords returns how many records the durable prefix holds
// (recovered records included).
func (j *Journal) DurableRecords() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.durableRecords
}

// Subscribe returns a channel that receives a (coalesced) signal whenever
// the durable cursor advances, plus a cancel function releasing the
// subscription. Replication streams park on it instead of polling.
func (j *Journal) Subscribe() (<-chan struct{}, func()) {
	ch := make(chan struct{}, 1)
	j.mu.Lock()
	id := j.nextSubID
	j.nextSubID++
	j.subs[id] = ch
	j.mu.Unlock()
	return ch, func() {
		j.mu.Lock()
		delete(j.subs, id)
		j.mu.Unlock()
	}
}

// appendLocked frames and writes one record payload into the active
// segment, rolling first if the segment is full, and returns where the frame
// starts. The caller holds mu.
func (j *Journal) appendLocked(r Record) (at Cursor, err error) {
	if j.closed {
		return at, ErrClosed
	}
	if j.written >= j.opts.SegmentBytes {
		if err := j.rollLocked(); err != nil {
			return at, err
		}
	}
	at = Cursor{Seg: j.seq, Off: j.written}
	// A snapshot's payload is its kind byte followed by the caller's blob,
	// written from where it lies: encBuf only ever holds a small record.
	var blob []byte
	if r.Kind == KindSnapshot {
		blob, r.Snapshot = r.Snapshot, nil
	}
	head, err := encode(j.encBuf[:0], r)
	if err != nil {
		return at, err
	}
	j.encBuf = head[:0]
	var lenBuf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(lenBuf[:], uint64(len(head)+len(blob)))
	end := j.written + int64(n+len(head)+len(blob)+4)
	if j.alloc > 0 && end > j.alloc {
		if err := j.extendLocked(end); err != nil {
			return at, err
		}
	}
	var crcBuf [4]byte
	binary.LittleEndian.PutUint32(crcBuf[:], crc32.Update(crc32.ChecksumIEEE(head), crc32.IEEETable, blob))
	for _, p := range [...][]byte{lenBuf[:n], head, blob, crcBuf[:]} {
		if _, err := j.bw.Write(p); err != nil {
			return at, err
		}
	}
	j.written = end
	j.records++
	j.appends.Inc()
	return at, nil
}

// Append enqueues one record in arrival order. The returned wait is nil
// when the record is already as durable as the policy promises (interval /
// none policies, or an immediate error); otherwise the caller must invoke
// it — outside any lock ordered before Append — and it returns once an
// fsync covers the record (see commit). Nothing else syncs the record: one
// nobody waits for becomes durable only with the next waiter's round.
//
// Append itself holds only the journal's short buffer lock, so callers may
// enqueue while holding their own commit lock to preserve commit order,
// then wait after releasing it.
func (j *Journal) Append(r Record) (wait func() error, err error) {
	j.mu.Lock()
	_, err = j.appendLocked(r)
	n := j.records
	j.mu.Unlock()
	if err != nil || j.opts.Fsync != FsyncAlways {
		return nil, err
	}
	return func() error { return j.commit(n, true) }, nil
}

// ticker runs a commit round per Options.Interval under the interval and
// none policies. Under FsyncNone the round only flushes (no fsync), so
// buffered records still become readable — and therefore replicable — on a
// bounded delay.
func (j *Journal) ticker() {
	defer j.wg.Done()
	tick := time.NewTicker(j.opts.Interval)
	defer tick.Stop()
	for {
		select {
		case <-j.done:
			return
		case <-tick.C:
			// Nobody waits on a timed round, so its error has no taker: these
			// policies never promised the tail.
			_ = j.commit(math.MaxInt64, j.opts.Fsync == FsyncInterval)
		}
	}
}

// commit returns once records 1..n (math.MaxInt64: all there are) are
// flushed and, when fsync is set, covered by a completed fsync — running one
// round if they are not yet: flush under mu, fsync outside it so appends
// keep flowing, advance the durable cursor. Rounds are serialized by syncMu
// and cover every record appended before their flush, so the callers queued
// behind one usually find their record covered and return at once.
func (j *Journal) commit(n int64, fsync bool) error {
	j.syncMu.Lock()
	defer j.syncMu.Unlock()
	j.mu.Lock()
	end := Cursor{Seg: j.seq, Off: j.written}
	if done, err := j.settledLocked(n, end, fsync); done {
		j.mu.Unlock()
		return err
	}
	err := j.bw.Flush()
	f, nrecs := j.f, j.records
	j.mu.Unlock()

	if j.beforeSync != nil {
		j.beforeSync()
	}
	if err == nil && fsync {
		t0 := time.Now()
		err = fdatasync(f)
		j.fsyncSec.ObserveSince(t0)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if err != nil {
		if nrecs <= j.synced {
			// A segment roll (or Close) sealed f under this round: the late
			// sync hit a closed file, but the seal's own fsync covered it.
			return nil
		}
		j.failed, j.failedErr = nrecs, err
		return err
	}
	if fsync && nrecs > j.synced {
		j.synced = nrecs
	}
	j.advanceDurableLocked(end, nrecs)
	return nil
}

// settledLocked reports whether commit(n, fsync) needs no round, and what it
// then returns. The caller holds mu.
func (j *Journal) settledLocked(n int64, end Cursor, fsync bool) (bool, error) {
	switch {
	case n <= j.failed:
		// Checked first: a later successful fsync cannot vouch for pages
		// the kernel may have dropped when this record's round failed.
		return true, j.failedErr
	case n <= j.synced:
		return true, nil // an earlier round or a seal (roll, Close) covered it
	case j.closed:
		// Only Sync and the ticker get here: Close's seal left every
		// appended record either synced or failed.
		return true, ErrClosed
	}
	return !j.durable.Less(end) && (!fsync || j.synced == j.records), nil
}

// Snapshot appends an owner-encoded full-state snapshot record, forces it
// to stable storage regardless of the fsync policy, and prunes segments
// wholly superseded by it. After Snapshot returns nil, recovery will
// restore from this snapshot (plus any records appended after it).
func (j *Journal) Snapshot(blob []byte) error {
	j.mu.Lock()
	// Where the snapshot frame sits: every segment strictly older than its
	// own is re-derivable from it and safe to delete once it is synced, and a
	// seeding reader starts applying exactly there.
	at, err := j.appendLocked(Record{Kind: KindSnapshot, Snapshot: blob})
	n := j.records
	j.mu.Unlock()
	if err == nil {
		err = j.commit(n, true)
	}
	if err != nil {
		return err
	}
	j.mu.Lock()
	if j.snapAt.Less(at) {
		j.snapAt = at
	}
	j.mu.Unlock()
	j.snapBytes.Set(float64(len(blob)))
	// Prune what the snapshot superseded — clamped at the lease floor, so a
	// replication stream still reading old segments is never cut off (see
	// retain.go).
	_, _, err = j.Prune()
	return err
}

// Sync forces buffered records to stable storage (used by tests and by
// explicit flush points under the interval/none policies).
func (j *Journal) Sync() error { return j.commit(math.MaxInt64, true) }

// Close seals the active segment and stops the ticker. Further appends
// return ErrClosed; waits of records appended before it return the seal's
// result. Close is idempotent.
func (j *Journal) Close() error {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return nil
	}
	j.closed = true
	err := j.sealLocked()
	// The sealed active segment stays on disk: fold it into the sealed-byte
	// accounting so RetainStats keeps describing the directory truthfully.
	j.sealedBytes[j.seq] = j.written
	j.written, j.alloc = 0, 0
	j.mu.Unlock()
	close(j.done)
	j.wg.Wait()
	return err
}
