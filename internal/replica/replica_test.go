package replica

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/auditgames/sag/internal/obs"
	"github.com/auditgames/sag/internal/wal"
)

// netListen rebinds addr, retrying while the old listener's port drains.
func netListen(addr string) (net.Listener, error) {
	var last error
	for i := 0; i < 100; i++ {
		ln, err := net.Listen("tcp", addr)
		if err == nil {
			return ln, nil
		}
		last = err
		time.Sleep(10 * time.Millisecond)
	}
	return nil, last
}

// primary wraps a live journal behind an httptest server speaking the
// replication protocol, the way sagserver's /v1/replicate does.
type primary struct {
	t   *testing.T
	dir string
	j   *wal.Journal
	ts  *httptest.Server
}

func newPrimary(t *testing.T) *primary {
	t.Helper()
	dir := t.TempDir()
	j, _, err := wal.Open(dir, wal.Options{Fsync: wal.FsyncAlways, SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	p := &primary{t: t, dir: dir, j: j}
	p.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ServeStream(w, r, StreamConfig{Journal: p.j, Heartbeat: 5 * time.Millisecond})
	}))
	t.Cleanup(func() { p.ts.Close(); p.j.Close() })
	return p
}

func (p *primary) append(recs ...wal.Record) {
	p.t.Helper()
	for _, r := range recs {
		// Under FsyncAlways the wait IS the commit: nothing else syncs the
		// record, so a dropped wait would leave it unshipped.
		wait, err := p.j.Append(r)
		if err == nil {
			err = wait()
		}
		if err != nil {
			p.t.Fatalf("append: %v", err)
		}
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func quit(n int) wal.Record { return wal.Record{Kind: wal.KindQuit, Employee: n} }

// follow runs a client mirroring p's journal into dir. stop cancels it and
// waits for Run to return; the test's cleanup calls it too.
func follow(t *testing.T, p *primary, dir string) (cl *Client, reg *obs.Registry, stop func()) {
	t.Helper()
	reg = obs.NewRegistry()
	cl = NewClient(ClientConfig{Primary: p.ts.URL, Tenant: "default", Dir: dir, Metrics: reg})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); _ = cl.Run(ctx) }()
	var once sync.Once
	stop = func() { once.Do(func() { cancel(); <-done }) }
	t.Cleanup(stop)
	return cl, reg, stop
}

// counter reads one of the client's per-tenant counters.
func counter(reg *obs.Registry, name string) uint64 {
	return reg.Snapshot().Counters[name+`{tenant="default"}`]
}

// caughtUp reports whether cl has mirrored p's journal to its durable end.
// Lag alone can read 0 against a heartbeat from before the last frames.
func (p *primary) caughtUp(cl *Client) bool {
	lag, ok := cl.Lag()
	return ok && lag == 0 && cl.State().Cursor == p.j.DurableCursor()
}

func recoverDir(t *testing.T, dir string) *wal.Recovery {
	t.Helper()
	rec, err := wal.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// quits lists the employees of a recovered tail's quit records, in order.
func quits(t *testing.T, recs []wal.Record) []int {
	t.Helper()
	var out []int
	for _, r := range recs {
		if r.Kind != wal.KindQuit {
			t.Fatalf("mirrored tail holds %+v, want only quits", r)
		}
		out = append(out, r.Employee)
	}
	return out
}

// sameEnd fails unless the mirror in dir ends where p's journal does, at the
// same record checksum.
func (p *primary) sameEnd(t *testing.T, dir string) {
	t.Helper()
	src, dst := recoverDir(t, p.dir), recoverDir(t, dir)
	if dst.End != src.End || dst.LastCRC != src.LastCRC {
		t.Fatalf("mirror ends at %v/%08x, source at %v/%08x", dst.End, dst.LastCRC, src.End, src.LastCRC)
	}
}

func TestClientCatchUpAndLiveTail(t *testing.T) {
	p := newPrimary(t)
	p.append(quit(0), quit(1), quit(2))

	dir := t.TempDir()
	cl, reg, stop := follow(t, p, dir)
	waitFor(t, "backlog catch-up", func() bool { return p.caughtUp(cl) })
	// Live tail: records appended while the stream is open arrive too.
	p.append(quit(3), quit(4))
	waitFor(t, "live tail", func() bool { return p.caughtUp(cl) })
	stop()

	rec := recoverDir(t, dir)
	if got := quits(t, rec.Tail); !slices.Equal(got, []int{0, 1, 2, 3, 4}) {
		t.Fatalf("mirrored quits %v, want 0..4", got)
	}
	// The mirror is byte-identical to the primary's journal.
	src := recoverDir(t, p.dir)
	if rec.End != src.End || rec.LastCRC != src.LastCRC || rec.Records != src.Records {
		t.Fatalf("mirror recovery (%v %08x n=%d) != source (%v %08x n=%d)",
			rec.End, rec.LastCRC, rec.Records, src.End, src.LastCRC, src.Records)
	}
	if st := cl.State(); st != (State{Cursor: src.End, LastCRC: src.LastCRC, Records: int64(src.Records)}) {
		t.Fatalf("client state %+v does not match source recovery (%v %08x n=%d)",
			st, src.End, src.LastCRC, src.Records)
	}
	if n := counter(reg, MetricReseeds); n != 0 {
		t.Fatalf("%d re-seeds, want 0", n)
	}
}

// TestClientResumesFromRecoveredState stops a follower, appends more records
// at the primary, and starts a new client over the same directory the way a
// rebooted standby does: it recovers its cursor from the mirror, and the
// stream resumes without a re-seed.
func TestClientResumesFromRecoveredState(t *testing.T) {
	p := newPrimary(t)
	p.append(quit(0), quit(1))

	dir := t.TempDir()
	cl, _, stop := follow(t, p, dir)
	waitFor(t, "first catch-up", func() bool { return p.caughtUp(cl) })
	stop()

	p.append(quit(2), quit(3))

	cl2, reg2, stop2 := follow(t, p, dir)
	waitFor(t, "resumed catch-up", func() bool { return p.caughtUp(cl2) })
	stop2()

	if got := quits(t, recoverDir(t, dir).Tail); !slices.Equal(got, []int{0, 1, 2, 3}) {
		t.Fatalf("mirrored quits %v: the resumed stream repeated or skipped records", got)
	}
	if st := cl2.State(); st.Records != 4 {
		t.Fatalf("resumed client counts %d records, want 4", st.Records)
	}
	if n := counter(reg2, MetricReseeds); n != 0 {
		t.Fatalf("%d re-seeds on resume, want 0", n)
	}
}

// TestClientResumesAfterTornMirrorTail: a standby that crashed mid-write
// leaves a torn final frame in its mirror. The next client cuts it off when
// it recovers its position and resumes from the last whole frame — the
// primary resends the rest — with no re-seed, and the mirror ends
// byte-identical to the source.
func TestClientResumesAfterTornMirrorTail(t *testing.T) {
	p := newPrimary(t)
	p.append(quit(0), quit(1), quit(2))

	dir := t.TempDir()
	cl, _, stop := follow(t, p, dir)
	waitFor(t, "first catch-up", func() bool { return p.caughtUp(cl) })
	stop()

	tail := cl.State().Cursor
	seg := filepath.Join(dir, fmt.Sprintf("wal-%06d.sagw", tail.Seg))
	if err := os.Truncate(seg, tail.Off-2); err != nil {
		t.Fatal(err)
	}
	p.append(quit(3))

	cl2, reg2, stop2 := follow(t, p, dir)
	waitFor(t, "catch-up over the torn tail", func() bool { return p.caughtUp(cl2) })
	stop2()
	if n := counter(reg2, MetricReseeds); n != 0 {
		t.Fatalf("%d re-seeds after a torn mirror tail, want 0", n)
	}
	if got := quits(t, recoverDir(t, dir).Tail); !slices.Equal(got, []int{0, 1, 2, 3}) {
		t.Fatalf("mirrored quits %v, want 0..3", got)
	}
	// Close trims the primary's preallocated active segment, so the two
	// directories can be compared file by file.
	if err := p.j.Close(); err != nil {
		t.Fatal(err)
	}
	sameFiles(t, p.dir, dir)
}

// sameFiles fails unless dirs a and b hold the same files, byte for byte.
func sameFiles(t *testing.T, a, b string) {
	t.Helper()
	list := func(dir string) []string {
		names, err := filepath.Glob(filepath.Join(dir, "wal-*.sagw"))
		if err != nil {
			t.Fatal(err)
		}
		for i, n := range names {
			names[i] = filepath.Base(n)
		}
		return names
	}
	na, nb := list(a), list(b)
	if !slices.Equal(na, nb) {
		t.Fatalf("segments %v, source has %v", nb, na)
	}
	for _, n := range na {
		ra, err := os.ReadFile(filepath.Join(a, n))
		if err != nil {
			t.Fatal(err)
		}
		rb, err := os.ReadFile(filepath.Join(b, n))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ra, rb) {
			t.Fatalf("%s differs from the source (%d vs %d bytes)", n, len(rb), len(ra))
		}
	}
}

// TestClientRetriesUnrecoverableMirror: a client whose directory cannot be
// read — here a regular file stands where it should be — keeps retrying with
// its reconnect backoff instead of giving up, and catches up once the
// directory is usable.
func TestClientRetriesUnrecoverableMirror(t *testing.T) {
	p := newPrimary(t)
	p.append(quit(0), quit(1))

	dir := filepath.Join(t.TempDir(), "mirror")
	if err := os.WriteFile(dir, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	cl, reg, stop := follow(t, p, dir)
	waitFor(t, "a retry", func() bool { return counter(reg, MetricReconnects) >= 1 })
	if _, ok := cl.Lag(); ok {
		t.Fatal("client streamed over a directory it could not recover")
	}
	if err := os.Remove(dir); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "catch-up once the directory is usable", func() bool { return p.caughtUp(cl) })
	stop()
	if got := quits(t, recoverDir(t, dir).Tail); !slices.Equal(got, []int{0, 1}) {
		t.Fatalf("mirrored quits %v, want 0..1", got)
	}
}

// TestClientReseedsAfterPrune covers the divergence path: while the follower
// is down, the primary snapshots and prunes the segments the follower's
// resume cursor points into. On reconnect the primary demands a re-seed; the
// client must delete its mirror and re-mirror the retained journal, whose
// recovery is the snapshot plus the record after it.
func TestClientReseedsAfterPrune(t *testing.T) {
	p := newPrimary(t)
	p.append(quit(0), quit(1), quit(2))

	dir := t.TempDir()
	cl, reg, stop := follow(t, p, dir)
	waitFor(t, "first catch-up", func() bool { return p.caughtUp(cl) })
	stop()
	if n := counter(reg, MetricReseeds); n != 0 {
		t.Fatalf("%d re-seeds on the first run, want 0", n)
	}

	// Follower is down: the primary rolls far enough that a snapshot prunes
	// every segment the follower has (SegmentBytes=128 rolls fast).
	for i := 3; i < 24; i++ {
		p.append(quit(i))
	}
	if err := p.j.Snapshot([]byte(`{"seed":true}`)); err != nil {
		t.Fatal(err)
	}
	p.append(quit(24))
	oldest, lease := p.j.Seed()
	lease.Release()
	if end := recoverDir(t, dir).End; end.Seg >= oldest.Seg {
		t.Fatalf("test setup: follower cursor %v not pruned (primary oldest %v)", end, oldest)
	}

	cl2, reg2, stop2 := follow(t, p, dir)
	waitFor(t, "re-seeded catch-up", func() bool { return p.caughtUp(cl2) })
	stop2()

	if n := counter(reg2, MetricReseeds); n != 1 {
		t.Fatalf("%d re-seeds, want exactly 1", n)
	}
	rec := recoverDir(t, dir)
	if string(rec.Snapshot) != `{"seed":true}` {
		t.Fatalf("re-seeded mirror recovers snapshot %q, want the seed snapshot", rec.Snapshot)
	}
	if got := quits(t, rec.Tail); !slices.Equal(got, []int{24}) {
		t.Fatalf("re-seeded mirror's tail %v, want quit 24", got)
	}
	// The re-seeded mirror holds only retained history, byte for byte.
	p.sameEnd(t, dir)
	if rec.End.Seg < oldest.Seg {
		t.Fatalf("re-seeded mirror still holds pre-prune segment %d", rec.End.Seg)
	}
}

// TestClientReconnectsWithBackoff kills the primary's listener mid-stream and
// requires the client to reconnect on its own once a new listener serves the
// same journal, counting the reconnect in its metrics.
func TestClientReconnectsWithBackoff(t *testing.T) {
	p := newPrimary(t)
	p.append(quit(0))

	dir := t.TempDir()
	cl, reg, stop := follow(t, p, dir)
	waitFor(t, "initial catch-up", func() bool { return cl.State().Records == 1 })

	// Drop the listener. The journal stays open; the client must retry until
	// a replacement listener appears at the same address.
	addr := p.ts.Listener.Addr().String()
	p.ts.CloseClientConnections()
	p.ts.Close()
	p.append(quit(1))
	waitFor(t, "a reconnect attempt", func() bool { return counter(reg, MetricReconnects) >= 1 })

	ln, err := netListen(addr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	ts2 := &httptest.Server{
		Listener: ln,
		Config: &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			ServeStream(w, r, StreamConfig{Journal: p.j, Heartbeat: 5 * time.Millisecond})
		})},
	}
	ts2.Start()
	defer ts2.Close()

	waitFor(t, "catch-up after reconnect", func() bool { return p.caughtUp(cl) })
	stop()
	if n := counter(reg, MetricReconnects); n < 1 {
		t.Fatalf("%s = %d after a dropped listener, want at least 1", MetricReconnects, n)
	}
	if n := counter(reg, MetricReseeds); n != 0 {
		t.Fatalf("%d re-seeds across a reconnect, want 0", n)
	}
}

// TestBackoffStaysWithinJitterBounds pins the reconnect backoff: exponential
// from backoffBase, capped at backoffCap, plus at most 50% jitter.
func TestBackoffStaysWithinJitterBounds(t *testing.T) {
	for attempt := 1; attempt <= 40; attempt++ {
		base := backoffBase << min(attempt-1, 16)
		if base > backoffCap || base <= 0 {
			base = backoffCap
		}
		if d := backoff(attempt); d < base || d > base+base/2 {
			t.Fatalf("attempt %d backoff %v outside [%v, %v]", attempt, d, base, base+base/2)
		}
	}
}

// TestStreamLeasePinsPruneForConnectedFollower is the tentpole's no-409
// guarantee: with a follower connected, the primary snapshots and prunes
// repeatedly while the journal rolls; the stream's retention lease must keep
// every still-unshipped segment on disk so the follower reaches lag 0 with
// zero re-seeds and a byte-identical mirror.
func TestStreamLeasePinsPruneForConnectedFollower(t *testing.T) {
	p := newPrimary(t)
	p.append(quit(0))

	dir := t.TempDir()
	cl, reg, stop := follow(t, p, dir)
	waitFor(t, "stream connected", func() bool {
		_, ok := cl.Lag()
		return ok
	})
	waitFor(t, "lease registered", func() bool {
		return p.j.RetainStats().LeaseFloorSeg >= 0
	})

	// Three compaction rounds against the live stream: roll several segments,
	// snapshot (which prunes), repeat. SegmentBytes=128 rolls every few
	// records.
	n := 1
	for round := 0; round < 3; round++ {
		for i := 0; i < 12; i++ {
			p.append(quit(n))
			n++
		}
		if err := p.j.Snapshot([]byte(`{"round":true}`)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "follower caught up through all prunes", func() bool { return p.caughtUp(cl) })
	stop()
	if n := counter(reg, MetricReseeds); n != 0 {
		t.Fatalf("%d re-seeds under a live lease, want 0", n)
	}

	// The mirror's tail is byte-identical to the primary's journal. Record
	// counts intentionally differ: the primary pruned its history while the
	// follower's mirror accumulates the full stream (followers do not prune;
	// see DESIGN.md).
	p.sameEnd(t, dir)
	if dstRec, srcRec := recoverDir(t, dir), recoverDir(t, p.dir); dstRec.Records < srcRec.Records {
		t.Fatalf("mirror lost records: %d < retained %d", dstRec.Records, srcRec.Records)
	}

	// With the follower gone, the lease is released and the retained debt is
	// reclaimable again.
	waitFor(t, "lease released after disconnect", func() bool {
		return p.j.RetainStats().LeaseFloorSeg < 0
	})
	if _, _, err := p.j.Prune(); err != nil {
		t.Fatal(err)
	}
	oldest, lease := p.j.Seed()
	lease.Release()
	if snapSeg := p.j.RetainStats().SnapshotSeg; oldest.Seg != snapSeg {
		t.Fatalf("post-release prune left oldest=%d, want snapshot seg %d", oldest.Seg, snapSeg)
	}
}

// TestResumeCrcMustBeADecimalUint32: the resume crc is compared against the
// journal, so one that is not a plain decimal uint32 answers 400 — Sscanf("%d")
// read these as 12, 0, 1, 7, 7 and went on to validate some other number.
func TestResumeCrcMustBeADecimalUint32(t *testing.T) {
	p := newPrimary(t)
	p.append(quit(0))
	for _, crc := range []string{"12abc", "0x10", "1e3", " 7", "7 8", "", "-1", "4294967296"} {
		q := url.Values{"tenant": {"default"}, "seg": {"0"}, "off": {"5"}, "crc": {crc}}
		resp, err := http.Get(p.ts.URL + "/?" + q.Encode())
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("crc=%q answered %d, want 400", crc, resp.StatusCode)
		}
	}
	if p.j.RetainStats().LeaseFloorSeg >= 0 {
		t.Error("a refused handshake left a lease behind")
	}
}
