package replica

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"sync"
	"testing"
	"time"

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

// applied is a concurrency-safe log of the records a client replayed.
type applied struct {
	mu   sync.Mutex
	recs []wal.Record
}

func (a *applied) apply(r wal.Record, _ wal.Cursor) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.recs = append(a.recs, r)
	return nil
}

func (a *applied) snapshot() []wal.Record {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]wal.Record(nil), a.recs...)
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

func TestClientCatchUpAndLiveTail(t *testing.T) {
	p := newPrimary(t)
	p.append(quit(0), quit(1), quit(2))

	dir := t.TempDir()
	var got applied
	cl := NewClient(ClientConfig{
		Primary: p.ts.URL, Tenant: "default", Dir: dir,
		Apply: got.apply,
		Reset: func() error { t.Error("unexpected re-seed"); return nil },
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); _ = cl.Run(ctx) }()

	waitFor(t, "backlog catch-up", func() bool {
		lag, ok := cl.Lag()
		return ok && lag == 0
	})
	// Live tail: records appended while the stream is open arrive too.
	p.append(quit(3), quit(4))
	waitFor(t, "live tail", func() bool { return len(got.snapshot()) == 5 })
	waitFor(t, "zero lag after tail", func() bool {
		lag, ok := cl.Lag()
		return ok && lag == 0
	})
	cancel()
	<-done

	recs := got.snapshot()
	for i, r := range recs {
		if r.Kind != wal.KindQuit || r.Employee != i {
			t.Fatalf("applied[%d] = %+v, want quit %d", i, r, i)
		}
	}
	// The mirror is byte-identical to the primary's journal.
	srcRec, err := wal.Recover(p.dir)
	if err != nil {
		t.Fatal(err)
	}
	dstRec, err := wal.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if dstRec.End != srcRec.End || dstRec.LastCRC != srcRec.LastCRC || dstRec.Records != srcRec.Records {
		t.Fatalf("mirror recovery (%v %08x n=%d) != source (%v %08x n=%d)",
			dstRec.End, dstRec.LastCRC, dstRec.Records, srcRec.End, srcRec.LastCRC, srcRec.Records)
	}
	st := cl.State()
	if st.Cursor != srcRec.End || st.LastCRC != srcRec.LastCRC || st.Records != int64(srcRec.Records) || !st.Seeded {
		t.Fatalf("client state %+v does not match source recovery (%v %08x n=%d)",
			st, srcRec.End, srcRec.LastCRC, srcRec.Records)
	}
}

// TestClientResumesFromRecoveredState stops a follower, appends more records
// at the primary, and restarts the follower from its own disk the way a
// rebooted standby does: recovery yields the cursor, and the stream resumes
// without a re-seed.
func TestClientResumesFromRecoveredState(t *testing.T) {
	p := newPrimary(t)
	p.append(quit(0), quit(1))

	dir := t.TempDir()
	var got applied
	run := func(st State) *Client {
		cl := NewClient(ClientConfig{
			Primary: p.ts.URL, Tenant: "default", Dir: dir,
			Apply: got.apply,
			Reset: func() error { t.Error("unexpected re-seed"); return nil },
			Start: st,
		})
		return cl
	}

	cl := run(State{})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); _ = cl.Run(ctx) }()
	waitFor(t, "first catch-up", func() bool { return len(got.snapshot()) == 2 })
	cancel()
	<-done

	p.append(quit(2), quit(3))

	rec, err := wal.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	cl2 := run(State{Cursor: rec.End, LastCRC: rec.LastCRC, Records: int64(rec.Records), Seeded: rec.Records > 0})
	ctx2, cancel2 := context.WithCancel(context.Background())
	done2 := make(chan struct{})
	go func() { defer close(done2); _ = cl2.Run(ctx2) }()
	waitFor(t, "resumed catch-up", func() bool { return len(got.snapshot()) == 4 })
	cancel2()
	<-done2

	for i, r := range got.snapshot() {
		if r.Employee != i {
			t.Fatalf("applied[%d] = %+v: resumed stream repeated or skipped records", i, r)
		}
	}
}

// TestClientReseedsAfterPrune covers the divergence path: while the follower
// is down, the primary snapshots and prunes the segments the follower's
// resume cursor points into. On reconnect the primary demands a re-seed; the
// client must wipe local state, re-mirror from the snapshot, and apply the
// snapshot record first.
func TestClientReseedsAfterPrune(t *testing.T) {
	p := newPrimary(t)
	p.append(quit(0), quit(1), quit(2))

	dir := t.TempDir()
	var got applied
	cl := NewClient(ClientConfig{
		Primary: p.ts.URL, Tenant: "default", Dir: dir,
		Apply: got.apply,
		Reset: func() error { t.Error("unexpected re-seed on first run"); return nil },
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); _ = cl.Run(ctx) }()
	waitFor(t, "first catch-up", func() bool { return len(got.snapshot()) == 3 })
	cancel()
	<-done

	// Follower is down: the primary rolls far enough that a snapshot prunes
	// every segment the follower has (SegmentBytes=128 rolls fast).
	for i := 3; i < 24; i++ {
		p.append(quit(i))
	}
	if err := p.j.Snapshot([]byte(`{"seed":true}`)); err != nil {
		t.Fatal(err)
	}
	p.append(quit(24))
	oldest, _, lease := p.j.Seed()
	lease.Release()
	rec, err := wal.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.End.Seg >= oldest.Seg {
		t.Fatalf("test setup: follower cursor %v not pruned (primary oldest %v)", rec.End, oldest)
	}

	var resets int
	var reapplied applied
	cl2 := NewClient(ClientConfig{
		Primary: p.ts.URL, Tenant: "default", Dir: dir,
		Apply: reapplied.apply,
		Reset: func() error {
			resets++
			return os.RemoveAll(dir)
		},
		Start: State{Cursor: rec.End, LastCRC: rec.LastCRC, Records: int64(rec.Records), Seeded: rec.Records > 0},
	})
	ctx2, cancel2 := context.WithCancel(context.Background())
	done2 := make(chan struct{})
	go func() { defer close(done2); _ = cl2.Run(ctx2) }()
	waitFor(t, "re-seeded catch-up", func() bool {
		lag, ok := cl2.Lag()
		return ok && lag == 0 && len(reapplied.snapshot()) >= 2
	})
	cancel2()
	<-done2

	if resets != 1 {
		t.Fatalf("%d re-seeds, want exactly 1", resets)
	}
	recs := reapplied.snapshot()
	if recs[0].Kind != wal.KindSnapshot || string(recs[0].Snapshot) != `{"seed":true}` {
		t.Fatalf("first applied record after re-seed = %+v, want the snapshot", recs[0])
	}
	if recs[1].Kind != wal.KindQuit || recs[1].Employee != 24 {
		t.Fatalf("post-snapshot tail = %+v, want quit 24", recs[1])
	}
	// The re-seeded mirror holds only retained history, byte for byte.
	srcRec, err := wal.Recover(p.dir)
	if err != nil {
		t.Fatal(err)
	}
	dstRec, err := wal.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if dstRec.End != srcRec.End || dstRec.LastCRC != srcRec.LastCRC {
		t.Fatalf("re-seeded mirror end %v/%08x != source %v/%08x",
			dstRec.End, dstRec.LastCRC, srcRec.End, srcRec.LastCRC)
	}
	if dstRec.End.Seg < oldest.Seg {
		t.Fatalf("re-seeded mirror still holds pre-prune segment %d", dstRec.End.Seg)
	}
}

// TestClientReconnectsWithBackoff kills the primary's listener mid-stream and
// requires the client to reconnect on its own once a new listener serves the
// same journal, counting the reconnect in its metrics.
func TestClientReconnectsWithBackoff(t *testing.T) {
	p := newPrimary(t)
	p.append(quit(0))

	dir := t.TempDir()
	var got applied
	cl := NewClient(ClientConfig{
		Primary: p.ts.URL, Tenant: "default", Dir: dir,
		Apply: got.apply,
		Reset: func() error { t.Error("unexpected re-seed"); return nil },
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() { defer close(done); _ = cl.Run(ctx) }()
	waitFor(t, "initial catch-up", func() bool { return len(got.snapshot()) == 1 })

	// Drop the listener. The journal stays open; the client must retry until
	// a replacement listener appears at the same address.
	addr := p.ts.Listener.Addr().String()
	p.ts.CloseClientConnections()
	p.ts.Close()
	p.append(quit(1))
	time.Sleep(20 * time.Millisecond) // let a few reconnect attempts fail

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

	waitFor(t, "catch-up after reconnect", func() bool { return len(got.snapshot()) == 2 })
	cancel()
	<-done
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
	var got applied
	cl := NewClient(ClientConfig{
		Primary: p.ts.URL, Tenant: "default", Dir: dir,
		Apply: got.apply,
		Reset: func() error { t.Error("re-seed under a live lease"); return nil },
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); _ = cl.Run(ctx) }()
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
	// Lag alone can read 0 against a heartbeat from before the final round's
	// frames, so also require the mirror's cursor to reach the primary's end.
	end := p.j.DurableCursor()
	waitFor(t, "follower caught up through all prunes", func() bool {
		lag, ok := cl.Lag()
		return ok && lag == 0 && cl.State().Cursor == end
	})
	cancel()
	<-done

	// The mirror's tail is byte-identical to the primary's journal. Record
	// counts intentionally differ: the primary pruned its history while the
	// follower's mirror accumulates the full stream (followers do not prune;
	// see DESIGN.md).
	srcRec, err := wal.Recover(p.dir)
	if err != nil {
		t.Fatal(err)
	}
	dstRec, err := wal.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if dstRec.End != srcRec.End || dstRec.LastCRC != srcRec.LastCRC {
		t.Fatalf("mirror recovery (%v %08x) != source (%v %08x)",
			dstRec.End, dstRec.LastCRC, srcRec.End, srcRec.LastCRC)
	}
	if dstRec.Records < srcRec.Records {
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
	oldest, _, lease := p.j.Seed()
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
