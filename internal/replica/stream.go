package replica

import (
	"encoding/binary"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"github.com/auditgames/sag/internal/wal"
)

// StreamConfig configures one ServeStream call.
type StreamConfig struct {
	// Journal is the tenant journal to ship. Required.
	Journal *wal.Journal
	// Heartbeat is the idle heartbeat period (DefaultHeartbeat when zero).
	Heartbeat time.Duration
}

// ServeStream handles one GET /v1/replicate?tenant=... request: it validates
// the follower's resume cursor against the journal, then streams record
// frames and heartbeats until the client disconnects. It never returns an
// error to the caller — protocol errors become HTTP statuses, transport
// errors just end the stream. The handler must be mounted outside any
// buffering or deadline-setting middleware: the response is unbounded.
func ServeStream(w http.ResponseWriter, r *http.Request, cfg StreamConfig) {
	src := cfg.Journal
	hb := cfg.Heartbeat
	if hb <= 0 {
		hb = DefaultHeartbeat
	}

	// The handshake pins before it answers: the stream holds a retention
	// lease from the cursor it negotiates, advanced as frames ship and on
	// every heartbeat, so compaction prunes only what this follower is past
	// and a live stream never dies with ErrCursorGone under a
	// snapshot-then-prune. The lease lives exactly as long as the stream: a
	// disconnected follower pins nothing (its next connect renegotiates, and
	// a prune in the gap legitimately demands a re-seed).
	cur, lease, ok := negotiate(w, r, src)
	if !ok {
		return
	}
	defer lease.Release()

	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)

	// The server's global WriteTimeout would kill a healthy long-lived
	// stream; take over deadline management and re-arm it per write so only
	// a stuck peer is cut off.
	rc := http.NewResponseController(w)
	_ = rc.SetReadDeadline(time.Time{})

	st := &streamer{w: w, rc: rc}
	sub, cancel := src.Subscribe()
	defer cancel()
	ticker := time.NewTicker(hb)
	defer ticker.Stop()

	for {
		next, err := src.ReadFrames(cur, st.record)
		if err != nil {
			// Pruned under us, torn read, or the peer went away: either
			// way this stream is done; the client reconnects with its
			// cursor and renegotiates (a prune then answers re-seed).
			slog.Warn("replication stream ended", "tenant", r.URL.Query().Get("tenant"), "cursor", next, "err", err)
			return
		}
		if next != cur {
			cur = next
			lease.Advance(cur) // shipped frames no longer need pinning
			if st.heartbeat(src) != nil {
				return
			}
			continue
		}
		select {
		case <-r.Context().Done():
			return
		case <-sub:
		case <-ticker.C:
			// Heartbeats double as lease renewal: an idle-but-alive stream
			// keeps its pin current at the position it would resume from.
			lease.Advance(cur)
			if st.heartbeat(src) != nil {
				return
			}
		}
	}
}

// negotiate answers the handshake with the cursor to stream from and the
// lease pinning it; it writes the error response itself when the handshake
// fails (ok=false). A resume is pinned first and validated second, a fresh
// seed gets both from one critical section (wal.Journal.Seed), so nothing is
// prunable between choosing a cursor and holding it.
func negotiate(w http.ResponseWriter, r *http.Request, src *wal.Journal) (cur wal.Cursor, lease *wal.Lease, ok bool) {
	q := r.URL.Query()
	if !q.Has("seg") {
		cur, lease = src.Seed()
		return cur, lease, true
	}
	cur, crc, err := parseResume(q.Get("seg"), q.Get("off"), q.Get("crc"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return cur, nil, false
	}
	lease = src.AcquireLease(cur)
	if err := src.ValidateCursor(cur, crc); err != nil {
		lease.Release()
		if errors.Is(err, wal.ErrCursorGone) || errors.Is(err, wal.ErrCursorInvalid) {
			slog.Warn("resume cursor rejected, demanding re-seed", "tenant", q.Get("tenant"), "cursor", cur, "err", err)
			w.Header().Set(HeaderReseed, "1")
			http.Error(w, err.Error(), http.StatusConflict)
		} else {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
		return cur, nil, false
	}
	return cur, lease, true
}

// parseResume decodes a resume cursor's query parameters. They come from
// outside the process: anything that is not three plain decimal numbers is
// an error (400), never some other cursor.
func parseResume(seg, off, crc string) (wal.Cursor, uint32, error) {
	cur, err := wal.ParseCursor(seg + "/" + off)
	if err != nil {
		return wal.Cursor{}, 0, err
	}
	last, err := strconv.ParseUint(crc, 10, 32)
	if err != nil {
		return wal.Cursor{}, 0, fmt.Errorf("wal: malformed cursor crc %q", crc)
	}
	return cur, uint32(last), nil
}

// streamer writes wire frames with a per-write deadline and explicit flushes.
type streamer struct {
	w   http.ResponseWriter
	rc  *http.ResponseController
	buf []byte
}

// record emits one 'r' frame. It satisfies wal.ReadFrames' callback; the raw
// bytes are copied into the response before the call returns.
func (st *streamer) record(fr wal.Frame) error {
	st.buf = st.buf[:0]
	st.buf = append(st.buf, frameRecord)
	st.buf = binary.AppendUvarint(st.buf, uint64(fr.Seg))
	st.buf = binary.AppendUvarint(st.buf, uint64(fr.Off))
	st.buf = binary.AppendUvarint(st.buf, uint64(len(fr.Raw)))
	st.buf = append(st.buf, fr.Raw...)
	return st.write(st.buf, false)
}

// heartbeat emits one 'h' frame carrying the source's durable position and
// record count, then flushes so the follower sees it promptly.
func (st *streamer) heartbeat(src *wal.Journal) error {
	durable := src.DurableCursor()
	st.buf = st.buf[:0]
	st.buf = append(st.buf, frameHeartbeat)
	st.buf = binary.AppendUvarint(st.buf, uint64(durable.Seg))
	st.buf = binary.AppendUvarint(st.buf, uint64(durable.Off))
	st.buf = binary.AppendUvarint(st.buf, uint64(src.DurableRecords()))
	return st.write(st.buf, true)
}

func (st *streamer) write(b []byte, flush bool) error {
	_ = st.rc.SetWriteDeadline(time.Now().Add(streamWriteTimeout))
	if _, err := st.w.Write(b); err != nil {
		return err
	}
	if flush {
		return st.rc.Flush()
	}
	return nil
}
