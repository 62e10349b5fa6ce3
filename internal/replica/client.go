package replica

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand/v2"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"sync"
	"time"

	"github.com/auditgames/sag/internal/obs"
	"github.com/auditgames/sag/internal/wal"
)

// maxWireFrame bounds a single record frame on the wire: the journal's own
// record ceiling plus framing overhead. Anything larger is stream corruption.
const maxWireFrame = 64<<20 + 16

// streamBufBytes is each client's stream read buffer: one page, like the
// journal's write buffer. Frames are ~70 bytes apart from snapshots, and a
// frame larger than the buffer is read straight into its own slice.
const streamBufBytes = 4 << 10

// Reconnect backoff bounds: exponential from backoffBase, capped at
// backoffCap, before jitter.
const (
	backoffBase = 100 * time.Millisecond
	backoffCap  = 3 * time.Second
)

// errReseed signals that the local copy has diverged from the primary's
// retained journal and must be rebuilt from scratch.
var errReseed = errors.New("replica: re-seed required")

// ClientConfig configures one tenant's replication client.
type ClientConfig struct {
	// Primary is the primary's base URL (e.g. "http://127.0.0.1:8080").
	Primary string
	// Tenant is the tenant ID to replicate.
	Tenant string
	// Dir is the local journal directory to mirror into. The client owns
	// it: Run resumes from what it holds and a re-seed deletes it.
	Dir string
	// Metrics receives lag gauges and the reconnect counter; nil disables.
	Metrics *obs.Registry
}

// Client replicates one tenant's journal from a primary: it mirrors raw
// frames to local disk, verifies CRCs, record encodings and cursor
// continuity, and re-seeds from the primary's retained journal whenever
// histories diverge. It builds no engine: promotion recovers the mirror the
// way a boot recovers a journal. Run owns all mutation; State and Lag are
// safe to call from other goroutines.
type Client struct {
	cfg  ClientConfig
	http *http.Client  // no client timeout: a stream is unbounded
	br   *bufio.Reader // Reset onto each stream's body; only Run's goroutine reads

	lagRecords *obs.Gauge
	lagSeconds *obs.Gauge
	reconnects *obs.Counter
	reseeds    *obs.Counter

	mu             sync.Mutex
	pos            State
	primaryRecords int64
	lag            int64
	heartbeats     int64
	behindSince    time.Time
}

// State is a replication position: where the mirrored journal ends, the
// stored checksum of the record ending there, and how many records it holds.
type State struct {
	Cursor  wal.Cursor
	LastCRC uint32
	Records int64
}

// NewClient builds a replication client; Run starts it.
func NewClient(cfg ClientConfig) *Client {
	c := &Client{
		cfg:  cfg,
		http: &http.Client{},
		br:   bufio.NewReaderSize(nil, streamBufBytes),
	}
	if cfg.Metrics != nil {
		lbl := obs.L("tenant", cfg.Tenant)
		c.lagRecords = cfg.Metrics.Gauge(MetricLagRecords,
			"Durable primary records not yet mirrored locally (approximate while behind across pruned history; zero is exact).", lbl)
		c.lagSeconds = cfg.Metrics.Gauge(MetricLagSeconds,
			"Seconds since the follower was last fully caught up.", lbl)
		c.reconnects = cfg.Metrics.Counter(MetricReconnects,
			"Replication stream reconnect attempts.", lbl)
		c.reseeds = cfg.Metrics.Counter(MetricReseeds,
			"Snapshot re-seeds (local copy discarded after diverging from the primary's retained journal).", lbl)
	}
	return c
}

// State returns the current replication position.
func (c *Client) State() State {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pos
}

// Lag returns how many durable primary records are not yet mirrored locally,
// per the last heartbeat. Zero is exact (the local cursor has reached the
// primary's durable cursor); nonzero values are approximate when the primary
// has pruned history the follower never receives. ok is false until the
// first heartbeat arrives (lag is unknown, not zero).
func (c *Client) Lag() (records int64, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lag, c.heartbeats > 0
}

// Run replicates until ctx is canceled, reconnecting with capped exponential
// backoff plus jitter. It first recovers its resume position from the mirror
// in Dir, retrying with the same backoff while that fails. It returns
// ctx.Err().
func (c *Client) Run(ctx context.Context) error {
	attempt := 0
	recovered := false
	for {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if attempt > 0 {
			c.reconnects.Inc()
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(backoff(attempt)):
			}
		}
		attempt++
		if !recovered {
			if err := c.recoverMirror(); err != nil {
				slog.Warn("replica mirror unrecoverable, retrying", "tenant", c.cfg.Tenant, "err", err)
				continue
			}
			recovered = true
		}
		err := c.streamOnce(ctx)
		switch {
		case err == nil || errors.Is(err, context.Canceled):
			// Clean disconnect or shutdown.
		case errors.Is(err, errReseed):
			c.reseeds.Inc()
			slog.Warn("replica diverged, re-seeding", "tenant", c.cfg.Tenant, "err", err)
			if rerr := c.reseed(); rerr != nil {
				slog.Error("re-seed failed", "tenant", c.cfg.Tenant, "err", rerr)
			} else {
				attempt = 0 // fresh history, reconnect promptly
			}
		default:
			slog.Warn("replica disconnected, reconnecting", "tenant", c.cfg.Tenant, "err", err)
		}
	}
}

// backoff returns the delay before reconnect attempt n (n >= 1): capped
// exponential growth from backoffBase plus up to 50% jitter. The jitter source
// is seeded per process, so the followers of one primary do not reconnect in
// step.
func backoff(attempt int) time.Duration {
	d := backoffBase << min(attempt-1, 16)
	if d > backoffCap || d <= 0 {
		d = backoffCap
	}
	return d + rand.N(d/2+1)
}

// recoverMirror sets the resume position to where the mirror in Dir ends,
// after cutting off any torn tail a crash left (the primary resends it).
func (c *Client) recoverMirror() error {
	rec, err := wal.Recover(c.cfg.Dir)
	if err == nil {
		err = rec.Cut()
	}
	if err != nil {
		return err
	}
	if rec.Truncated {
		slog.Warn("truncated corrupt mirror tail", "tenant", c.cfg.Tenant,
			"segment", rec.TruncatedSegment, "offset", rec.TruncatedOffset)
	}
	c.mu.Lock()
	c.pos = State{Cursor: rec.End, LastCRC: rec.LastCRC, Records: int64(rec.Records)}
	c.mu.Unlock()
	return nil
}

// reseed deletes the mirror and resets the client to stream the primary's
// retained journal from scratch.
func (c *Client) reseed() error {
	if err := os.RemoveAll(c.cfg.Dir); err != nil {
		return err
	}
	c.mu.Lock()
	c.pos = State{}
	c.mu.Unlock()
	return nil
}

// streamOnce opens one replication stream and consumes it until it ends.
func (c *Client) streamOnce(ctx context.Context) error {
	resp, reseedDemanded, err := c.connect(ctx)
	if err != nil {
		if reseedDemanded {
			return fmt.Errorf("%w: primary rejected cursor", errReseed)
		}
		return err
	}
	defer resp.Body.Close()

	mirror, err := wal.OpenMirror(c.cfg.Dir, c.State().Cursor)
	if err != nil {
		if errors.Is(err, wal.ErrMirrorGap) {
			return fmt.Errorf("%w: %v", errReseed, err)
		}
		return err
	}
	defer mirror.Close()

	c.br.Reset(resp.Body)
	return c.consume(c.br, mirror)
}

// connect issues the replication request, sending the resume cursor when one
// exists. A 409 with the re-seed header sets reseedDemanded.
func (c *Client) connect(ctx context.Context) (resp *http.Response, reseedDemanded bool, err error) {
	q := url.Values{"tenant": {c.cfg.Tenant}}
	if at := c.State(); !at.Cursor.IsZero() {
		q.Set("seg", strconv.Itoa(at.Cursor.Seg))
		q.Set("off", strconv.FormatInt(at.Cursor.Off, 10))
		q.Set("crc", strconv.FormatUint(uint64(at.LastCRC), 10))
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		c.cfg.Primary+"/v1/replicate?"+q.Encode(), nil)
	if err != nil {
		return nil, false, err
	}
	r, err := c.http.Do(req)
	if err != nil {
		return nil, false, err
	}
	if r.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(r.Body, 4<<10))
		r.Body.Close()
		demand := r.StatusCode == http.StatusConflict && r.Header.Get(HeaderReseed) != ""
		return nil, demand, fmt.Errorf("replica: primary answered %d: %s", r.StatusCode, body)
	}
	return r, false, nil
}

// consume reads wire frames until the stream ends, mirroring record frames
// and folding heartbeats into the lag gauges.
func (c *Client) consume(br *bufio.Reader, mirror *wal.Mirror) error {
	for {
		kind, err := br.ReadByte()
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
		switch kind {
		case frameRecord:
			if err := c.readRecord(br, mirror); err != nil {
				return err
			}
		case frameHeartbeat:
			if err := c.readHeartbeat(br, mirror); err != nil {
				return err
			}
		default:
			return fmt.Errorf("replica: unknown frame type 0x%02x", kind)
		}
	}
}

// readRecord mirrors one replicated frame to disk. A frame whose payload
// does not decode as a record would fail promotion's recovery, so it forces a
// re-seed here instead.
func (c *Client) readRecord(br *bufio.Reader, mirror *wal.Mirror) error {
	seg, err := binary.ReadUvarint(br)
	if err != nil {
		return err
	}
	off, err := binary.ReadUvarint(br)
	if err != nil {
		return err
	}
	rawLen, err := binary.ReadUvarint(br)
	if err != nil {
		return err
	}
	if rawLen == 0 || rawLen > maxWireFrame {
		return fmt.Errorf("replica: frame length %d out of range", rawLen)
	}
	raw := make([]byte, rawLen)
	if _, err := io.ReadFull(br, raw); err != nil {
		return err
	}
	fr := wal.Frame{Seg: int(seg), Off: int64(off), Raw: raw}
	payload, crc, err := mirror.Append(fr)
	if err != nil {
		if errors.Is(err, wal.ErrMirrorGap) || errors.Is(err, wal.ErrCorrupt) {
			return fmt.Errorf("%w: %v", errReseed, err)
		}
		return err
	}
	if _, err := wal.DecodeRecord(payload); err != nil {
		return fmt.Errorf("%w: undecodable replicated record: %v", errReseed, err)
	}
	c.mu.Lock()
	c.pos.Cursor = fr.End()
	c.pos.LastCRC = crc
	c.pos.Records++
	c.mu.Unlock()
	return nil
}

// readHeartbeat folds one heartbeat into the lag gauges and, when fully
// caught up, syncs the mirror so the replicated tail is crash-durable.
// Caught-up is judged by cursor, not record count: the primary's lifetime
// record count includes pruned history the follower never receives, so the
// count difference is only an approximation of the remaining backlog. The
// one gap no frame ever closes is a bare segment header — a journal nobody
// has written to since it was opened sits at {seg, header} — so a durable
// cursor at a segment start with equal record counts is caught up too.
func (c *Client) readHeartbeat(br *bufio.Reader, mirror *wal.Mirror) error {
	durSeg, err := binary.ReadUvarint(br)
	if err != nil {
		return err
	}
	durOff, err := binary.ReadUvarint(br)
	if err != nil {
		return err
	}
	nrecs, err := binary.ReadUvarint(br)
	if err != nil {
		return err
	}
	durable := wal.Cursor{Seg: int(durSeg), Off: int64(durOff)}
	c.mu.Lock()
	c.primaryRecords = int64(nrecs)
	c.heartbeats++
	var lag int64
	if c.pos.Cursor.Less(durable) && !(durable.AtSegmentStart() && c.primaryRecords == c.pos.Records) {
		lag = c.primaryRecords - c.pos.Records
		if lag < 1 {
			lag = 1 // behind by cursor; the count basis is off by pruning
		}
		if c.behindSince.IsZero() {
			c.behindSince = time.Now()
		}
	} else {
		c.behindSince = time.Time{}
	}
	c.lag = lag
	behind := c.behindSince
	c.mu.Unlock()
	c.lagRecords.Set(float64(lag))
	if behind.IsZero() {
		c.lagSeconds.Set(0)
	} else {
		c.lagSeconds.Set(time.Since(behind).Seconds())
	}
	if lag == 0 {
		return mirror.Sync()
	}
	return nil
}
