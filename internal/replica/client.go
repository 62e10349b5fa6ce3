package replica

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"net/url"
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

// Default reconnect backoff bounds.
const (
	DefaultBackoffBase = 100 * time.Millisecond
	DefaultBackoffCap  = 3 * time.Second
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
	// Dir is the local journal directory to mirror into.
	Dir string
	// HTTP issues the streaming requests; it must not carry a client
	// timeout (streams are unbounded). Nil uses a zero http.Client.
	HTTP *http.Client
	// Apply replays one verified, durable record into the warm engine. An
	// error means local state has diverged and forces a re-seed.
	Apply func(r wal.Record, pos wal.Cursor) error
	// Reset wipes local tenant state — journal directory and engine — ahead
	// of a re-seed. The client reopens its mirror from zero afterwards.
	Reset func() error
	// Start is the client's position from a prior run's recovery (the zero
	// State means "start from scratch").
	Start State
	// BackoffBase/BackoffCap bound the reconnect backoff
	// (DefaultBackoffBase/Cap when zero).
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// JitterSeed seeds this client's private reconnect-jitter RNG, making
	// backoff sequences deterministic in tests. Zero derives a per-client
	// seed from the wall clock and the tenant ID — never the global
	// math/rand source, whose shared unseeded stream correlates the
	// "jitter" of every follower in one process into a thundering herd.
	JitterSeed int64
	// Metrics receives lag gauges and the reconnect counter; nil disables.
	Metrics *obs.Registry
	// Logf receives diagnostics; nil discards them.
	Logf func(format string, args ...any)
}

// Client replicates one tenant's journal from a primary: it mirrors raw
// frames to local disk, verifies CRCs and cursor continuity, replays durable
// records into the warm engine, and re-seeds from a primary snapshot whenever
// histories diverge. Run owns all mutation; State and Lag are safe to call
// from other goroutines.
type Client struct {
	cfg  ClientConfig
	http *http.Client
	logf func(string, ...any)
	rng  *rand.Rand    // private jitter source; only Run's goroutine draws
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
// stored checksum of the record ending there, how many records it holds, and
// whether the warm engine has been seeded with applied state.
type State struct {
	Cursor  wal.Cursor
	LastCRC uint32
	Records int64
	Seeded  bool
}

// NewClient builds a replication client; Run starts it.
func NewClient(cfg ClientConfig) *Client {
	c := &Client{
		cfg:  cfg,
		http: cfg.HTTP,
		logf: cfg.Logf,
		pos:  cfg.Start,
		br:   bufio.NewReaderSize(nil, streamBufBytes),
	}
	if c.http == nil {
		c.http = &http.Client{}
	}
	if c.logf == nil {
		c.logf = func(string, ...any) {}
	}
	if c.cfg.BackoffBase <= 0 {
		c.cfg.BackoffBase = DefaultBackoffBase
	}
	if c.cfg.BackoffCap <= 0 {
		c.cfg.BackoffCap = DefaultBackoffCap
	}
	seed := cfg.JitterSeed
	if seed == 0 {
		h := fnv.New64a()
		_, _ = h.Write([]byte(cfg.Tenant))
		seed = time.Now().UnixNano() ^ int64(h.Sum64())
	}
	c.rng = rand.New(rand.NewSource(seed))
	if cfg.Metrics != nil {
		lbl := obs.L("tenant", cfg.Tenant)
		c.lagRecords = cfg.Metrics.Gauge(MetricLagRecords,
			"Durable primary records not yet applied locally (approximate while behind across pruned history; zero is exact).", lbl)
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

// Lag returns how many durable primary records are not yet applied locally,
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
// backoff plus jitter. It returns ctx.Err().
func (c *Client) Run(ctx context.Context) error {
	attempt := 0
	for {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if attempt > 0 {
			c.reconnects.Inc()
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(c.backoff(attempt)):
			}
		}
		attempt++
		err := c.streamOnce(ctx)
		switch {
		case err == nil || errors.Is(err, context.Canceled):
			// Clean disconnect or shutdown.
		case errors.Is(err, errReseed):
			c.reseeds.Inc()
			c.logf("replica[%s]: diverged, re-seeding: %v", c.cfg.Tenant, err)
			if rerr := c.reseed(); rerr != nil {
				c.logf("replica[%s]: re-seed failed: %v", c.cfg.Tenant, rerr)
			} else {
				attempt = 0 // fresh history, reconnect promptly
			}
		default:
			c.logf("replica[%s]: stream ended: %v", c.cfg.Tenant, err)
		}
	}
}

// backoff returns the delay before reconnect attempt n (n >= 1): capped
// exponential growth from BackoffBase plus up to 50% jitter drawn from the
// client's private RNG, so a given JitterSeed yields a reproducible sequence.
func (c *Client) backoff(attempt int) time.Duration {
	d := c.cfg.BackoffBase << min(attempt-1, 16)
	if d > c.cfg.BackoffCap || d <= 0 {
		d = c.cfg.BackoffCap
	}
	return d + time.Duration(c.rng.Int63n(int64(d)/2+1))
}

// reseed wipes local tenant state and resets the client to stream the
// primary's retained journal from scratch.
func (c *Client) reseed() error {
	if err := c.cfg.Reset(); err != nil {
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

	applyFrom, err := wal.ParseCursor(resp.Header.Get(HeaderApplyFrom))
	if err != nil {
		return fmt.Errorf("replica: bad %s header: %w", HeaderApplyFrom, err)
	}

	mirror, err := wal.OpenMirror(c.cfg.Dir, c.State().Cursor)
	if err != nil {
		if errors.Is(err, wal.ErrMirrorGap) {
			return fmt.Errorf("%w: %v", errReseed, err)
		}
		return err
	}
	defer mirror.Close()

	c.br.Reset(resp.Body)
	return c.consume(c.br, mirror, applyFrom)
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

// consume reads wire frames until the stream ends, mirroring and applying
// record frames and folding heartbeats into the lag gauges.
func (c *Client) consume(br *bufio.Reader, mirror *wal.Mirror, applyFrom wal.Cursor) error {
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
			if err := c.readRecord(br, mirror, applyFrom); err != nil {
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

// readRecord mirrors one replicated frame to disk and replays it into the
// warm engine when it is at or past the apply-from cursor. Snapshot records
// only apply to a pristine engine (the first applied record of a seed);
// later snapshots are checkpoint markers the mirror persists but skips.
func (c *Client) readRecord(br *bufio.Reader, mirror *wal.Mirror, applyFrom wal.Cursor) error {
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
	rec, err := wal.DecodeRecord(payload)
	if err != nil {
		return fmt.Errorf("%w: undecodable replicated record: %v", errReseed, err)
	}
	pos := wal.Cursor{Seg: fr.Seg, Off: fr.Off}
	apply := !pos.Less(applyFrom)
	if apply && rec.Kind == wal.KindSnapshot && c.State().Seeded {
		apply = false
	}
	if apply {
		if err := c.cfg.Apply(rec, pos); err != nil {
			return fmt.Errorf("%w: apply at %v: %v", errReseed, pos, err)
		}
	}
	c.mu.Lock()
	c.pos.Cursor = fr.End()
	c.pos.LastCRC = crc
	c.pos.Records++
	if apply {
		c.pos.Seeded = true
	}
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
