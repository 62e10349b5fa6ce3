package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"time"
)

const tenantHeader = "X-SAG-Tenant"

// tally is the client's own count of what one tenant's current cycle holds;
// GET /v1/status must agree with it exactly (exactly-once charging).
type tally struct {
	Accesses int `json:"accesses"`
	Alerts   int `json:"alerts"`
	Warned   int `json:"warned"`
	Quits    int `json:"quits"`
}

// tenantRun is one tenant as its owning connection sees it: the script, the
// books, and the record of what was sent and answered. Exactly one goroutine
// touches it at a time.
type tenantRun struct {
	id     string
	script *tenantScript

	tally      tally
	flagged    map[int]bool
	lastBudget float64 // remaining_budget of the previous access this cycle

	// sent and hashes record the tenant's history — every request and a
	// hash of (status code, body) of every answer — so the in-process
	// oracle and the traced shadow path can be held to the same responses.
	sent   []op
	hashes []uint64

	nfail    int
	failures []string // the first few, for the report
}

func newTenantRun(w *workload, seed int64, i int) *tenantRun {
	return &tenantRun{
		id:         tenantID(i),
		script:     newTenantScript(w, seed, i),
		flagged:    make(map[int]bool),
		lastBudget: cycleBudget,
	}
}

func (t *tenantRun) fail(format string, args ...any) {
	t.nfail++
	if len(t.failures) < 4 {
		t.failures = append(t.failures, fmt.Sprintf("tenant %s op %d: ", t.id, len(t.sent))+fmt.Sprintf(format, args...))
	}
}

// responseHash folds a status code and body into 64 bits.
func responseHash(code int, body []byte) uint64 {
	h := sha256.New()
	var c [4]byte
	binary.LittleEndian.PutUint32(c[:], uint32(code))
	h.Write(c[:])
	h.Write(body)
	return binary.LittleEndian.Uint64(h.Sum(nil))
}

// digestHashes is the SHA-256 over the first n response hashes: equal
// digests mean byte-identical answers to identical requests, in order.
func digestHashes(hashes []uint64, n int) string {
	n = min(n, len(hashes))
	h := sha256.New()
	var b [8]byte
	for _, x := range hashes[:n] {
		binary.LittleEndian.PutUint64(b[:], x)
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// requestFor renders an op as method, path and body.
func requestFor(o op) (method, path string, body []byte) {
	switch o.kind {
	case opAccess:
		b := make([]byte, 0, 48)
		b = append(b, `{"employee_id":`...)
		b = strconv.AppendInt(b, int64(o.employee), 10)
		b = append(b, `,"patient_id":`...)
		b = strconv.AppendInt(b, int64(o.patient), 10)
		b = append(b, '}')
		return http.MethodPost, "/v1/access", b
	case opQuit:
		return http.MethodPost, "/v1/quit", []byte(`{"employee_id":` + strconv.Itoa(o.employee) + `}`)
	case opStatus:
		return http.MethodGet, "/v1/status", nil
	case opClose:
		return http.MethodPost, "/v1/cycle/close", []byte(`{}`)
	case opNew:
		return http.MethodPost, "/v1/cycle/new", []byte(`{"budget":` + strconv.Itoa(cycleBudget) + `}`)
	case opSnapshot:
		return http.MethodPost, "/v1/admin/snapshot", []byte(`{}`)
	case opSummary:
		return http.MethodGet, "/v1/cycle/summary", nil
	}
	panic("unknown op kind")
}

// accessBody mirrors server.AccessResponse; the harness decodes the wire
// bytes itself so a renamed field fails a check instead of compiling away.
type accessBody struct {
	Alert           bool    `json:"alert"`
	TypeID          int     `json:"type_id"`
	Warn            bool    `json:"warn"`
	RemainingBudget float64 `json:"remaining_budget"`
	Fallback        string  `json:"fallback"`
}

// judge checks one answer against the script's expectation and the tenant's
// books, updates the books, and records the history. It reports whether the
// answer was acceptable.
func (t *tenantRun) judge(o op, code int, body []byte) bool {
	before := t.nfail
	if code != http.StatusOK {
		t.fail("%s answered %d: %.120s", o.kind, code, body)
	} else {
		switch o.kind {
		case opAccess:
			var r accessBody
			if err := json.Unmarshal(body, &r); err != nil {
				t.fail("access body: %v", err)
				break
			}
			if r.Alert != o.wantAlert || r.TypeID != o.wantType {
				t.fail("access (%d,%d): alert=%v type=%d, want alert=%v type=%d",
					o.employee, o.patient, r.Alert, r.TypeID, o.wantAlert, o.wantType)
			}
			if r.Fallback != "" {
				t.fail("access degraded to fallback %q", r.Fallback)
			}
			if r.RemainingBudget > t.lastBudget {
				t.fail("remaining_budget rose within a cycle: %v after %v", r.RemainingBudget, t.lastBudget)
			}
			t.lastBudget = r.RemainingBudget
			t.tally.Accesses++
			if r.Alert {
				t.tally.Alerts++
			}
			if r.Warn {
				t.tally.Warned++
			}
		case opQuit:
			// Idempotent on the server: only an employee's first quit counts.
			if !t.flagged[o.employee] {
				t.flagged[o.employee] = true
				t.tally.Quits++
			}
		case opStatus:
			var got tally
			if err := json.Unmarshal(body, &got); err != nil {
				t.fail("status body: %v", err)
			} else if got != t.tally {
				t.fail("status %+v, client counted %+v", got, t.tally)
			}
		case opNew:
			t.tally = tally{}
			t.lastBudget = cycleBudget
		case opSummary:
			var s struct{ Alerts int }
			if err := json.Unmarshal(body, &s); err != nil {
				t.fail("summary body: %v", err)
			} else if s.Alerts != t.tally.Alerts {
				t.fail("summary alerts %d, client counted %d", s.Alerts, t.tally.Alerts)
			}
		}
	}
	t.sent = append(t.sent, o)
	t.hashes = append(t.hashes, responseHash(code, body))
	return t.nfail == before
}

// conn is one generator connection: a client pinned to a single keep-alive
// TCP connection, the tenants it owns, and the samples it took.
type conn struct {
	wire    wire
	tenants []*tenantRun
	turn    int

	attempted int
	failed    int
	// The timed run (see begin): its start, its samples, and the box-speed
	// probe (see speedProbe) accumulated per time slice.
	t0        time.Time
	samples   []sample
	sliceLen  time.Duration
	probeNs   []int64
	probeOps  []int64
	probeKeep byte

	rolls    []float64                    // close+new round trips, ms
	closeLat map[*tenantRun]time.Duration // a close waiting for its new
}

func newConn(base string) *conn {
	c := &conn{closeLat: make(map[*tenantRun]time.Duration)}
	c.redirect(base)
	return c
}

// begin opens the timed run: sample offsets count from t0 and the speed
// probe runs, filed under slices of sliceLen, until end is called.
func (c *conn) begin(t0 time.Time, sliceLen time.Duration, slices int) {
	c.t0, c.sliceLen = t0, sliceLen
	c.probeNs, c.probeOps = make([]int64, slices), make([]int64, slices)
}

// end closes the timed run; later sends are neither sampled nor probed.
func (c *conn) end() { c.sliceLen = 0 }

// redirect points the connection at another server (a restart picks new
// ports), dropping the old TCP connection.
func (c *conn) redirect(base string) {
	c.wire.close()
	c.wire.addr = strings.TrimPrefix(base, "http://")
}

func (c *conn) close() { c.wire.close() }

// send performs one request for tenant t and judges the answer. The returned
// times bracket the round trip including reading the whole body.
func (c *conn) send(t *tenantRun, o op) (start, end time.Time, ok bool) {
	method, path, body := requestFor(o)
	c.attempted++
	start = time.Now()
	code, resp, err := c.wire.do(method, path, t.id, body)
	end = time.Now()
	if err != nil {
		t.fail("%s: transport: %v", o.kind, err)
		t.sent = append(t.sent, o)
		t.hashes = append(t.hashes, 0)
	} else {
		ok = t.judge(o, code, resp)
	}
	if c.sliceLen > 0 && ok && o.kind == opAccess {
		if k := int(end.Sub(c.t0) / c.sliceLen); k >= 0 && k < len(c.probeNs) {
			c.probeNs[k] += speedProbe(&c.probeKeep)
			c.probeOps[k]++
		}
	}
	if !ok {
		c.failed++
	}
	return start, end, ok
}

// timed sends the tenant's next scripted request and files the sample. In
// an open loop due is the request's scheduled send time and step its rate
// step; a closed loop passes the zero time. A close's latency is held until
// its new arrives so the pair is reported as one cycle roll.
func (c *conn) timed(t *tenantRun, due time.Time, step int) {
	o := t.script.next()
	start, end, ok := c.send(t, o)
	s := sample{kind: o.kind, ok: ok, end: end.Sub(c.t0), lat: end.Sub(start), step: step}
	if !due.IsZero() {
		s.lat = end.Sub(due)
		s.late = start.Sub(due)
	}
	c.samples = append(c.samples, s)
	switch o.kind {
	case opClose:
		c.closeLat[t] = end.Sub(start)
	case opNew:
		if d, found := c.closeLat[t]; found {
			c.rolls = append(c.rolls, float64(d+end.Sub(start))/float64(time.Millisecond))
			delete(c.closeLat, t)
		}
	}
}

// nextTenant hands out the connection's tenants round-robin.
func (c *conn) nextTenant() *tenantRun {
	t := c.tenants[c.turn%len(c.tenants)]
	c.turn++
	return t
}

// runClosed drives the connection's tenants back to back until the deadline
// (and until every tenant has sent minOps requests): the next request leaves
// only when the previous answer is in.
func (c *conn) runClosed(deadline time.Time, minOps int) {
	for time.Now().Before(deadline) || !c.minOpsDone(minOps) {
		c.timed(c.nextTenant(), time.Time{}, 0)
	}
}

func (c *conn) minOpsDone(minOps int) bool {
	for _, t := range c.tenants {
		if len(t.sent) < minOps {
			return false
		}
	}
	return true
}

// rateStep is one stretch of an open-loop run at a fixed offered rate.
type rateStep struct {
	Rate  float64 // requests per second, all connections together
	Share float64 // share of the run's seconds
}

// runOpen sends on a schedule regardless of how the server keeps up:
// connection idx of n sends request k of a step at stepStart + (k·n+idx)/rate.
// Latency is taken from the due time, so a stall charges every request it
// delayed, and how late each send actually left is kept as the generator's
// own lag. The connection still sends one request at a time — a late
// request leaves as soon as its predecessor's answer is in.
func (c *conn) runOpen(idx, n int, steps []rateStep, seconds float64) {
	stepStart := c.t0
	for si, st := range steps {
		dur := time.Duration(st.Share * seconds * float64(time.Second))
		gap := time.Duration(float64(time.Second) / st.Rate)
		for k := 0; ; k++ {
			due := stepStart.Add(time.Duration(k*n+idx) * gap)
			if !due.Before(stepStart.Add(dur)) {
				break
			}
			sleepUntil(due)
			c.timed(c.nextTenant(), due, si)
		}
		stepStart = stepStart.Add(dur)
	}
}

// sleepUntil waits for due. The runtime's timers wake tens to hundreds of
// microseconds late on a virtual machine, and in an open loop that lateness
// would be charged to the server; so the last stretch is spent yielding in a
// loop instead, which costs the generator a bounded sliver of one core.
func sleepUntil(due time.Time) {
	const spin = 150 * time.Microsecond
	if wait := time.Until(due); wait > spin {
		time.Sleep(wait - spin)
	}
	for time.Now().Before(due) {
		runtime.Gosched()
	}
}

// finishRolls completes any cycle roll the deadline interrupted, untimed, so
// no tenant is left closed when the books are checked.
func (c *conn) finishRolls() {
	for _, t := range c.tenants {
		for t.script.midRoll() {
			c.send(t, t.script.next())
		}
	}
}
