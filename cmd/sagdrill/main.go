// Command sagdrill is the crash, failover and retention drill for
// sagserver's durability layer: it proves that kill -9 at an arbitrary point
// loses nothing the server ever acknowledged, and that the surviving state is
// bit-identical to a run that was never interrupted.
//
// A drill is a list of steps that one interpreter (scenario.run) executes
// against real sagserver processes, named by role, and a deterministic
// request script; script, kill point and kill timing all derive from -seed.
//
//	start        boot the role on its own data dir and port; starting it
//	             again restarts the same node (dir, port, flags)
//	kill         SIGKILL the role (inFlight: with the next script op
//	             mid-request) and remember its highest WAL segment
//	traffic      apply script ops, each acknowledged, up to a position: half
//	             way to the kill point, the kill point, or the end
//	compaction   traffic, watching the role's compactor: ≥ 3 prune rounds,
//	             journal ≤ 4× the disk budget throughout, ≤ 2× once settled
//	caughtUp     /v1/readyz reports replication lag 0; the first time since
//	             its start, remember the role's oldest WAL segment
//	gapCursor    snapshot the role until it has pruned every segment its
//	             killed peer held (within 100 snapshots)
//	reseeded     the role's oldest segment is past the highest it held when
//	             killed: it wiped its mirror and re-seeded from a snapshot
//	notReseeded  the role's oldest segment has not moved since caughtUp
//	promote      POST /v1/admin/promote
//	resume       /v1/status shows acked ≤ applied ≤ acked+1 (+1 only if an op
//	             was in flight at the kill); finish the script from `applied`
//	fingerprint  capture /v1/status, /v1/cycle/summary and /v1/cycle/close
//
// Every mode runs the golden list (start, traffic to the end, fingerprint)
// and then its own over the same script; the two fingerprints must match byte
// for byte. -artifacts writes a diverging pair to files for CI upload.
//
//	crash      kill the server in flight, restart it on its data dir, resume
//	failover   kill the standby, gapCursor, restart it: reseeded; then kill
//	           the primary in flight, promote the standby, resume
//	retention  compaction under a caughtUp standby: notReseeded; then kill
//	           the primary, promote the standby, resume
//
// Usage:
//
//	go build -o sagserver ./cmd/sagserver
//	go run ./cmd/sagdrill -server ./sagserver -seed "$RANDOM"
//	go run ./cmd/sagdrill -server ./sagserver -mode failover -seed "$RANDOM"
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"time"
)

func main() {
	if err := run(); err != nil {
		log.Fatal("sagdrill: ", err)
	}
}

// op is one scripted request: an access pair or an employee quitting.
type op struct {
	quit              bool
	employee, patient int
}

// config is the drill's parameter set; main fills it from flags, tests fill
// it directly.
type config struct {
	serverBin string
	mode      string
	seed      int64
	requests  int
	employees int
	patients  int
	history   int
	startWait time.Duration
	artifacts string
}

func run() error {
	var cfg config
	flag.StringVar(&cfg.serverBin, "server", "./sagserver", "path to the sagserver binary under test")
	flag.StringVar(&cfg.mode, "mode", "crash", "drill mode: crash (kill + restart on the same data dir), failover (kill the primary, promote a WAL-shipping standby), or retention (compaction under a live follower, then promote)")
	flag.Int64Var(&cfg.seed, "seed", 1, "drill seed: request script, kill point, and kill timing all derive from it")
	flag.IntVar(&cfg.requests, "requests", 40, "access requests in the script (plus one quit)")
	flag.IntVar(&cfg.employees, "employees", 120, "world size passed to the server (first planted pair = employees/patients)")
	flag.IntVar(&cfg.patients, "patients", 600, "world size passed to the server")
	flag.IntVar(&cfg.history, "history", 8, "days of simulated history the server fits on (drill speed knob)")
	flag.DurationVar(&cfg.startWait, "start-wait", 3*time.Minute, "how long to wait for each server boot")
	flag.StringVar(&cfg.artifacts, "artifacts", "", "on divergence, write the golden and actual responses under this directory (for CI upload)")
	flag.Parse()
	return drillRun(cfg)
}

// step is one instruction of a drill: do (the package comment is the
// vocabulary), applied to the server named by role.
type step struct {
	do       func(s *scenario, p *server, st step) error
	role     string
	peer     string   // start: boot as a standby following peer; gapCursor: the killed follower
	flags    []string // start: sagserver flags after the common set (first boot only)
	upTo     pos      // traffic, compaction
	inFlight bool     // kill
}

// pos is a script position that traffic is driven up to.
type pos int

const (
	toHalf pos = iota // half of the ops before the kill point, at least one
	toKill            // every op before the kill point
	toEnd             // the whole script
)

const primary, standby = "primary", "standby"

// Retention drill parameters. The budget must sit above one tenant snapshot
// (so the tenant can always reclaim) yet far below the filler's total write
// volume (so the compactor is forced through several rounds).
const (
	retentionDiskBudget = 8 << 10
	retentionFillerOps  = 5000
)

// smallSegments: a handful of snapshots prunes past a follower's cursor.
var smallSegments = []string{"-wal-segment-bytes", "512"}

var goldenSteps = []step{
	{do: start, role: primary},
	{do: traffic, role: primary, upTo: toEnd},
	{do: fingerprint, role: primary},
}

// mode is one -mode value: how its script is shaped and the steps it runs.
type mode struct {
	what        string // the PASS line's name for what survived
	banner      string // log format; args: kill index, script length, disk budget
	maxRequests int    // cap on -requests, 0 for none
	filler      int    // benign accesses appended to the script
	steps       []step
}

var modes = map[string]mode{
	"crash": {
		what:   "kill -9 recovery",
		banner: "crash run: SIGKILL with op %[1]d/%[2]d in flight",
		steps: []step{
			{do: start, role: primary},
			{do: traffic, role: primary, upTo: toKill},
			{do: kill, role: primary, inFlight: true},
			{do: start, role: primary},
			{do: resume, role: primary},
			{do: fingerprint, role: primary},
		},
	},
	// A standby that comes back with a pruned (gapped) resume cursor must
	// re-seed from the primary's snapshot instead of diverging; and promoting
	// it after the primary dies mid-request must lose nothing acknowledged.
	"failover": {
		what:   "standby promotion",
		banner: "failover run: SIGKILL the primary with op %[1]d/%[2]d in flight, promote the standby",
		steps: []step{
			{do: start, role: primary, flags: smallSegments},
			{do: start, role: standby, peer: primary},
			{do: traffic, role: primary, upTo: toHalf},
			{do: caughtUp, role: standby},
			{do: kill, role: standby},
			{do: gapCursor, role: primary, peer: standby},
			{do: start, role: standby},
			{do: caughtUp, role: standby},
			{do: reseeded, role: standby},
			{do: traffic, role: primary, upTo: toKill},
			{do: caughtUp, role: standby},
			{do: kill, role: primary, inFlight: true},
			{do: promote, role: standby},
			{do: resume, role: standby},
			{do: fingerprint, role: standby},
		},
	},
	// Retention leases must pin the stream's cursor so that pruning never
	// gaps a connected follower. The budget must stay above one tenant
	// snapshot, which carries the cycle's alert list, so the alert prefix is
	// short and the disk pressure comes from benign filler: a few bytes an op.
	"retention": {
		what:        "retention under a live follower",
		banner:      "retention run: %[2]d ops against a %[3]d-byte disk budget with a live follower",
		maxRequests: 12,
		filler:      retentionFillerOps,
		steps: []step{
			{do: start, role: primary, flags: slices.Concat(smallSegments, []string{
				"-disk-budget", fmt.Sprint(retentionDiskBudget), "-compact-interval", "100ms"})},
			{do: start, role: standby, peer: primary},
			{do: caughtUp, role: standby},
			{do: compaction, role: primary, upTo: toEnd},
			{do: caughtUp, role: standby},
			{do: notReseeded, role: standby},
			{do: kill, role: primary},
			{do: promote, role: standby},
			{do: resume, role: standby},
			{do: fingerprint, role: standby},
		},
	},
}

func drillRun(cfg config) error {
	if cfg.mode == "" {
		cfg.mode = "crash"
	}
	m, ok := modes[cfg.mode]
	if !ok {
		return fmt.Errorf("unknown -mode %q (want crash, failover, or retention)", cfg.mode)
	}
	log.Printf("drill seed %d (mode %s)", cfg.seed, cfg.mode)

	if m.maxRequests > 0 && cfg.requests > m.maxRequests {
		log.Printf("%s mode: capping -requests %d to %d (snapshot must fit the disk budget)", cfg.mode, cfg.requests, m.maxRequests)
		cfg.requests = m.maxRequests
	}
	script := buildScript(cfg.seed, cfg.requests, cfg.employees, cfg.patients)
	for i := 0; i < m.filler; i++ {
		script = append(script, op{employee: 0, patient: 0})
	}
	rng := rand.New(rand.NewSource(cfg.seed ^ 0x9d1))
	killAt := 1 + rng.Intn(len(script)-1)
	jitter := time.Duration(rng.Intn(8)) * time.Millisecond

	log.Printf("golden run: %d ops, uninterrupted", len(script))
	golden, err := newScenario(cfg, script, killAt, jitter).run(goldenSteps)
	if err != nil {
		return fmt.Errorf("golden run: %w", err)
	}
	log.Printf(m.banner, killAt, len(script), retentionDiskBudget)
	survived, err := newScenario(cfg, script, killAt, jitter).run(m.steps)
	if err != nil {
		return fmt.Errorf("%s run: %w", cfg.mode, err)
	}

	for _, c := range []struct{ name, file, want, got string }{
		{"/v1/status", "status", golden.status, survived.status},
		{"/v1/cycle/summary", "summary", golden.summary, survived.summary},
		{"/v1/cycle/close", "close", golden.close_, survived.close_},
	} {
		if c.want != c.got {
			dumpDivergence(cfg.artifacts, cfg.mode, c.file, c.want, c.got)
			return fmt.Errorf("%s diverged after %s:\n golden: %s\n actual: %s", c.name, m.what, c.want, c.got)
		}
		log.Printf("%s: surviving run matches golden run byte for byte", c.name)
	}
	fmt.Printf("sagdrill: PASS — %s is bit-identical to the uninterrupted run\n", m.what)
	return nil
}

// dumpDivergence writes a diverging response pair under the artifacts dir so
// CI can upload it; a no-op when no directory was requested.
func dumpDivergence(dir, mode, name, golden, actual string) {
	if dir == "" {
		return
	}
	err := os.MkdirAll(dir, 0o755)
	for suffix, body := range map[string]string{"golden": golden, "actual": actual} {
		if err == nil {
			err = os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-%s-%s.json", mode, name, suffix)), []byte(body), 0o644)
		}
	}
	if err != nil {
		log.Printf("artifacts: %v", err)
	}
}

// buildScript generates the deterministic op sequence: planted-pair accesses
// across three alert kinds, ~10% benign accesses, and one mid-script quit of
// the first planted employee (so later accesses by it take the flagged
// fast path — a different journal record kind).
func buildScript(seed int64, n, employees, patients int) []op {
	// Planted pairs per sagserver's generator: kind k's first pair is
	// (employees + 120·k, patients + 120·k).
	const stride = 120
	rng := rand.New(rand.NewSource(seed ^ 0x5c7))
	var script []op
	for i := 0; i < n; i++ {
		if i == n/2 {
			script = append(script, op{quit: true, employee: employees})
		}
		if rng.Float64() < 0.1 {
			script = append(script, op{employee: 0, patient: 0})
			continue
		}
		k := rng.Intn(3)
		script = append(script, op{employee: employees + stride*k, patient: patients + stride*k})
	}
	return script
}

// server is one sagserver role of a scenario. Its dir, port and flags
// outlive the process, so a restart comes back as the same node.
type server struct {
	dir      string        // "" until the role's first start
	args     []string      // flags after the common set
	peer     *server       // the primary it follows, if it was started as a standby
	base     string        // http://127.0.0.1:<its port>
	cmd      *exec.Cmd     // its latest process, nil before the first start
	exited   chan struct{} // closed once cmd has been reaped
	lo, hi   int           // remembered WAL segments: oldest at caughtUp (-1 until then), highest at kill
	promoted bool
}

// capture is the durable-state fingerprint of a run.
type capture struct{ status, summary, close_ string }

// scenario is the state a step list runs against.
type scenario struct {
	cfg     config
	client  *http.Client
	script  []op
	stops   [3]int        // the script index each pos stands for
	jitter  time.Duration // how long an in-flight op runs before the SIGKILL
	servers map[string]*server
	// next is the script cursor: ops [0, next) were acknowledged. After an
	// in-flight kill inFlight is 1: op next may have landed; resume finds out.
	next     int
	inFlight int
	got      capture
}

func newScenario(cfg config, script []op, killAt int, jitter time.Duration) *scenario {
	return &scenario{
		cfg:     cfg,
		client:  &http.Client{Timeout: 30 * time.Second},
		script:  script,
		stops:   [3]int{toHalf: max(1, killAt/2), toKill: killAt, toEnd: len(script)},
		jitter:  jitter,
		servers: map[string]*server{},
	}
}

// run executes the steps in order and returns what fingerprint captured;
// every server is killed and every data dir removed on the way out.
func (s *scenario) run(steps []step) (capture, error) {
	defer func() {
		for _, p := range s.servers {
			p.stop()
			os.RemoveAll(p.dir)
		}
	}()
	for i, st := range steps {
		p := s.servers[st.role]
		if p == nil {
			p = &server{}
			s.servers[st.role] = p
		}
		if err := st.do(s, p, st); err != nil {
			return capture{}, fmt.Errorf("step %d of %d (%s): %w", i+1, len(steps), st.role, err)
		}
	}
	return s.got, nil
}

// start boots a role (first on a fresh data dir and a free port with the
// step's flags, afterwards as the same node) and waits until it serves or its
// process exits: a bad flag, or freePort's close-then-bind race lost the port.
func start(s *scenario, p *server, st step) (err error) {
	if p.dir == "" {
		if p.dir, err = os.MkdirTemp("", "sagdrill-"+st.role+"-*"); err != nil {
			return err
		}
		var port int
		if port, err = freePort(); err != nil {
			return err
		}
		p.base = fmt.Sprintf("http://127.0.0.1:%d", port)
		p.args = st.flags
		if st.peer != "" {
			p.peer = s.servers[st.peer]
			p.args = slices.Concat(p.args, []string{"-follow", p.peer.base})
		}
	}
	p.lo = -1
	args := append([]string{
		"-addr", strings.TrimPrefix(p.base, "http://"), "-data-dir", p.dir,
		"-fsync", "always", "-fixed-clock", "9h", "-seed", "2017", "-history", fmt.Sprint(s.cfg.history),
		"-employees", fmt.Sprint(s.cfg.employees), "-patients", fmt.Sprint(s.cfg.patients),
	}, p.args...)
	cmd := exec.Command(s.cfg.serverBin, args...)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err = cmd.Start(); err != nil {
		return err
	}
	p.cmd, p.exited = cmd, make(chan struct{})
	go func(exited chan struct{}) {
		_ = cmd.Wait()
		close(exited)
	}(p.exited)
	if err = s.await(p, "/v1/healthz"); err != nil {
		p.stop()
	}
	return err
}

// await polls path on p until it answers 200, p's process exits, or
// -start-wait runs out.
func (s *scenario) await(p *server, path string) error {
	deadline := time.Now().Add(s.cfg.startWait)
	for {
		_, err := s.get(p.base, path)
		if err == nil {
			return nil
		}
		select {
		case <-p.exited:
			return fmt.Errorf("server at %s exited (%v) before %s answered 200", p.base, p.cmd.ProcessState, path)
		case <-time.After(25 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server at %s: %s not 200 within %v (last: %v)", p.base, path, s.cfg.startWait, err)
		}
	}
}

// stop SIGKILLs p's process, if it has one, and waits for it to be reaped.
func (p *server) stop() {
	if p.cmd != nil {
		_ = p.cmd.Process.Kill()
		<-p.exited
	}
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// kill SIGKILLs p. With inFlight it first fires the next script op and kills
// the server while it is (maybe) mid-request: the op lands iff its journal
// record hit disk before the kill.
func kill(s *scenario, p *server, st step) (err error) {
	done := make(chan struct{})
	if st.inFlight {
		go func() {
			defer close(done)
			_ = s.apply(p.base, s.script[s.next])
		}()
		time.Sleep(s.jitter)
		s.inFlight = 1
	} else {
		close(done)
	}
	p.stop()
	<-done
	_, p.hi, err = segRange(p.dir)
	return err
}

func traffic(s *scenario, p *server, st step) error { return s.drive(p, s.stops[st.upTo], nil) }

// drive applies script ops to p, each one acknowledged, until the cursor
// reaches upTo; after every 100th op it calls watch, if there is one.
func (s *scenario) drive(p *server, upTo int, watch func() error) error {
	for ; s.next < upTo; s.next++ {
		if err := s.apply(p.base, s.script[s.next]); err != nil {
			return fmt.Errorf("op %d: %w", s.next, err)
		}
		if watch != nil && s.next%100 == 99 {
			if err := watch(); err != nil {
				return err
			}
		}
	}
	return nil
}

// compaction drives traffic while p's compactor churns underneath, counting
// a round each time p's oldest segment advances. 4× the budget allows the
// transient of a fresh snapshot landing before its round's prune; 2× is the
// steady state the budget promises once the compactor has settled.
func compaction(s *scenario, p *server, st step) error {
	rounds := 0
	lastLo, _, err := segRange(p.dir)
	if err != nil {
		return err
	}
	sample := func() error {
		lo, _, err := segRange(p.dir)
		if lo > lastLo {
			rounds++
			lastLo = lo
		}
		return err
	}
	err = s.drive(p, s.stops[st.upTo], func() error {
		if got := journalBytes(p.dir); got > 4*retentionDiskBudget {
			return fmt.Errorf("journal grew to %d bytes against a %d-byte budget: compaction not keeping up", got, retentionDiskBudget)
		}
		return sample()
	})
	if err != nil {
		return err
	}
	time.Sleep(time.Second)
	_ = sample()
	if rounds < 3 {
		return fmt.Errorf("only %d compaction rounds ran; the drill requires at least 3 (oldest segment now %d)", rounds, lastLo)
	}
	steady := journalBytes(p.dir)
	if steady > 2*retentionDiskBudget {
		return fmt.Errorf("steady-state journal holds %d bytes, want <= 2x budget (%d)", steady, 2*retentionDiskBudget)
	}
	log.Printf("compaction: %d rounds, steady-state journal %d bytes (budget %d)", rounds, steady, retentionDiskBudget)
	return nil
}

// caughtUp waits until p's /v1/readyz reports ready, which on a standby
// means replication lag is exactly zero records.
func caughtUp(s *scenario, p *server, st step) (err error) {
	if err = s.await(p, "/v1/readyz"); err != nil || p.lo != -1 {
		return err
	}
	if p.lo, _, err = segRange(p.dir); err != nil && p.peer != nil {
		// Nothing mirrored yet: the mirror's first segment will be the one
		// the primary is writing now.
		_, p.lo, err = segRange(p.peer.dir)
	}
	return err
}

// gapCursor snapshots (and so prunes) p until its oldest segment is past all
// its dead follower holds: the follower's cursor then points at deleted ones.
func gapCursor(s *scenario, p *server, st step) error {
	follower := s.servers[st.peer]
	for i := 0; i < 100; i++ {
		if _, err := s.post(p.base, "/v1/admin/snapshot", "{}"); err != nil {
			return fmt.Errorf("snapshot %d: %w", i, err)
		}
		lo, _, err := segRange(p.dir)
		if err != nil {
			return err
		}
		if lo > follower.hi {
			return nil
		}
	}
	return fmt.Errorf("never pruned past the %s's cursor (its max segment is %d)", st.peer, follower.hi)
}

// reseeded: the only legal recovery from a gapped cursor is to wipe the mirror
// and re-seed from the primary's snapshot, which fresh segment numbers prove.
func reseeded(s *scenario, p *server, st step) error {
	lo, _, err := segRange(p.dir)
	if err != nil {
		return err
	}
	if lo <= p.hi {
		return fmt.Errorf("%s min segment %d did not advance past its pre-gap max %d: re-seed did not happen", st.role, lo, p.hi)
	}
	log.Printf("%s re-seeded from snapshot (segments now start at %d, were ≤ %d)", st.role, lo, p.hi)
	return nil
}

// notReseeded: a re-seed wipes the mirror and restarts it at the primary's
// snapshot segment, so the oldest segment moving is disqualifying.
func notReseeded(s *scenario, p *server, st step) error {
	lo, _, err := segRange(p.dir)
	if err != nil {
		return err
	}
	if lo != p.lo {
		return fmt.Errorf("%s's oldest segment moved %d -> %d: the stream was re-seeded under compaction (lease failed)", st.role, p.lo, lo)
	}
	log.Printf("%s at lag 0 with zero re-seeds (mirror still starts at segment %d)", st.role, lo)
	return nil
}

func promote(s *scenario, p *server, st step) error {
	raw, err := s.post(p.base, "/v1/admin/promote", "")
	if err != nil {
		return err
	}
	p.promoted = true
	log.Printf("promoted %s: %s", st.role, strings.TrimSpace(raw))
	return nil
}

// resume asks the survivor how far the script got and finishes it from
// there. Every acknowledged op is durable (FsyncAlways; for a promoted
// standby, lag 0 before the kill): fewer applied ops is data loss, more than
// the one in-flight op on top is corruption. That op may go either way.
func resume(s *scenario, p *server, st step) error {
	raw, err := s.get(p.base, "/v1/status")
	if err != nil {
		return err
	}
	var status struct{ Accesses, Quits int }
	if err := json.Unmarshal([]byte(raw), &status); err != nil {
		return err
	}
	applied := status.Accesses + status.Quits
	if applied < s.next || applied > s.next+s.inFlight {
		return fmt.Errorf("%s holds %d applied ops; %d were acknowledged before the kill and %d in flight (durability violated)", st.role, applied, s.next, s.inFlight)
	}
	if s.inFlight == 1 {
		found, then := "recovered", "resuming"
		if p.promoted {
			found, then = "promoted standby holds", "resuming against it"
		}
		log.Printf("%s %d/%d ops (in-flight op %s); %s", found, applied, len(s.script),
			map[bool]string{true: "survived", false: "lost"}[applied == s.next+1], then)
	}
	s.next, s.inFlight = applied, 0
	return s.drive(p, len(s.script), nil)
}

// fingerprint captures status, summary, and the cycle-close plan.
func fingerprint(s *scenario, p *server, st step) (err error) {
	if s.got.status, err = s.get(p.base, "/v1/status"); err != nil {
		return err
	}
	if s.got.summary, err = s.get(p.base, "/v1/cycle/summary"); err != nil {
		return err
	}
	s.got.close_, err = s.post(p.base, "/v1/cycle/close", "{}")
	return err
}

// apply sends one op and requires acknowledgement.
func (s *scenario) apply(base string, o op) error {
	path, body := "/v1/access", fmt.Sprintf(`{"employee_id":%d,"patient_id":%d}`, o.employee, o.patient)
	if o.quit {
		path, body = "/v1/quit", fmt.Sprintf(`{"employee_id":%d}`, o.employee)
	}
	_, err := s.post(base, path, body)
	return err
}

func (s *scenario) post(base, path, body string) (string, error) {
	resp, err := s.client.Post(base+path, "application/json", strings.NewReader(body))
	return readOK(path, resp, err)
}

func (s *scenario) get(base, path string) (string, error) {
	resp, err := s.client.Get(base + path)
	return readOK(path, resp, err)
}

// readOK returns a 200 response's body; anything else is an error.
func readOK(path string, resp *http.Response, err error) (string, error) {
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(raw))
	}
	return string(raw), nil
}

// journalBytes sums the default tenant's journal directory under a data dir.
func journalBytes(dataDir string) (total int64) {
	entries, _ := os.ReadDir(filepath.Join(dataDir, "tenants", "t-default"))
	for _, e := range entries {
		if info, err := e.Info(); err == nil && !info.IsDir() {
			total += info.Size()
		}
	}
	return total
}

// segRange reports the lowest and highest WAL segment numbers present in a
// data dir's default-tenant journal directory. Segment names are zero-padded
// to one width, so Glob's lexical order is numeric order.
func segRange(dataDir string) (lo, hi int, err error) {
	dir := filepath.Join(dataDir, "tenants", "t-default")
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.sagw"))
	if len(segs) == 0 {
		return 0, 0, fmt.Errorf("no WAL segments under %s", dir)
	}
	if _, err = fmt.Sscanf(filepath.Base(segs[0]), "wal-%d.sagw", &lo); err == nil {
		_, err = fmt.Sscanf(filepath.Base(segs[len(segs)-1]), "wal-%d.sagw", &hi)
	}
	return lo, hi, err
}
