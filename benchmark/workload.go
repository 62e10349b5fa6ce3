package main

import (
	"runtime"
	"strconv"
)

// workload is one traffic mix against one server configuration.
type workload struct {
	Name string
	Why  string
	// Script names the request stream when it is not the workload's own:
	// alerts_durable replays alerts_mem's requests against another server
	// configuration, so their answers must be byte-identical.
	Script string

	Tenants int
	Mix     mix
	// CycleAlerts is the alerts a tenant takes before it rolls its cycle
	// (status check, close, new with the paper's budget).
	CycleAlerts int
	// SnapshotOnRoll follows each roll with POST /v1/admin/snapshot and
	// GET /v1/cycle/summary.
	SnapshotOnRoll bool

	// Steps, when set, makes the run an open loop at these offered rates;
	// otherwise it is a closed loop.
	Steps []rateStep
	// ReportStep is the open-loop step access_p50_ms/access_p99_ms come from.
	ReportStep int

	Durable bool
	// NoAutoSnapshot pushes the server's every-4096-records background
	// snapshot out of reach, so the journal only appends: whether one of
	// those snapshots falls inside a 15-second window is a coin toss that
	// moves tail latency, peak memory and bytes on disk. Snapshots are
	// lifecycle_recover's business, where the script asks for them.
	NoAutoSnapshot bool
	SegmentBytes   int64 // -wal-segment-bytes (0 = server default)
	DiskBudget     int64 // -disk-budget (0 = off)
	MaxInflight    int   // -max-inflight (0 = admission off)
	QueueDepth     int   // -queue-depth

	// Recover adds the crash, standby and drain phases after the timed run.
	Recover bool
	// MinOps keeps the timed run going past its seconds until every tenant
	// has sent this many requests, so a slow box still completes the cycle
	// the recovery checks need.
	MinOps int
	// OraclePrefix is how many requests per tenant the in-process oracle
	// replays and the response digest covers.
	OraclePrefix int
}

// conns is the generator's connection count: one process, at most nproc
// connections, never more than two.
func conns() int { return min(2, runtime.NumCPU()) }

// The four workloads. Each isolates the layers named in its reason; the
// README's interaction table says what a change to each layer should and
// should not move on each of them.
var workloads = []*workload{
	{
		Name:         "alerts_mem",
		Why:          "closed loop, alert-only, no data dir: game/lp/core and HTTP/JSON do all the work and wal none, so a solver change shows and a WAL change must not",
		Tenants:      8,
		Mix:          mix{alert: 1},
		CycleAlerts:  512,
		OraclePrefix: 520,
	},
	{
		Name:           "alerts_durable",
		Script:         "alerts_mem",
		Why:            "the same script with -data-dir -fsync always: journal append+fsync is over half of p50, so WAL/group-commit changes show and a solver change moves CPU but barely latency",
		Tenants:        8,
		Mix:            mix{alert: 1},
		CycleAlerts:    512,
		Durable:        true,
		NoAutoSnapshot: true,
		OraclePrefix:   520,
	},
	{
		Name:           "emr_mix_durable",
		Why:            "open loop at 500/1000/2000 req/s, 32 tenants, 96% benign 3% alert, fsync always, admission on: decode/resolve/admit/detect/Meta-fsync/encode dominate; a solver change predicts no change",
		Tenants:        32,
		Mix:            mix{benign: 0.96, alert: 0.03, quit: 0.005, status: 0.005},
		CycleAlerts:    512,
		Steps:          []rateStep{{Rate: 500, Share: 0.25}, {Rate: 1000, Share: 0.5}, {Rate: 2000, Share: 0.25}},
		ReportStep:     1,
		Durable:        true,
		NoAutoSnapshot: true,
		MaxInflight:    8,
		QueueDepth:     16,
		OraclePrefix:   128,
	},
	{
		Name:           "lifecycle_recover",
		Why:            "small segments, disk budget, snapshot per 256-alert cycle, then SIGKILL+recover, standby catch-up, SIGTERM drain: snapshotting less or buffering more to cheapen appends pays here",
		Tenants:        16,
		Mix:            mix{alert: 1},
		CycleAlerts:    256,
		SnapshotOnRoll: true,
		Durable:        true,
		SegmentBytes:   32 << 10,
		DiskBudget:     16 << 20,
		Recover:        true,
		MinOps:         264,
		OraclePrefix:   264,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// shrunk returns a copy sized for the smoke test: cycles, segments and the
// replayed prefix divided by div so a fraction of a second still crosses a
// cycle roll, a segment roll and a snapshot.
func (w *workload) shrunk(div int) *workload {
	c := *w
	c.CycleAlerts = max(4, w.CycleAlerts/div)
	if w.SegmentBytes > 0 {
		// A decision record is ~75 bytes: keep a cycle several segments long.
		c.SegmentBytes = max(256, w.SegmentBytes/int64(4*div))
	}
	c.OraclePrefix = c.CycleAlerts + 8
	c.MinOps = c.OraclePrefix
	return &c
}

// serverArgs are the flags beyond the fixed conditions.
func (w *workload) serverArgs(dataDir string) []string {
	var args []string
	if w.Durable {
		args = append(args, "-data-dir", dataDir, "-fsync", "always")
	}
	if w.NoAutoSnapshot {
		args = append(args, "-snapshot-every", "1000000000")
	}
	if w.SegmentBytes > 0 {
		args = append(args, "-wal-segment-bytes", strconv.FormatInt(w.SegmentBytes, 10))
	}
	if w.DiskBudget > 0 {
		args = append(args, "-disk-budget", strconv.FormatInt(w.DiskBudget, 10))
	}
	if w.MaxInflight > 0 {
		args = append(args, "-max-inflight", strconv.Itoa(w.MaxInflight), "-queue-depth", strconv.Itoa(w.QueueDepth))
	}
	return args
}
