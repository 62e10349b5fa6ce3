package main

import (
	"math"
	"strings"
	"testing"
)

const promText = `# HELP sag_http_requests_total HTTP requests by route and status code.
# TYPE sag_http_requests_total counter
sag_http_requests_total{code="200",route="/v1/access"} 41
sag_http_requests_total{code="507",route="/v1/access"} 2
sag_http_requests_total{code="200",route="/v1/quit"} 1
# TYPE sag_wal_fsync_seconds histogram
sag_wal_fsync_seconds_bucket{tenant="t00",le="0.001"} 3
sag_wal_fsync_seconds_bucket{tenant="t00",le="+Inf"} 4
sag_wal_fsync_seconds_sum{tenant="t00"} 0.0018234369999999998
sag_wal_fsync_seconds_count{tenant="t00"} 4
sag_wal_fsync_seconds_sum{tenant="t01"} 1e-03
sag_wal_fsync_seconds_count{tenant="t01"} 2
sag_engine_stage_seconds_sum{stage="sse",tenant="t00"} 0.000275633
sag_http_panics_total 0
sag_odd{msg="a \"quoted\\\" value, with a comma",k="v"} 7
sag_retain_lease_floor{tenant="t00"} -1
`

func TestParseProm(t *testing.T) {
	p, err := parseProm(strings.NewReader(promText))
	if err != nil {
		t.Fatal(err)
	}
	if len(p) != 13 {
		t.Fatalf("parsed %d series, want 13", len(p))
	}
	for _, c := range []struct {
		name  string
		match []string
		want  float64
	}{
		{"sag_http_requests_total", nil, 44},
		{"sag_http_requests_total", []string{"code=507"}, 2},
		{"sag_http_requests_total", []string{"code=200", "route=/v1/access"}, 41},
		{"sag_wal_fsync_seconds_count", nil, 6},
		{"sag_wal_fsync_seconds_sum", []string{"tenant=t01"}, 0.001},
		{"sag_engine_stage_seconds_sum", []string{"stage=sse"}, 0.000275633},
		{"sag_http_panics_total", nil, 0},
		{"sag_retain_lease_floor", nil, -1},
		{"sag_missing", nil, 0},
	} {
		if got := p.sum(c.name, c.match...); math.Abs(got-c.want) > 1e-15 {
			t.Errorf("sum(%s, %v) = %v, want %v", c.name, c.match, got, c.want)
		}
	}
	// _bucket series must not leak into their family's _sum/_count.
	if got := p.sum("sag_wal_fsync_seconds_bucket"); got != 7 {
		t.Errorf("bucket sum = %v, want 7", got)
	}
	var odd promSample
	for _, s := range p {
		if s.name == "sag_odd" {
			odd = s
		}
	}
	if want := `a "quoted\" value, with a comma`; odd.labels["msg"] != want || odd.labels["k"] != "v" || odd.value != 7 {
		t.Errorf("escaped label parsed as %q (k=%q, value %v), want %q", odd.labels["msg"], odd.labels["k"], odd.value, want)
	}
	non2xx := p.sumIf("sag_http_requests_total", func(l map[string]string) bool { return l["code"][0] != '2' })
	if non2xx != 2 {
		t.Errorf("non-2xx = %v, want 2", non2xx)
	}
}

func TestParsePromRejectsGarbage(t *testing.T) {
	for _, bad := range []string{"name_only\n", "m{k=\"v\" 1\n", "m{k=v} 1\n", "m 1 2 three\n"} {
		if _, err := parseProm(strings.NewReader(bad)); err == nil {
			t.Errorf("parseProm(%q) succeeded", bad)
		}
	}
}

const heapFooter = `heap profile: 1: 2 [3: 4] @ heap/1048576
1: 2048 [1: 2048] @ 0x1 0x2
#	0x1	main.f+0x1	/x.go:1

# runtime.MemStats
# Alloc = 2270360
# TotalAlloc = 11418664
# Sys = 12932360
# Mallocs = 19997
# Frees = 7662
# PauseNs = [71111 210995 43924 0 0]
# PauseEnd = [1 2 3 0 0]
# NumGC = 3
# NumForcedGC = 0
# GCCPUFraction = 0.0417994079165178
# MaxRSS = 16629760
`

func TestParseMemStats(t *testing.T) {
	m, err := parseMemStats(strings.NewReader(heapFooter))
	if err != nil {
		t.Fatal(err)
	}
	if m.mallocs != 19997 || m.totalAlloc != 11418664 || m.numGC != 3 {
		t.Errorf("memstats = %+v", m)
	}
	if len(m.pauseNs) != 5 || m.pauseNs[1] != 210995 {
		t.Errorf("PauseNs = %v", m.pauseNs)
	}
	if _, err := parseMemStats(strings.NewReader("# Mallocs = 1\n")); err == nil {
		t.Error("an incomplete footer parsed without error")
	}
}

func TestGCPauseMs(t *testing.T) {
	ring := make([]float64, 256)
	// Cycle k's pause sits at (k+255)%256; give cycle k a pause of k ms.
	for k := 1; k <= 10; k++ {
		ring[(k+255)%256] = float64(k) * 1e6
	}
	before := memStats{numGC: 7}
	after := memStats{numGC: 10, pauseNs: ring}
	if got := gcPauseMs(before, after); got != 8+9+10 {
		t.Errorf("pause over cycles 8..10 = %v ms, want 27", got)
	}
	if got := gcPauseMs(after, after); got != 0 {
		t.Errorf("no cycles, pause = %v", got)
	}
	// More cycles than the ring holds: the ring's mean stands in.
	for i := range ring {
		ring[i] = 2e6
	}
	if got := gcPauseMs(memStats{numGC: 0}, memStats{numGC: 512, pauseNs: ring}); got != 1024 {
		t.Errorf("pause over 512 cycles of 2 ms = %v ms, want 1024", got)
	}
}

func TestParseProcStatCPU(t *testing.T) {
	// A command name with spaces and a parenthesis, as /proc allows.
	stat := "4242 (sag server) x) S 1 4242 4242 0 -1 4194560 1000 0 0 0 150 50 0 0 20 0 5 0 100 1000000 500 18446744073709551615"
	got, err := parseProcStatCPU(stat)
	if err != nil {
		t.Fatal(err)
	}
	if got != 2.0 {
		t.Errorf("cpu seconds = %v, want 2.0 (150+50 ticks)", got)
	}
	if _, err := parseProcStatCPU("1 (x) S 1"); err == nil {
		t.Error("a short stat line parsed without error")
	}
}
