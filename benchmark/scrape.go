package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// promSample is one series of a Prometheus text exposition.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

// promScrape is a parsed exposition.
type promScrape []promSample

// parseProm parses the subset of the text format sagserver's exporter
// writes: comment lines, `name value` and `name{k="v",...} value`. Label
// values are escaped with backslashes by the exporter and unescaped here.
func parseProm(r io.Reader) (promScrape, error) {
	var out promScrape
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		s := promSample{}
		rest := line
		if i := strings.IndexByte(line, '{'); i >= 0 {
			s.name = line[:i]
			labels, tail, err := parseLabels(line[i+1:])
			if err != nil {
				return nil, fmt.Errorf("metrics line %q: %v", line, err)
			}
			s.labels = labels
			rest = tail
		} else {
			i := strings.IndexByte(line, ' ')
			if i < 0 {
				return nil, fmt.Errorf("metrics line %q: no value", line)
			}
			s.name = line[:i]
			rest = line[i:]
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %v", line, err)
		}
		s.value = v
		out = append(out, s)
	}
	return out, sc.Err()
}

// parseLabels reads `k="v",k2="v2"} tail` and returns the labels and tail.
func parseLabels(s string) (map[string]string, string, error) {
	labels := make(map[string]string)
	for {
		if s == "" {
			return nil, "", fmt.Errorf("unterminated label set")
		}
		if s[0] == '}' {
			return labels, s[1:], nil
		}
		eq := strings.IndexByte(s, '=')
		if eq < 0 || eq+1 >= len(s) || s[eq+1] != '"' {
			return nil, "", fmt.Errorf("malformed label")
		}
		key := s[:eq]
		var val strings.Builder
		i := eq + 2
		for ; i < len(s) && s[i] != '"'; i++ {
			if s[i] == '\\' && i+1 < len(s) {
				i++
				if s[i] == 'n' {
					val.WriteByte('\n')
					continue
				}
			}
			val.WriteByte(s[i])
		}
		if i >= len(s) {
			return nil, "", fmt.Errorf("unterminated label value")
		}
		labels[key] = val.String()
		s = s[i+1:]
		s = strings.TrimPrefix(s, ",")
	}
}

// sum adds every series of name whose labels include all of match
// ("k=v" pairs). Summing across the tenant label is how per-tenant series
// become box-wide numbers.
func (p promScrape) sum(name string, match ...string) float64 {
	return p.sumIf(name, func(l map[string]string) bool {
		for _, m := range match {
			k, v, _ := strings.Cut(m, "=")
			if l[k] != v {
				return false
			}
		}
		return true
	})
}

func (p promScrape) sumIf(name string, keep func(map[string]string) bool) float64 {
	total := 0.0
	for _, s := range p {
		if s.name == name && keep(s.labels) {
			total += s.value
		}
	}
	return total
}

// memStats is the part of runtime.MemStats the heap profile's debug=1 footer
// carries and the ledger uses.
type memStats struct {
	mallocs    float64
	totalAlloc float64
	numGC      float64
	pauseNs    []float64 // the runtime's ring of the most recent pauses
}

// parseMemStats reads the "# Name = value" footer of
// /debug/pprof/heap?debug=1.
func parseMemStats(r io.Reader) (memStats, error) {
	var m memStats
	seen := 0
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "# ") {
			continue
		}
		key, val, ok := strings.Cut(line[2:], " = ")
		if !ok {
			continue
		}
		switch key {
		case "Mallocs", "TotalAlloc", "NumGC":
			v, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return m, fmt.Errorf("memstats %s: %v", key, err)
			}
			seen++
			switch key {
			case "Mallocs":
				m.mallocs = v
			case "TotalAlloc":
				m.totalAlloc = v
			case "NumGC":
				m.numGC = v
			}
		case "PauseNs":
			for _, f := range strings.Fields(strings.Trim(val, "[]")) {
				v, err := strconv.ParseFloat(f, 64)
				if err != nil {
					return m, fmt.Errorf("memstats PauseNs: %v", err)
				}
				m.pauseNs = append(m.pauseNs, v)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return m, err
	}
	if seen < 3 {
		return m, fmt.Errorf("memstats footer incomplete (%d of 3 fields)", seen)
	}
	return m, nil
}

// gcPauseMs estimates the total GC pause between two snapshots. The runtime
// keeps only the last 256 pauses, so when more cycles than that ran the mean
// of the ring stands in for the ones that fell out.
func gcPauseMs(before, after memStats) float64 {
	cycles := int(after.numGC - before.numGC)
	if cycles <= 0 || len(after.pauseNs) == 0 {
		return 0
	}
	ring := len(after.pauseNs)
	total := 0.0
	n := min(cycles, ring)
	for i := 0; i < n; i++ {
		// The runtime stores cycle k's pause at index (k+255)%256.
		idx := (int(after.numGC) - i + ring - 1) % ring
		total += after.pauseNs[idx]
	}
	if cycles > ring {
		total *= float64(cycles) / float64(ring)
	}
	return total / 1e6
}

func scrapeMetrics(hc *http.Client, base string) (promScrape, error) {
	resp, err := hc.Get(base + "/v1/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/metrics: status %d", resp.StatusCode)
	}
	return parseProm(resp.Body)
}

func scrapeMemStats(hc *http.Client, debugBase string) (memStats, error) {
	resp, err := hc.Get(debugBase + "/debug/pprof/heap?debug=1")
	if err != nil {
		return memStats{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return memStats{}, fmt.Errorf("GET /debug/pprof/heap: status %d", resp.StatusCode)
	}
	return parseMemStats(resp.Body)
}

// procCPUSeconds returns the CPU time a process has used. It prefers the
// scheduler's per-thread run time (/proc/<pid>/task/*/schedstat, in
// nanoseconds) because a one-second slice of a half-idle server is only a
// few dozen of /proc/<pid>/stat's 10 ms ticks; where the kernel keeps no
// schedstat it falls back to those ticks. The sum covers live threads only,
// which for a Go server — it parks threads, it does not end them — is all.
func procCPUSeconds(pid int) (float64, error) {
	dir := filepath.Join("/proc", strconv.Itoa(pid))
	tasks, _ := filepath.Glob(filepath.Join(dir, "task", "*", "schedstat"))
	var ns float64
	ok := len(tasks) > 0
	for _, path := range tasks {
		raw, err := os.ReadFile(path)
		if err != nil {
			continue // the thread ended between the listing and the read
		}
		f := strings.Fields(string(raw))
		if len(f) == 0 {
			ok = false
			break
		}
		v, err := strconv.ParseFloat(f[0], 64)
		if err != nil {
			ok = false
			break
		}
		ns += v
	}
	if ok && ns > 0 {
		return ns / 1e9, nil
	}
	raw, err := os.ReadFile(filepath.Join(dir, "stat"))
	if err != nil {
		return 0, err
	}
	return parseProcStatCPU(string(raw))
}

func parseProcStatCPU(stat string) (float64, error) {
	// The command name (field 2) may contain spaces; fields resume after
	// its closing parenthesis.
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc stat")
	}
	f := strings.Fields(stat[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat")
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc stat times")
	}
	const ticksPerSecond = 100 // USER_HZ on every Linux ABI Go supports
	return (utime + stime) / ticksPerSecond, nil
}

// procPeakRSSMB returns VmHWM, the process's peak resident set, in MB.
func procPeakRSSMB(pid int) (float64, error) {
	raw, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(pid), "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// journalFootprint walks a data dir and reports the journal bytes and
// segment files on disk, plus how many segments pruning has removed: segment
// numbers are dense from zero, so a tenant's lowest surviving number is the
// count of its deleted predecessors.
func journalFootprint(dataDir string) (bytes int64, segments, pruned int, prunedTenants int) {
	tenants, _ := filepath.Glob(filepath.Join(dataDir, "tenants", "t-*"))
	for _, dir := range tenants {
		segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.sagw"))
		lowest := -1
		for _, seg := range segs {
			if info, err := os.Stat(seg); err == nil {
				bytes += info.Size()
				segments++
			}
			name := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(seg), "wal-"), ".sagw")
			if n, err := strconv.Atoi(name); err == nil && (lowest < 0 || n < lowest) {
				lowest = n
			}
		}
		if lowest > 0 {
			pruned += lowest
			prunedTenants++
		}
	}
	return bytes, segments, pruned, prunedTenants
}
