package server

import (
	"bytes"
	"net/http"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/auditgames/sag/internal/admit"
)

// standbyOnlyFamilies are the README-listed families a primary never
// exports: a follower's replication clients register them.
var standbyOnlyFamilies = []string{
	"sag_replica_lag_records",
	"sag_replica_lag_seconds",
	"sag_replica_reconnects_total",
	"sag_replica_reseeds_total",
}

// readmeMetricFamilies returns the sag_* families named in the first column
// of README's metric table (the rows under "| metric | kind | meaning |").
func readmeMetricFamilies(t *testing.T) map[string]bool {
	t.Helper()
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(readme), "| metric | kind | meaning |\n")
	if !ok {
		t.Fatal("README has no metric table")
	}
	name := regexp.MustCompile("`(sag_[a-z0-9_]+)")
	families := map[string]bool{}
	for _, row := range strings.Split(table, "\n") {
		if !strings.HasPrefix(row, "|") {
			break
		}
		cells := strings.Split(strings.ReplaceAll(row, `\|`, "/"), "|")
		for _, m := range name.FindAllStringSubmatch(cells[1], -1) {
			families[m[1]] = true
		}
	}
	return families
}

// TestReadmeMetricTableMatchesExport: README's metric table is the list of
// families a primary exports — no more, no fewer. A primary with a data dir,
// admission and a disk budget serves an alert, a benign access, a quit, a
// close and a new cycle; every family its scrape then declares must have a
// row, and every row must name a family it exports or a standby-only one.
func TestReadmeMetricTableMatchesExport(t *testing.T) {
	srv, ts, bgE, bgP := replicaFixture(t, t.TempDir(), func(cfg *Config) {
		cfg.Admission = admit.Config{MaxInflight: 4, QueueDepth: 4}
		cfg.DiskBudgetBytes = 1 << 30
		cfg.CompactInterval = time.Hour
	})
	defer srv.Close()
	for _, req := range []struct {
		path string
		body any
	}{
		{"/v1/access", AccessRequest{EmployeeID: bgE, PatientID: bgP}},
		{"/v1/access", AccessRequest{EmployeeID: 0, PatientID: 0}},
		{"/v1/quit", QuitRequest{EmployeeID: bgE}},
		{"/v1/cycle/close", struct{}{}},
		{"/v1/cycle/new", NewCycleRequest{Budget: 40}},
	} {
		if code := post(t, ts, req.path, req.body, nil); code != http.StatusOK {
			t.Fatalf("POST %s: status %d", req.path, code)
		}
	}
	var buf bytes.Buffer
	if err := srv.Metrics().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	exported := map[string]bool{}
	for _, line := range strings.Split(buf.String(), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[1] == "TYPE" {
			exported[f[2]] = true
		}
	}
	documented := readmeMetricFamilies(t)
	standby := map[string]bool{}
	for _, f := range standbyOnlyFamilies {
		standby[f] = true
	}
	var undocumented, stale []string
	for f := range exported {
		if !documented[f] {
			undocumented = append(undocumented, f)
		}
	}
	for f := range documented {
		if !exported[f] && !standby[f] {
			stale = append(stale, f)
		}
	}
	sort.Strings(undocumented)
	sort.Strings(stale)
	if len(undocumented) > 0 {
		t.Errorf("exported but missing from README's metric table: %v", undocumented)
	}
	if len(stale) > 0 {
		t.Errorf("README's metric table names families a primary does not export (if standby-only, list them in standbyOnlyFamilies): %v", stale)
	}
}
