//go:build !race

// The per-tenant multipliers — live heap idle, live heap per committed
// decision, exported series — as regression gates. Not under the race detector: it inflates every
// allocation, and the ceilings here are real bytes.

package server

import (
	"fmt"
	"net/http"
	"runtime"
	"testing"
	"time"

	"github.com/auditgames/sag/internal/admit"
)

// liveHeap is the heap in use after a collection has run to completion (the
// second cycle frees what the first one's finalizers released).
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestTenantHeapFootprint: a resident durable tenant pins what it holds — an
// engine, a journal with a one-page write buffer, its series — and no more.
// 64 tenants (the default cap) under FsyncAlways must cost ≤ 24 KiB of live
// heap each; a 64 KiB buffer per journal (77 KB a tenant, as it was) fails.
func TestTenantHeapFootprint(t *testing.T) {
	const tenants, ceiling = 64, 24 << 10
	srv, _, _, _ := replicaFixture(t, t.TempDir(), func(cfg *Config) { cfg.MaxTenants = tenants + 1 })
	defer srv.Close()
	before := liveHeap()
	for i := 0; i < tenants; i++ {
		if _, _, err := srv.router.GetOrCreate(fmt.Sprintf("h%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
	per := (int64(liveHeap()) - int64(before)) / tenants
	t.Logf("per-tenant live heap: %d bytes/tenant (%d durable tenants, ceiling %d)", per, tenants, ceiling)
	if per > ceiling {
		t.Fatalf("a durable tenant pins %d bytes of live heap, ceiling %d: is a per-tenant buffer back?", per, ceiling)
	}
}

// TestWorkingTenantHeapFootprint: what a tenant pins per committed decision
// is one core.DecisionRecord in its engine's cycle log (88 B, plus the
// slice's growth slack). 8 durable tenants take a 512-alert cycle each over
// HTTP; the live heap they add must be ≤ 160 B per decision. An engine that
// keeps each alert's equilibrium and scheme reads 486.
func TestWorkingTenantHeapFootprint(t *testing.T) {
	const tenants, alerts, ceiling = 8, 512, 160
	srv, ts, bgE, bgP := replicaFixture(t, t.TempDir(), nil)
	defer srv.Close()
	names := make([]string, tenants)
	for i := range names {
		names[i] = fmt.Sprintf("w%d", i)
		if _, _, err := srv.router.GetOrCreate(names[i]); err != nil {
			t.Fatal(err)
		}
	}
	before := liveHeap()
	for _, name := range names {
		for i := 0; i < alerts; i++ {
			var resp AccessResponse
			if code := postTenant(t, ts, name, "/v1/access", AccessRequest{EmployeeID: bgE, PatientID: bgP}, &resp); code != http.StatusOK || !resp.Alert {
				t.Fatalf("tenant %s access %d: status %d, alert %v", name, i, code, resp.Alert)
			}
		}
	}
	http.DefaultClient.CloseIdleConnections()
	per := (int64(liveHeap()) - int64(before)) / (tenants * alerts)
	t.Logf("per-decision live heap: %d bytes/decision (%d durable tenants × %d alerts, ceiling %d)", per, tenants, alerts, ceiling)
	if per > ceiling {
		t.Fatalf("a committed decision pins %d bytes of live heap, ceiling %d: does the engine keep more than its record?", per, ceiling)
	}
}

// TestTenantSeriesBudget: a tenant that has served an alert, a benign access
// and a quit — journaled, admitted, under a disk budget — adds ≤ 15 sample
// lines to a scrape. Histograms are 18 lines each, so a single
// tenant-labelled one breaks the budget; latency belongs to the solver and
// the disk and is exported once, and admission series carry no tenant.
func TestTenantSeriesBudget(t *testing.T) {
	const ceiling = 15
	srv, ts, bgE, bgP := replicaFixture(t, t.TempDir(), func(cfg *Config) {
		cfg.Admission = admit.Config{MaxInflight: 4, QueueDepth: 4}
		cfg.DiskBudgetBytes = 1 << 30
		cfg.CompactInterval = time.Hour
	})
	defer srv.Close()
	drive := func(tenant string) {
		t.Helper()
		for _, req := range []struct {
			path string
			body any
		}{
			{"/v1/access", AccessRequest{EmployeeID: bgE, PatientID: bgP}},
			{"/v1/access", AccessRequest{EmployeeID: 0, PatientID: 0}},
			{"/v1/quit", QuitRequest{EmployeeID: bgE}},
		} {
			if code := postTenant(t, ts, tenant, req.path, req.body, nil); code != http.StatusOK {
				t.Fatalf("tenant %q %s: status %d", tenant, req.path, code)
			}
		}
	}
	drive("") // the default tenant has paid for every tenant-independent series
	before := scrapeLines(t, srv)
	drive("s1")
	per := scrapeLines(t, srv) - before
	t.Logf("per-tenant series: %d series/tenant (ceiling %d)", per, ceiling)
	if per > ceiling {
		t.Fatalf("a tenant adds %d series to a scrape, ceiling %d: is a tenant-labelled histogram back?", per, ceiling)
	}
}
