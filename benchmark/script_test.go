package main

import (
	"math"
	"testing"
)

func TestScriptIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		a, b := scriptHash(w, 1, 600), scriptHash(w, 1, 600)
		if a != b {
			t.Errorf("%s: the same seed gave two scripts (%s, %s)", w.Name, a, b)
		}
		if c := scriptHash(w, 2, 600); c == a {
			t.Errorf("%s: seeds 1 and 2 gave the same script", w.Name)
		}
	}
	if scriptHash(findWorkload("alerts_mem"), 1, 64) != scriptHash(findWorkload("alerts_durable"), 1, 64) {
		t.Error("alerts_durable must replay alerts_mem's script")
	}
	if scriptHash(findWorkload("alerts_mem"), 1, 64) == scriptHash(findWorkload("lifecycle_recover"), 1, 64) {
		t.Error("alerts_mem and lifecycle_recover share a request stream")
	}
}

func TestTenantsGetDifferentStreams(t *testing.T) {
	w := findWorkload("alerts_mem")
	a, b := newTenantScript(w, 1, 0), newTenantScript(w, 1, 1)
	same := true
	for i := 0; i < 32; i++ {
		if a.next() != b.next() {
			same = false
		}
	}
	if same {
		t.Error("tenants 0 and 1 drew identical requests")
	}
}

func TestAlertStreamCyclesKindsAndRolls(t *testing.T) {
	w := findWorkload("lifecycle_recover")
	s := newTenantScript(w, 7, 3)
	start := s.kind
	for i := 0; i < w.CycleAlerts; i++ {
		o := s.next()
		k := (start + i) % alertKinds
		if o.kind != opAccess || !o.wantAlert || o.wantType != k+1 {
			t.Fatalf("request %d = %+v, want an alert of type %d", i, o, k+1)
		}
		if j := o.employee - worldEmployees - pairsPerKind*k; j < 0 || j >= pairsPerKind || o.patient != worldPatients+pairsPerKind*k+j {
			t.Fatalf("request %d = %+v is not planted pair (400+120k+i, 2000+120k+i)", i, o)
		}
	}
	if !s.midRoll() {
		t.Fatal("no roll after a full cycle")
	}
	var got []opKind
	for s.midRoll() {
		got = append(got, s.next().kind)
	}
	want := []opKind{opStatus, opClose, opNew, opSnapshot, opSummary}
	if len(got) != len(want) {
		t.Fatalf("roll = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("roll = %v, want %v", got, want)
		}
	}
	if o := s.next(); o.kind != opAccess || !o.wantAlert {
		t.Errorf("after the roll came %+v, want the next cycle's first alert", o)
	}
}

func TestMixShares(t *testing.T) {
	w := findWorkload("emr_mix_durable")
	s := newTenantScript(w, 1, 0)
	const n = 200000
	var count [numOpKinds]int
	alerts := 0
	for i := 0; i < n; i++ {
		o := s.next()
		count[o.kind]++
		if o.kind == opAccess && o.wantAlert {
			alerts++
		}
		if o.kind == opAccess && !o.wantAlert && (o.employee >= worldEmployees || o.patient >= worldPatients) {
			t.Fatalf("benign access %+v reaches into the planted pairs", o)
		}
	}
	share := func(c int) float64 { return float64(c) / n }
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"alert", share(alerts), 0.03},
		{"quit", share(count[opQuit]), 0.005},
		{"benign", share(count[opAccess] - alerts), 0.96},
	} {
		if math.Abs(c.got-c.want) > 0.002 {
			t.Errorf("%s share = %.4f, want %.3f", c.name, c.got, c.want)
		}
	}
	// Status reads are the mix's own 0.5% plus one per roll.
	if got := share(count[opStatus]); math.Abs(got-0.005) > 0.002 {
		t.Errorf("status share = %.4f, want about 0.005", got)
	}
}
