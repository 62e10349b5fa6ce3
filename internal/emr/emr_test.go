package emr

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/auditgames/sag/internal/dist"
)

func smallWorld(t *testing.T) *World {
	t.Helper()
	w, err := NewWorld(WorldConfig{Seed: 1, Departments: 5, Employees: 50, Patients: 200})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestNewWorldDefaultsAndSizes(t *testing.T) {
	w, err := NewWorld(WorldConfig{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if w.NumEmployees() != 4000 || w.NumPatients() != 30000 {
		t.Fatalf("default sizes: %d employees, %d patients", w.NumEmployees(), w.NumPatients())
	}
	if len(w.Departments) != 40 {
		t.Fatalf("default departments: %d", len(w.Departments))
	}
	if len(w.Addresses) != 34000 {
		t.Fatalf("addresses: %d, want one per person", len(w.Addresses))
	}
}

func TestNewWorldValidation(t *testing.T) {
	if _, err := NewWorld(WorldConfig{Employees: -1}); err == nil {
		t.Error("negative employees should be rejected")
	}
	if _, err := NewWorld(WorldConfig{CitySideMiles: math.NaN()}); err == nil {
		t.Error("NaN city size should be rejected")
	}
}

func TestWorldDeterministicBySeed(t *testing.T) {
	a, err := NewWorld(WorldConfig{Seed: 5, Employees: 20, Patients: 30, Departments: 3})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewWorld(WorldConfig{Seed: 5, Employees: 20, Patients: 30, Departments: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Employees {
		if a.Employees[i].LastName != b.Employees[i].LastName ||
			a.Employees[i].Department != b.Employees[i].Department {
			t.Fatal("worlds with equal seeds differ")
		}
	}
}

func TestBackgroundWorldIsAlertSilent(t *testing.T) {
	w := smallWorld(t)
	// Unique surnames.
	seen := map[string]bool{}
	for _, e := range w.Employees {
		if seen[e.LastName] {
			t.Fatalf("duplicate background surname %q", e.LastName)
		}
		seen[e.LastName] = true
	}
	for _, p := range w.Patients {
		if seen[p.LastName] {
			t.Fatalf("duplicate background surname %q", p.LastName)
		}
		seen[p.LastName] = true
		if p.IsEmployee {
			t.Fatal("background patients must not be employees")
		}
	}
	// Addresses pairwise farther than the neighbor radius.
	for i := 0; i < len(w.Addresses); i++ {
		for j := i + 1; j < len(w.Addresses); j++ {
			if d := w.Addresses[i].Loc.DistanceMiles(w.Addresses[j].Loc); d <= 0.5 {
				t.Fatalf("background addresses %d and %d only %g miles apart", i, j, d)
			}
		}
	}
}

func TestGeoDistance(t *testing.T) {
	a := Geo{0, 0}
	b := Geo{3, 4}
	if d := a.DistanceMiles(b); math.Abs(d-5) > 1e-12 {
		t.Fatalf("distance = %g, want 5", d)
	}
	if d := a.DistanceMiles(a); d != 0 {
		t.Fatalf("self distance = %g", d)
	}
}

func TestRelationKindStrings(t *testing.T) {
	for k := RelationKind(0); k < NumKinds; k++ {
		if k.String() == "" {
			t.Fatalf("kind %d has empty description", k)
		}
	}
	if RelationKind(99).String() == "" {
		t.Fatal("unknown kind should still stringify")
	}
}

func TestTable1Volumes(t *testing.T) {
	v := Table1Volumes()
	if v[KindLastName].Mu != 196.57 || v[KindLastName].Sigma != 17.30 {
		t.Fatal("type 1 volume mismatch with Table 1")
	}
	if v[KindLastNameAddressNeighbor].Mu != 43.27 || v[KindLastNameAddressNeighbor].Sigma != 6.45 {
		t.Fatal("type 7 volume mismatch with Table 1")
	}
	total := 0.0
	for _, n := range v {
		total += n.Mu
	}
	if math.Abs(total-460.73) > 1e-9 {
		t.Fatalf("total daily mean %g, want 460.73", total)
	}
}

func TestDiurnalSamplerShape(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	busy, night := 0, 0
	n := 20000
	for i := 0; i < n; i++ {
		tm := sampleDiurnalTime(rng)
		if tm < 0 || tm >= 24*time.Hour {
			t.Fatalf("time %v out of day range", tm)
		}
		h := int(tm / time.Hour)
		if h >= 8 && h < 17 {
			busy++
		}
		if h < 5 {
			night++
		}
	}
	if float64(busy)/float64(n) < 0.55 {
		t.Errorf("only %d/%d samples in 08:00–17:00; diurnal mass too flat", busy, n)
	}
	if float64(night)/float64(n) > 0.06 {
		t.Errorf("%d/%d samples before 05:00; nights should be quiet", night, n)
	}
}

func TestGeneratorValidation(t *testing.T) {
	if _, err := NewGenerator(nil, GeneratorConfig{}); err == nil {
		t.Error("nil world should be rejected")
	}
	w := smallWorld(t)
	if _, err := NewGenerator(w, GeneratorConfig{BackgroundPerDay: -1}); err == nil {
		t.Error("negative background should be rejected")
	}
	w2 := smallWorld(t)
	bad := GeneratorConfig{}
	bad.Volumes[0] = dist.Normal{Mu: -5, Sigma: 1}
	if _, err := NewGenerator(w2, bad); err == nil {
		t.Error("negative volume mean should be rejected")
	}
}

func TestGeneratorPlantsPairs(t *testing.T) {
	w := smallWorld(t)
	bgE, bgP := w.NumEmployees(), w.NumPatients()
	g, err := NewGenerator(w, GeneratorConfig{Seed: 3, PairsPerKind: 10, BackgroundPerDay: 100})
	if err != nil {
		t.Fatal(err)
	}
	if w.NumEmployees() != bgE+10*NumKinds || w.NumPatients() != bgP+10*NumKinds {
		t.Fatalf("planted people: have %d employees, %d patients in total", w.NumEmployees(), w.NumPatients())
	}
	for k := RelationKind(0); k < NumKinds; k++ {
		if len(g.pairs[k]) != 10 {
			t.Fatalf("kind %v: %d pairs, want 10", k, len(g.pairs[k]))
		}
	}
}

func TestGeneratorDayDeterministicAndSorted(t *testing.T) {
	mk := func() []AccessEvent {
		w := smallWorld(t)
		g, err := NewGenerator(w, GeneratorConfig{Seed: 3, PairsPerKind: 10, BackgroundPerDay: 200})
		if err != nil {
			t.Fatal(err)
		}
		return g.Day(4)
	}
	a, b := mk(), mk()
	if len(a) != len(b) {
		t.Fatalf("nondeterministic day length %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs across identical runs", i)
		}
	}
	for i := 1; i < len(a); i++ {
		if a[i].Time < a[i-1].Time {
			t.Fatal("day log not sorted by time")
		}
	}
	for _, ev := range a {
		if ev.Day != 4 {
			t.Fatalf("event of day 4 has Day=%d", ev.Day)
		}
	}
	if got := mk(); len(got) == 0 {
		t.Fatal("day log should not be empty")
	}
}

func TestGeneratorDifferentDaysDiffer(t *testing.T) {
	w := smallWorld(t)
	g, err := NewGenerator(w, GeneratorConfig{Seed: 3, PairsPerKind: 10, BackgroundPerDay: 200})
	if err != nil {
		t.Fatal(err)
	}
	d0, d1 := g.Day(0), g.Day(1)
	same := len(d0) == len(d1)
	if same {
		for i := range d0 {
			if d0[i] != d1[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different days produced identical logs")
	}
	if g.Day(-1) != nil {
		t.Fatal("negative day should return nil")
	}
}

func TestGeneratorVolumeCalibration(t *testing.T) {
	// Daily alert-bearing volumes must track the configured normals.
	w := smallWorld(t)
	bgE := w.NumEmployees()
	g, err := NewGenerator(w, GeneratorConfig{Seed: 11, PairsPerKind: 50, BackgroundPerDay: 0})
	if err != nil {
		t.Fatal(err)
	}
	var perDay [NumKinds]dist.Running
	days := 40
	for d := 0; d < days; d++ {
		counts := make(map[int]int) // planted employee → hits
		for _, ev := range g.Day(d) {
			if ev.EmployeeID >= bgE {
				counts[ev.EmployeeID]++
			}
		}
		// Planted employees are appended kind-by-kind in blocks of
		// PairsPerKind, so the kind of employee id e is
		// (e-bgE)/PairsPerKind.
		var kindTotals [NumKinds]int
		for e, c := range counts {
			kind := (e - bgE) / 50
			kindTotals[kind] += c
		}
		for k := 0; k < NumKinds; k++ {
			perDay[k].Add(float64(kindTotals[k]))
		}
	}
	vols := Table1Volumes()
	for k := 0; k < NumKinds; k++ {
		want := vols[k].Mu
		got := perDay[k].Mean()
		// 40 samples of Normal(mu, sigma): allow 4 standard errors + 1.
		tol := 4*vols[k].Sigma/math.Sqrt(float64(days)) + 1
		if math.Abs(got-want) > tol {
			t.Errorf("kind %d: mean daily volume %g, want %g ± %g", k, got, want, tol)
		}
	}
}
