package game

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/auditgames/sag/internal/dist"
)

func table1Futures() []dist.Poisson {
	return []dist.Poisson{
		{Lambda: 196.57}, {Lambda: 29.02}, {Lambda: 140.46}, {Lambda: 10.84},
		{Lambda: 25.43}, {Lambda: 15.14}, {Lambda: 43.27},
	}
}

func TestResourceSSESingleClassReducesToBase(t *testing.T) {
	inst := table2Instance(t, 1)
	futures := table1Futures()
	base, err := SolveOnlineSSE(inst, 50, futures)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SolveResourceSSE(inst, []ResourceClass{
		{Name: "staff", Budget: 50, CostMultiplier: 1},
	}, futures)
	if err != nil {
		t.Fatal(err)
	}
	if res.BestType != base.BestType {
		t.Fatalf("best type %d vs base %d", res.BestType, base.BestType)
	}
	if math.Abs(res.DefenderUtility-base.DefenderUtility) > 1e-6 {
		t.Fatalf("utility %g vs base %g", res.DefenderUtility, base.DefenderUtility)
	}
	for j := range res.Coverage {
		if math.Abs(res.Coverage[j]-base.Coverage[j]) > 1e-6 {
			t.Fatalf("coverage[%d] %g vs base %g", j, res.Coverage[j], base.Coverage[j])
		}
	}
}

func TestResourceSSEValidation(t *testing.T) {
	inst := table2Instance(t, 1)
	futures := table1Futures()
	if _, err := SolveResourceSSE(inst, nil, futures); err == nil {
		t.Error("no classes should be rejected")
	}
	if _, err := SolveResourceSSE(inst, []ResourceClass{{Budget: -1, CostMultiplier: 1}}, futures); err == nil {
		t.Error("negative budget should be rejected")
	}
	if _, err := SolveResourceSSE(inst, []ResourceClass{{Budget: 1, CostMultiplier: 0}}, futures); err == nil {
		t.Error("zero multiplier should be rejected")
	}
	if _, err := SolveResourceSSE(inst, []ResourceClass{{Budget: 1, CostMultiplier: 1, CanAudit: []bool{true}}}, futures); err == nil {
		t.Error("mask length mismatch should be rejected")
	}
	if _, err := SolveResourceSSE(inst, []ResourceClass{{Budget: 1, CostMultiplier: 1}}, futures[:2]); err == nil {
		t.Error("futures length mismatch should be rejected")
	}
}

func TestResourceSSECapabilityMasksRespected(t *testing.T) {
	inst := table2Instance(t, 1)
	futures := table1Futures()
	// Junior staff can only audit types 0–2; seniors anything.
	juniorMask := []bool{true, true, true, false, false, false, false}
	res, err := SolveResourceSSE(inst, []ResourceClass{
		{Name: "junior", Budget: 40, CanAudit: juniorMask, CostMultiplier: 1},
		{Name: "senior", Budget: 10, CostMultiplier: 1},
	}, futures)
	if err != nil {
		t.Fatal(err)
	}
	for tt := 3; tt < 7; tt++ {
		if res.Allocation[0][tt] > 1e-9 {
			t.Fatalf("junior class allocated %g to uncertified type %d", res.Allocation[0][tt], tt)
		}
	}
	// Per-class budgets respected.
	for r, class := range []float64{40, 10} {
		total := 0.0
		for tt := 0; tt < 7; tt++ {
			total += res.Allocation[r][tt]
		}
		if total > class+1e-6 {
			t.Fatalf("class %d spent %g of %g", r, total, class)
		}
	}
}

func TestResourceSSEExpensiveClassIsDiscounted(t *testing.T) {
	// Same total budget, but one setup pays double per audit for half the
	// work: the defender utility must be no better than the baseline's.
	inst := table2Instance(t, 1)
	futures := table1Futures()
	cheap, err := SolveResourceSSE(inst, []ResourceClass{
		{Budget: 50, CostMultiplier: 1},
	}, futures)
	if err != nil {
		t.Fatal(err)
	}
	pricey, err := SolveResourceSSE(inst, []ResourceClass{
		{Budget: 50, CostMultiplier: 2},
	}, futures)
	if err != nil {
		t.Fatal(err)
	}
	if pricey.DefenderUtility > cheap.DefenderUtility+1e-9 {
		t.Fatalf("doubling audit cost should not help: %g vs %g",
			pricey.DefenderUtility, cheap.DefenderUtility)
	}
	// And it should match the base game at half budget.
	half, err := SolveOnlineSSE(inst, 25, futures)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pricey.DefenderUtility-half.DefenderUtility) > 1e-6 {
		t.Fatalf("2× cost at 50 should equal 1× at 25: %g vs %g",
			pricey.DefenderUtility, half.DefenderUtility)
	}
}

func TestResourceSSESplitBudgetsNeverBeatPooled(t *testing.T) {
	// Constrained budgets (earmarked per class with capability masks) can
	// never beat one pooled unrestricted budget of the same size.
	inst := table2Instance(t, 1)
	futures := table1Futures()
	pooled, err := SolveResourceSSE(inst, []ResourceClass{
		{Budget: 50, CostMultiplier: 1},
	}, futures)
	if err != nil {
		t.Fatal(err)
	}
	split, err := SolveResourceSSE(inst, []ResourceClass{
		{Budget: 25, CanAudit: []bool{true, true, true, true, false, false, false}, CostMultiplier: 1},
		{Budget: 25, CanAudit: []bool{false, false, false, false, true, true, true}, CostMultiplier: 1},
	}, futures)
	if err != nil {
		t.Fatal(err)
	}
	if split.DefenderUtility > pooled.DefenderUtility+1e-6 {
		t.Fatalf("earmarked budgets beat pooled: %g vs %g",
			split.DefenderUtility, pooled.DefenderUtility)
	}
}

func TestResourceSSEVacuous(t *testing.T) {
	inst := table2Instance(t, 1)
	res, err := SolveResourceSSE(inst, []ResourceClass{
		{Budget: 50, CostMultiplier: 1},
	}, make([]dist.Poisson, 7))
	if err != nil {
		t.Fatal(err)
	}
	if res.BestType != -1 || res.DefenderUtility != 0 {
		t.Fatalf("vacuous game: %+v", res)
	}
}

// randomResourceCase draws a multi-resource game: up to five types and three
// classes, random capability masks (one class in four unmasked, so types
// nobody may audit occur), zero-budget classes, zero-rate types.
func randomResourceCase(tb testing.TB, rng *rand.Rand) (*Instance, []ResourceClass, []dist.Poisson) {
	k := 1 + rng.Intn(5)
	inst := randomInstance(tb, rng, k)
	classes := make([]ResourceClass, 1+rng.Intn(3))
	for r := range classes {
		classes[r] = ResourceClass{Budget: rng.Float64() * 30, CostMultiplier: 0.5 + 2*rng.Float64()}
		if rng.Intn(5) == 0 {
			classes[r].Budget = 0
		}
		if rng.Intn(4) > 0 {
			classes[r].CanAudit = make([]bool, k)
			for t := range classes[r].CanAudit {
				classes[r].CanAudit[t] = rng.Intn(3) > 0
			}
		}
	}
	futures := make([]dist.Poisson, k)
	for t := range futures {
		if rng.Intn(6) > 0 {
			futures[t].Lambda = rng.Float64() * 60
		}
	}
	return inst, classes, futures
}

// diffResource reports the first thing wrong with SolveResourceSSE on one
// game, or "". Oracle-free first: no class overspends or pays for a type
// outside its mask, and the allocation adds up to the coverage — Σ_r
// slope(t,r)·A[r][t] = θ^t — with θ ≤ 1 and the reported best type a best
// response to it. Then the differential against resourceLP: BestType (up to
// exact defender-utility ties) and both utilities to 1e-9.
func diffResource(inst *Instance, classes []ResourceClass, futures []dist.Poisson) string {
	got, err := SolveResourceSSE(inst, classes, futures)
	if err != nil {
		return "closed form: " + err.Error()
	}
	for r, c := range classes {
		spent := 0.0
		for t, a := range got.Allocation[r] {
			if a < 0 || (a > 0 && c.CanAudit != nil && !c.CanAudit[t]) {
				return fmt.Sprintf("class %d pays %g for type %d (mask %v)", r, a, t, c.CanAudit)
			}
			spent += a
		}
		if spent > c.Budget*(1+1e-12) {
			return fmt.Sprintf("class %d spends %g of %g", r, spent, c.Budget)
		}
	}
	for t, theta := range got.Coverage {
		paid := 0.0
		for r, c := range classes {
			paid += got.Allocation[r][t] * futures[t].InverseMeanCoefficient() / (inst.AuditCosts[t] * c.CostMultiplier)
		}
		if theta < 0 || theta > 1 || math.Abs(paid-theta) > 1e-9 {
			return fmt.Sprintf("Coverage[%d] = %g, allocation pays for %g", t, theta, paid)
		}
		if b := got.BestType; b >= 0 && futures[t].Lambda > 0 {
			if u := inst.Payoffs[t].AttackerExpected(theta); u > got.AttackerUtility+1e-9*math.Max(1, math.Abs(u)) {
				return fmt.Sprintf("type %d pays the attacker %g, more than best response %d at %g", t, u, b, got.AttackerUtility)
			}
		}
	}

	want, err := resourceLP(inst, classes, futures)
	if err != nil {
		return "oracle: " + err.Error()
	}
	switch {
	case !near(got.DefenderUtility, want.DefenderUtility, 1e-9):
		return fmt.Sprintf("DefenderUtility %v, oracle %v", got.DefenderUtility, want.DefenderUtility)
	case got.BestType != want.BestType && (got.BestType < 0 || want.BestType < 0):
		return fmt.Sprintf("BestType %d, oracle %d", got.BestType, want.BestType)
	case got.BestType == want.BestType && !near(got.AttackerUtility, want.AttackerUtility, 1e-9):
		return fmt.Sprintf("AttackerUtility %v, oracle %v", got.AttackerUtility, want.AttackerUtility)
	}
	return ""
}

// TestResourceSSEMatchesCandidateLPs is the seeded unit form of
// FuzzResourceSSE: 4 000 random games held to diffResource.
func TestResourceSSEMatchesCandidateLPs(t *testing.T) {
	rng := rand.New(rand.NewSource(20205))
	for trial := 0; trial < 4000; trial++ {
		inst, classes, futures := randomResourceCase(t, rng)
		if d := diffResource(inst, classes, futures); d != "" {
			t.Fatalf("trial %d: %s\nclasses=%+v futures=%v\npayoffs=%+v costs=%v",
				trial, d, classes, futures, inst.Payoffs, inst.AuditCosts)
		}
	}
}

// TestResourceSSEOneClassIsTheBaseGame: a single unmasked class at
// multiplier 1 walks the same kinks with the same budget as SolveOnlineSSE,
// so coverage and utilities are equal bit for bit, and the class pays the
// base game's allocation.
func TestResourceSSEOneClassIsTheBaseGame(t *testing.T) {
	rng := rand.New(rand.NewSource(20206))
	for trial := 0; trial < 500; trial++ {
		inst, _, futures := randomResourceCase(t, rng)
		budget := rng.Float64() * 40
		base, err := SolveOnlineSSE(inst, budget, futures)
		if err != nil {
			t.Fatal(err)
		}
		res, err := SolveResourceSSE(inst, []ResourceClass{{Budget: budget, CostMultiplier: 1}}, futures)
		if err != nil {
			t.Fatal(err)
		}
		if res.BestType != base.BestType || res.DefenderUtility != base.DefenderUtility || res.AttackerUtility != base.AttackerUtility {
			t.Fatalf("trial %d: %+v vs base %+v", trial, res, base)
		}
		for j := range res.Coverage {
			if res.Coverage[j] != base.Coverage[j] {
				t.Fatalf("trial %d: coverage[%d] %v vs base %v", trial, j, res.Coverage[j], base.Coverage[j])
			}
			if math.Abs(res.Allocation[0][j]-base.Allocation[j]) > 1e-9*math.Max(1, budget) {
				t.Fatalf("trial %d: allocation[%d] %v vs base %v", trial, j, res.Allocation[0][j], base.Allocation[j])
			}
		}
	}
}

// FuzzResourceSSE feeds seeds to the differential's generator, so the fuzzer
// explores the same game space with the same assertion.
func FuzzResourceSSE(f *testing.F) {
	for _, seed := range []int64{0, 1, 42, 20205} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		inst, classes, futures := randomResourceCase(t, rand.New(rand.NewSource(seed)))
		if d := diffResource(inst, classes, futures); d != "" {
			t.Fatalf("%s\nclasses=%+v futures=%v\npayoffs=%+v costs=%v",
				d, classes, futures, inst.Payoffs, inst.AuditCosts)
		}
	})
}
