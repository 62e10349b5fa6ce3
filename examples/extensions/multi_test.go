package main

import (
	"math"
	"testing"

	sag "github.com/auditgames/sag"
)

func table1Futures() []sag.Poisson {
	return []sag.Poisson{
		{Lambda: 196.57}, {Lambda: 29.02}, {Lambda: 140.46}, {Lambda: 10.84},
		{Lambda: 25.43}, {Lambda: 15.14}, {Lambda: 43.27},
	}
}

// table2Instance is the paper's seven Table 2 types at a uniform audit cost.
func table2Instance(t testing.TB, cost float64) *sag.Instance {
	t.Helper()
	table2 := sag.Table2Payoffs()
	inst, err := sag.NewInstance(table2[1:], sag.UniformCost(7, cost))
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func TestMultiAttackerSingleReducesToSSE(t *testing.T) {
	inst := table2Instance(t, 1)
	futures := table1Futures()
	single, err := sag.SolveOnlineSSE(inst, 50, futures)
	if err != nil {
		t.Fatal(err)
	}
	multi, err := SolveMultiAttackerSSE(inst, 50, futures, [][]int{nil}) // one unrestricted attacker
	if err != nil {
		t.Fatal(err)
	}
	if multi.BestTypes[0] != single.BestType {
		t.Fatalf("best type %d vs single-attacker %d", multi.BestTypes[0], single.BestType)
	}
	if math.Abs(multi.DefenderUtility-single.DefenderUtility) > 1e-6 {
		t.Fatalf("defender utility %g vs %g", multi.DefenderUtility, single.DefenderUtility)
	}
}

func TestMultiAttackerValidation(t *testing.T) {
	inst := table2Instance(t, 1)
	futures := table1Futures()
	if _, err := SolveMultiAttackerSSE(inst, 50, futures, nil); err == nil {
		t.Error("zero attackers should be rejected")
	}
	if _, err := SolveMultiAttackerSSE(inst, -1, futures, [][]int{nil}); err == nil {
		t.Error("negative budget should be rejected")
	}
	if _, err := SolveMultiAttackerSSE(inst, 50, futures[:2], [][]int{nil}); err == nil {
		t.Error("future-count mismatch should be rejected")
	}
	if _, err := SolveMultiAttackerSSE(inst, 50, futures, [][]int{{99}}); err == nil {
		t.Error("out-of-range capability should be rejected")
	}
	if _, err := SolveMultiAttackerSSE(inst, 50, futures, [][]int{{1, 1}}); err == nil {
		t.Error("duplicate capability should be rejected")
	}
}

func TestMultiAttackerDisjointCapabilities(t *testing.T) {
	// Two attackers confined to disjoint type sets: each must best-respond
	// within his own menu, and budget splits between them.
	inst := table2Instance(t, 1)
	futures := table1Futures()
	caps := [][]int{{0, 1, 2}, {3, 4, 5, 6}}
	res, err := SolveMultiAttackerSSE(inst, 50, futures, caps)
	if err != nil {
		t.Fatal(err)
	}
	if res.BestTypes[0] > 2 || res.BestTypes[0] < 0 {
		t.Fatalf("attacker 0 best type %d outside capability", res.BestTypes[0])
	}
	if res.BestTypes[1] < 3 {
		t.Fatalf("attacker 1 best type %d outside capability", res.BestTypes[1])
	}
	// Best-response dominance within each menu.
	for i, menu := range caps {
		bt := res.BestTypes[i]
		bu := inst.Payoffs[bt].AttackerExpected(res.Coverage[bt])
		for _, j := range menu {
			if u := inst.Payoffs[j].AttackerExpected(res.Coverage[j]); u > bu+1e-6 {
				t.Fatalf("attacker %d: type %d utility %g beats chosen %d's %g", i, j, u, bt, bu)
			}
		}
	}
	// Budget respected.
	total := 0.0
	for _, b := range res.Allocation {
		total += b
	}
	if total > 50+1e-6 {
		t.Fatalf("allocation %g exceeds budget", total)
	}
}

func TestMultiAttackerUtilityAdditive(t *testing.T) {
	// Defender utility must equal the sum over attackers of her per-victim
	// utility at the equilibrium coverage.
	inst := table2Instance(t, 1)
	futures := table1Futures()
	res, err := SolveMultiAttackerSSE(inst, 50, futures, [][]int{nil, nil, nil})
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, bt := range res.BestTypes {
		sum += inst.Payoffs[bt].DefenderExpected(res.Coverage[bt])
	}
	if math.Abs(sum-res.DefenderUtility) > 1e-9 {
		t.Fatalf("reported %g vs recomputed %g", res.DefenderUtility, sum)
	}
}

func TestMultiAttackerMoreAttackersMoreLoss(t *testing.T) {
	inst := table2Instance(t, 1)
	futures := table1Futures()
	u1, err := SolveMultiAttackerSSE(inst, 50, futures, [][]int{nil})
	if err != nil {
		t.Fatal(err)
	}
	u3, err := SolveMultiAttackerSSE(inst, 50, futures, [][]int{nil, nil, nil})
	if err != nil {
		t.Fatal(err)
	}
	if u3.DefenderUtility > u1.DefenderUtility+1e-9 {
		t.Fatalf("three attackers (%g) cannot hurt less than one (%g)",
			u3.DefenderUtility, u1.DefenderUtility)
	}
}

func TestMultiAttackerVacuousMenus(t *testing.T) {
	inst := table2Instance(t, 1)
	futures := make([]sag.Poisson, 7) // nothing attackable
	res, err := SolveMultiAttackerSSE(inst, 50, futures, [][]int{nil, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	for i, bt := range res.BestTypes {
		if bt != -1 {
			t.Fatalf("attacker %d best type %d, want -1", i, bt)
		}
	}
	if res.DefenderUtility != 0 {
		t.Fatal("vacuous game should be zero-utility")
	}
}

func TestMultiAttackerPartiallyVacuous(t *testing.T) {
	// Attacker 1's entire menu has zero future volume → inactive, while
	// attacker 0 still plays.
	inst := table2Instance(t, 1)
	futures := table1Futures()
	futures[3] = sag.Poisson{}
	futures[4] = sag.Poisson{}
	res, err := SolveMultiAttackerSSE(inst, 50, futures, [][]int{nil, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if res.BestTypes[1] != -1 {
		t.Fatalf("attacker 1 should be inactive, got type %d", res.BestTypes[1])
	}
	if res.BestTypes[0] < 0 {
		t.Fatal("attacker 0 should be active")
	}
	if res.AttackerUtilities[1] != 0 {
		t.Fatal("inactive attacker utility should be 0")
	}
}

func TestMultiAttackerProfileExplosionGuard(t *testing.T) {
	pays := make([]sag.Payoff, 8)
	for i := range pays {
		pays[i] = sag.Table2Payoffs()[1]
	}
	inst, err := sag.NewInstance(pays, sag.UniformCost(8, 1))
	if err != nil {
		t.Fatal(err)
	}
	futures := make([]sag.Poisson, 8)
	for i := range futures {
		futures[i] = sag.Poisson{Lambda: 10}
	}
	// 8 unrestricted attackers → 8^8 ≈ 16.7M profiles, over the cap.
	caps := make([][]int, 8)
	if _, err := SolveMultiAttackerSSE(inst, 50, futures, caps); err == nil {
		t.Fatal("profile explosion should be rejected")
	}
}

// TestMultiAttackerMixedMenus is the façade's old multi-attacker case: one
// unrestricted attacker and one confined to a single type.
func TestMultiAttackerMixedMenus(t *testing.T) {
	inst, err := sag.NewInstance(
		[]sag.Payoff{sag.Table2Payoffs()[1], sag.Table2Payoffs()[3]},
		sag.UniformCost(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	m, err := SolveMultiAttackerSSE(inst, 20, []sag.Poisson{{Lambda: 100}, {Lambda: 50}}, [][]int{nil, {1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.BestTypes) != 2 || m.BestTypes[1] != 1 {
		t.Fatalf("multi result %+v", m)
	}
}

// BenchmarkMultiAttackerSSE measures the joint best-response enumeration
// for two capability-restricted attackers over 7 types.
func BenchmarkMultiAttackerSSE(b *testing.B) {
	inst := table2Instance(b, 1)
	futures := table1Futures()
	caps := [][]int{{0, 1, 2}, {3, 4, 5, 6}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveMultiAttackerSSE(inst, 50, futures, caps); err != nil {
			b.Fatal(err)
		}
	}
}
