package experiments

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"github.com/auditgames/sag/internal/sim"
)

// testScale is even smaller than QuickScale so the full suite stays fast in
// unit tests.
func testScale() Scale {
	return Scale{Days: 8, HistoryDays: 6, BackgroundPerDay: 50, PairsPerKind: 40, Seed: 42}
}

func TestTable1ReproducesPaperShape(t *testing.T) {
	rep, err := Table1(Scale{Days: 20, HistoryDays: 15, BackgroundPerDay: 50, PairsPerKind: 60, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 7 {
		t.Fatalf("rows = %d, want 7", len(rep.Rows))
	}
	for _, row := range rep.Rows {
		// Allow 5 standard errors of the configured normal plus slack.
		tol := 5*row.PaperStd/math.Sqrt(20) + 2
		if math.Abs(row.Mean-row.PaperMean) > tol {
			t.Errorf("type %d: mean %.2f vs paper %.2f (tol %.2f)", row.TypeID, row.Mean, row.PaperMean, tol)
		}
		if row.Std <= 0 {
			t.Errorf("type %d: nonpositive std %g", row.TypeID, row.Std)
		}
	}
	var buf bytes.Buffer
	rep.Render(&buf)
	if !strings.Contains(buf.String(), "Same Last Name") {
		t.Error("render should include type descriptions")
	}
}

func TestTable2Render(t *testing.T) {
	var buf bytes.Buffer
	Table2().Render(&buf)
	out := buf.String()
	for _, want := range []string{"U_d,c", "U_a,u", "-2000", "700"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 2 render missing %q", want)
		}
	}
}

func TestFigure2ShapeHolds(t *testing.T) {
	rep, err := Figure2(testScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Days) != 2 { // 8 days, 6 history → 2 groups
		t.Fatalf("days = %d, want 2", len(rep.Days))
	}
	if bad := rep.ShapeChecks(); len(bad) != 0 {
		t.Fatalf("shape violations: %v", bad)
	}
	for i, d := range rep.Days {
		if len(d.Points) == 0 {
			t.Fatalf("day %d has no points", i)
		}
		for _, p := range d.Points {
			if p.Time < 0 || p.Time >= 24*time.Hour {
				t.Fatalf("point time %v out of range", p.Time)
			}
		}
	}
	var buf bytes.Buffer
	rep.Render(&buf)
	if !strings.Contains(buf.String(), "hourly series") {
		t.Error("figure render should include hourly panels")
	}
	if s := rep.Summary(); !strings.Contains(s, "OSSP") {
		t.Errorf("summary = %q", s)
	}
}

func TestFigure3ShapeHolds(t *testing.T) {
	rep, err := Figure3(testScale())
	if err != nil {
		t.Fatal(err)
	}
	if bad := rep.ShapeChecks(); len(bad) != 0 {
		t.Fatalf("shape violations: %v", bad)
	}
	if len(rep.TypeIDs) != 7 {
		t.Fatalf("TypeIDs = %v", rep.TypeIDs)
	}
	// Multi-type days must include alerts of several distinct types.
	seen := map[int]bool{}
	for _, p := range rep.Days[0].Points {
		seen[p.Type] = true
	}
	if len(seen) < 3 {
		t.Errorf("day 1 covers only %d types", len(seen))
	}
}

func TestRuntimeWellUnderPaperBudget(t *testing.T) {
	reps, err := Runtime(testScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 2 {
		t.Fatalf("settings = %d, want 2 (single type, 7 types)", len(reps))
	}
	for _, r := range reps {
		if r.Alerts == 0 {
			t.Fatalf("%s: no alerts timed", r.Setting)
		}
		// The paper's laptop needed ≈20ms; anything under that counts as
		// reproducing the "imperceptible overhead" claim.
		if r.Mean > 20*time.Millisecond {
			t.Errorf("%s: mean %v exceeds the paper's 20ms", r.Setting, r.Mean)
		}
		if r.LPSolves == 0 {
			t.Errorf("%s: solver stats empty", r.Setting)
		}
	}
	var buf bytes.Buffer
	RenderRuntime(&buf, reps)
	for _, col := range []string{"mean", "candidates"} {
		if !strings.Contains(buf.String(), col) {
			t.Errorf("runtime render missing %q column", col)
		}
	}
}

func TestAblationRollbackEndOfDay(t *testing.T) {
	rep, err := AblationRollback(testScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Days) == 0 {
		t.Fatal("no days")
	}
	for i, d := range rep.Days {
		// Rollback only alters late-day estimates, so whole-day means must
		// stay close; budget spends must be positive and bounded by B=50.
		if math.Abs(d.MeanOSSPWith-d.MeanOSSPWithout) > 25 {
			t.Errorf("day %d: rollback changed the day mean too much (%g vs %g)",
				i+1, d.MeanOSSPWith, d.MeanOSSPWithout)
		}
		for _, spent := range []float64{d.SpentWith, d.SpentWithout} {
			if spent <= 0 || spent > 50+1e-6 {
				t.Errorf("day %d: budget spent %g out of (0,50]", i+1, spent)
			}
		}
	}
	var buf bytes.Buffer
	rep.Render(&buf)
	if !strings.Contains(buf.String(), "rollback") {
		t.Error("rollback render incomplete")
	}
}

func TestAblationBudgetMonotoneGap(t *testing.T) {
	rep, err := AblationBudget(testScale(), []float64{5, 20, 60})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Points) != 3 {
		t.Fatalf("points = %d", len(rep.Points))
	}
	// More budget never hurts either policy's mean utility.
	for i := 1; i < len(rep.Points); i++ {
		if rep.Points[i].MeanOSSP < rep.Points[i-1].MeanOSSP-1 {
			t.Errorf("OSSP mean decreased with budget: %v", rep.Points)
		}
		if rep.Points[i].MeanSSE < rep.Points[i-1].MeanSSE-1 {
			t.Errorf("SSE mean decreased with budget: %v", rep.Points)
		}
	}
	// Signaling never hurts at any budget.
	for _, p := range rep.Points {
		if p.Gap < -1e-6 {
			t.Errorf("negative OSSP-SSE gap at budget %g: %g", p.Budget, p.Gap)
		}
	}
	var buf bytes.Buffer
	rep.Render(&buf)
	if !strings.Contains(buf.String(), "budget sweep") {
		t.Error("budget render incomplete")
	}
}

func TestAblationEstimatorJensenDirection(t *testing.T) {
	rep := AblationEstimator(nil, nil)
	if len(rep.Points) == 0 {
		t.Fatal("no points")
	}
	for _, p := range rep.Points {
		// Jensen: E[1/max(D,1)] ≥ 1/E[D] ⇒ θ-poisson ≥ θ-naive before both
		// saturate at 1.
		if p.ThetaPoisson < p.ThetaNaive-1e-9 && p.ThetaNaive < 1 {
			t.Errorf("B=%g λ=%g: θ-poisson %g < θ-naive %g", p.Budget, p.Lambda, p.ThetaPoisson, p.ThetaNaive)
		}
	}
	var buf bytes.Buffer
	rep.Render(&buf)
	if !strings.Contains(buf.String(), "naive") {
		t.Error("estimator render incomplete")
	}
}

func TestAblationRobustMonotonePremium(t *testing.T) {
	rep, err := AblationRobust(1, []float64{0.1}, []float64{0, 50, 150, 400})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TypeID != 1 || len(rep.Points) != 4 {
		t.Fatalf("report shape: %+v", rep)
	}
	prev := -1.0
	for _, p := range rep.Points {
		if p.Premium < -1e-9 {
			t.Fatalf("negative premium %g at ε=%g", p.Premium, p.Epsilon)
		}
		if p.Premium < prev-1e-9 {
			t.Fatalf("premium not monotone in ε: %v", rep.Points)
		}
		prev = p.Premium
	}
	if rep.Points[0].Premium > 1e-9 {
		t.Fatal("ε=0 premium should be 0")
	}
	if _, err := AblationRobust(0, nil, nil); err == nil {
		t.Error("type 0 should be rejected")
	}
	var buf bytes.Buffer
	rep.Render(&buf)
	if !strings.Contains(buf.String(), "premium") {
		t.Error("robust render incomplete")
	}
}

func TestAblationRollbackVariants(t *testing.T) {
	rep, err := AblationRollbackVariants(testScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Days) == 0 {
		t.Fatal("no days")
	}
	for i, d := range rep.Days {
		// All three variants see the same morning; day means stay close.
		if math.Abs(d.MeanCount-d.MeanOff) > 30 || math.Abs(d.MeanRate-d.MeanOff) > 30 {
			t.Errorf("day %d: variant means diverged: %+v", i+1, d)
		}
	}
	var buf bytes.Buffer
	rep.Render(&buf)
	if !strings.Contains(buf.String(), "final-rate") {
		t.Error("variant render incomplete")
	}
}

func TestRunAllProducesFullReport(t *testing.T) {
	var buf bytes.Buffer
	if err := RunAll(&buf, testScale()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, section := range []string{
		"Table 1", "Table 2", "Figure 2", "Figure 3",
		"Runtime", "Ablation A1", "Ablation A2", "Ablation A4", "Ablation A5",
		"shape: all shape checks PASS",
	} {
		if !strings.Contains(out, section) {
			t.Errorf("report missing section %q", section)
		}
	}
}

func TestValidationCalibration(t *testing.T) {
	rep, err := Validation(testScale(), 250)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 strategies", len(rep.Rows))
	}
	for _, row := range rep.Rows {
		if row.Trials != 250 {
			t.Fatalf("%s: trials %d", row.Strategy, row.Trials)
		}
		if row.Strategy == "best-response" && row.WarnRate == 0 && row.MeanRealized == 0 {
			continue // the planner may choose not to attack at this budget
		}
		// Realized vs analytic within Monte-Carlo noise (≈5 SE).
		if diff := row.MeanRealized - row.MeanAnalytic; diff > 60 || diff < -60 {
			t.Errorf("%s: realized %.1f vs analytic %.1f", row.Strategy, row.MeanRealized, row.MeanAnalytic)
		}
		// Under the exact OSSP every warned attacker quits and silent
		// alerts are never audited.
		if row.QuitRate != row.WarnRate {
			t.Errorf("%s: quit rate %.3f != warn rate %.3f", row.Strategy, row.QuitRate, row.WarnRate)
		}
		if row.CatchRate != 0 {
			t.Errorf("%s: catch rate %.3f, want 0 (Theorem 3)", row.Strategy, row.CatchRate)
		}
	}
	var buf bytes.Buffer
	rep.Render(&buf)
	if !strings.Contains(buf.String(), "realized") {
		t.Error("validation render incomplete")
	}
}

func TestWriteDayCSV(t *testing.T) {
	rep, err := Figure2(testScale())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteDayCSV(&buf, 0); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != "time_sec,type,ossp,online_sse,offline_sse" {
		t.Fatalf("header = %q", lines[0])
	}
	if len(lines) != len(rep.Days[0].Points)+1 {
		t.Fatalf("rows = %d, want %d", len(lines)-1, len(rep.Days[0].Points))
	}
	if err := rep.WriteDayCSV(&buf, 99); err == nil {
		t.Error("out-of-range day should error")
	}
}

func TestFigureFromDatasetMatchesFigure(t *testing.T) {
	scale := testScale()
	ds, err := sim.BuildTable1Pipeline(sim.PipelineConfig{
		Seed:             scale.Seed,
		Days:             scale.Days,
		BackgroundPerDay: scale.BackgroundPerDay,
		PairsPerKind:     scale.PairsPerKind,
	}, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := Figure2(scale)
	if err != nil {
		t.Fatal(err)
	}
	replay, err := FigureFromDataset(ds, "replay", 20, scale.HistoryDays, scale.Seed)
	if err != nil {
		t.Fatal(err)
	}
	if len(direct.Days) != len(replay.Days) {
		t.Fatalf("day counts differ: %d vs %d", len(direct.Days), len(replay.Days))
	}
	for i := range direct.Days {
		if math.Abs(direct.Days[i].MeanOSSP-replay.Days[i].MeanOSSP) > 1e-9 {
			t.Fatalf("day %d means differ: %g vs %g",
				i, direct.Days[i].MeanOSSP, replay.Days[i].MeanOSSP)
		}
	}
}

func TestThroughputSmall(t *testing.T) {
	rep, err := Throughput(1, 2, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalAccesses < 10000 {
		t.Fatalf("total accesses %d, want ≥ 10000", rep.TotalAccesses)
	}
	if rep.TotalAlerts < 500 {
		t.Fatalf("total alerts %d implausibly low", rep.TotalAlerts)
	}
	if rep.EventsPerSecond() <= 0 {
		t.Fatal("throughput should be positive")
	}
	var buf bytes.Buffer
	rep.Render(&buf)
	if !strings.Contains(buf.String(), "events/s") {
		t.Error("throughput render incomplete")
	}
	if _, err := Throughput(1, 0, 10); err == nil {
		t.Error("zero days should be rejected")
	}
}

func TestThroughputPaperScale(t *testing.T) {
	if testing.Short() {
		t.Skip("full 10.75M-event sweep skipped in -short mode")
	}
	// The paper's full volume: 56 days × ≈192k accesses. Streams day by
	// day, so memory stays bounded.
	rep, err := Throughput(2017, 56, 192_000)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalAccesses < 10_500_000 {
		t.Fatalf("total accesses %d, want ≈10.75M", rep.TotalAccesses)
	}
	// Daily alert volume should track Table 1's ≈460/day.
	perDay := float64(rep.TotalAlerts) / float64(rep.Days)
	if perDay < 350 || perDay > 600 {
		t.Fatalf("alerts/day %.1f far from Table 1's ≈460", perDay)
	}
	t.Logf("processed %d accesses (%.1fM events/s detection)", rep.TotalAccesses, rep.EventsPerSecond()/1e6)
}

func TestScalePresets(t *testing.T) {
	f := FullScale()
	if f.Days != 56 || f.HistoryDays != 41 {
		t.Fatalf("FullScale = %+v, want the paper's 56/41", f)
	}
	q := QuickScale()
	if q.Days <= q.HistoryDays {
		t.Fatal("QuickScale must yield at least one group")
	}
}
