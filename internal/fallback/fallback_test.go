package fallback

import (
	"errors"
	"math"
	"testing"
)

func TestLevelStrings(t *testing.T) {
	cases := map[Level]string{
		None:      "none",
		Level(1):  "cache", // retired, but old journals still hold it
		LastGood:  "last_good",
		Static:    "static",
		Level(42): "Level(42)",
	}
	for lvl, want := range cases {
		if got := lvl.String(); got != want {
			t.Errorf("Level(%d).String() = %q, want %q", int(lvl), got, want)
		}
	}
	if None.Degraded() {
		t.Error("None should not be degraded")
	}
	if LastGood != 2 || Static != 3 {
		t.Errorf("LastGood, Static = %d, %d; journals store them as 2, 3", LastGood, Static)
	}
	for _, lvl := range []Level{LastGood, Static} {
		if !lvl.Degraded() {
			t.Errorf("%v should be degraded", lvl)
		}
	}
}

func TestRunFirstSuccessWins(t *testing.T) {
	v, lvl, err := Run(
		Step[int]{Level: None, Try: func() (int, error) { return 7, nil }},
		Step[int]{Level: LastGood, Try: func() (int, error) { t.Fatal("later step ran"); return 0, nil }},
	)
	if err != nil || v != 7 || lvl != None {
		t.Fatalf("Run = (%d, %v, %v), want (7, none, nil)", v, lvl, err)
	}
}

func TestRunDescendsInOrder(t *testing.T) {
	var order []Level
	boom := errors.New("boom")
	v, lvl, err := Run(
		Step[string]{Level: None, Try: func() (string, error) { order = append(order, None); return "", boom }},
		Step[string]{Level: LastGood, Try: func() (string, error) { order = append(order, LastGood); panic("solver degeneracy") }},
		Step[string]{Level: Static, Try: func() (string, error) { order = append(order, Static); return "static", nil }},
	)
	if err != nil || v != "static" || lvl != Static {
		t.Fatalf("Run = (%q, %v, %v), want (static, static, nil)", v, lvl, err)
	}
	want := []Level{None, LastGood, Static}
	if len(order) != len(want) {
		t.Fatalf("ran %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("ran %v, want %v", order, want)
		}
	}
}

func TestRunAllFail(t *testing.T) {
	boom := errors.New("boom")
	_, lvl, err := Run(
		Step[int]{Level: LastGood, Try: func() (int, error) { return 0, errors.New("first") }},
		Step[int]{Level: Static, Try: func() (int, error) { return 0, boom }},
	)
	if !errors.Is(err, boom) {
		t.Fatalf("want last error, got %v", err)
	}
	if lvl != Static {
		t.Fatalf("want last level static, got %v", lvl)
	}
}

func TestRunEmptyLadder(t *testing.T) {
	if _, _, err := Run[int](); err == nil {
		t.Fatal("empty ladder should error")
	}
}

func TestAttemptContainsPanics(t *testing.T) {
	_, err := Attempt(func() (int, error) { panic("kaboom") })
	if err == nil {
		t.Fatal("panic should be converted to error")
	}
	v, err := Attempt(func() (int, error) { return 3, nil })
	if err != nil || v != 3 {
		t.Fatalf("Attempt = (%d, %v), want (3, nil)", v, err)
	}
}

func TestStaticAuditProbability(t *testing.T) {
	cases := []struct {
		name            string
		remaining, cost float64
		want            float64
	}{
		{"proportional", 10, 40, 0.25},
		{"capped at one", 50, 10, 1},
		{"exact", 20, 20, 1},
		{"no budget", 0, 40, 0},
		{"negative budget", -1, 40, 0},
		{"no expected cost", 5, 0, 1},
		{"negative expected cost", 5, -3, 1},
		{"nan remaining", math.NaN(), 40, 0},
		{"nan cost", 5, math.NaN(), 0},
	}
	for _, c := range cases {
		if got := StaticAuditProbability(c.remaining, c.cost); got != c.want {
			t.Errorf("%s: StaticAuditProbability(%g, %g) = %g, want %g", c.name, c.remaining, c.cost, got, c.want)
		}
	}
}
