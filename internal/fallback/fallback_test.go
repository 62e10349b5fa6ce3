package fallback

import (
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
