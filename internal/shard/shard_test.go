package shard

import (
	"errors"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/auditgames/sag/internal/core"
	"github.com/auditgames/sag/internal/obs"
	"github.com/auditgames/sag/internal/sim"
)

// newTestEngine builds a real OSSP engine over the paper's Table 1/2
// instance with a fixed-rate estimator.
func newTestEngine(t *testing.T, seed int64) *core.Engine {
	t.Helper()
	inst, err := sim.Table1Instance(sim.AllTable1TypeIDs())
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(core.Config{
		Instance: inst,
		Budget:   50,
		Estimator: core.EstimatorFunc(func(time.Duration) ([]float64, error) {
			return []float64{196.57, 29.02, 140.46, 10.84, 25.43, 15.14, 43.27}, nil
		}),
		Policy: core.PolicyOSSP,
		Rand:   rand.New(rand.NewSource(seed)),
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func newTestRouter(t *testing.T, cfg Config) *Router {
	t.Helper()
	if cfg.New == nil {
		cfg.New = func(id string) (*core.Engine, any, error) {
			return newTestEngine(t, int64(Seed(id))), id, nil
		}
	}
	r, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestValidID(t *testing.T) {
	for _, id := range []string{"a", "hospital-7", "T.9_x", strings.Repeat("a", MaxIDLength)} {
		if !ValidID(id) {
			t.Errorf("ValidID(%q) = false, want true", id)
		}
	}
	for _, id := range []string{"", "has space", "semi;colon", "new\nline", "ünïcode", strings.Repeat("a", MaxIDLength+1)} {
		if ValidID(id) {
			t.Errorf("ValidID(%q) = true, want false", id)
		}
	}
}

func TestSeedIsStableAndDistinct(t *testing.T) {
	if Seed("a") != Seed("a") {
		t.Fatal("Seed is not deterministic")
	}
	if Seed("a") == Seed("b") {
		t.Fatal("distinct IDs hashed to one seed")
	}
}

func TestGetOrCreateRoutesAndCaps(t *testing.T) {
	reg := obs.NewRegistry()
	r := newTestRouter(t, Config{MaxTenants: 2, Metrics: reg})

	ta, created, err := r.GetOrCreate("a")
	if err != nil || !created {
		t.Fatalf("create a: created=%v err=%v", created, err)
	}
	again, created, err := r.GetOrCreate("a")
	if err != nil || created {
		t.Fatalf("second GetOrCreate(a): created=%v err=%v", created, err)
	}
	if again != ta {
		t.Fatal("GetOrCreate returned a different tenant for one ID")
	}
	if _, _, err := r.GetOrCreate("b"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.GetOrCreate("c"); !errors.Is(err, ErrTenantLimit) {
		t.Fatalf("third tenant err = %v, want ErrTenantLimit", err)
	}
	if n := r.Len(); n != 2 {
		t.Fatalf("Len = %d, want 2", n)
	}
	snap := reg.Snapshot()
	if got := snap.Gauges[MetricTenantsActive]; got != 2 {
		t.Fatalf("%s = %v, want 2", MetricTenantsActive, got)
	}
	if got := snap.Counters[MetricTenantLimitTotal]; got != 1 {
		t.Fatalf("%s = %v, want 1", MetricTenantLimitTotal, got)
	}
}

func TestGetOrCreateRace(t *testing.T) {
	var built int
	var builtMu sync.Mutex
	r := newTestRouter(t, Config{New: func(id string) (*core.Engine, any, error) {
		builtMu.Lock()
		built++
		builtMu.Unlock()
		return newTestEngine(t, 1), nil, nil
	}})
	var wg sync.WaitGroup
	tenants := make([]*Tenant, 32)
	for i := range tenants {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tt, _, err := r.GetOrCreate("shared")
			if err != nil {
				t.Error(err)
			}
			tenants[i] = tt
		}(i)
	}
	wg.Wait()
	if built != 1 {
		t.Fatalf("constructor ran %d times for one ID, want 1", built)
	}
	for _, tt := range tenants[1:] {
		if tt != tenants[0] {
			t.Fatal("racing GetOrCreate returned distinct tenants")
		}
	}
}
