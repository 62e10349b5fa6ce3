package sim

import (
	"reflect"
	"sync"
	"testing"
)

// TestRunGroupConcurrentMatchesSequential: replications running on concurrent
// goroutines over one Runner share nothing mutable, so they reproduce a
// sequential run exactly.
func TestRunGroupConcurrentMatchesSequential(t *testing.T) {
	ds, err := BuildTable1Pipeline(PipelineConfig{
		Seed: 11, Days: 8, BackgroundPerDay: 40, PairsPerKind: 2,
		WorldEmployees: 40, WorldPatients: 160,
	}, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	inst, err := Table1Instance([]int{1})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(ds, Config{Instance: inst, Budget: 20, RollbackThreshold: -1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	groups := Groups(8, 6) // 2 replications
	results := make([]*DayResult, len(groups))
	errs := make([]error, len(groups))
	var wg sync.WaitGroup
	for i := range groups {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = r.RunGroup(groups[i])
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("group %d: %v", i, err)
		}
	}

	plain, err := r.RunGroups(groups)
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain {
		if !reflect.DeepEqual(plain[i].Outcomes, results[i].Outcomes) || plain[i].OfflineSSE != results[i].OfflineSSE {
			t.Fatalf("concurrent replication diverged from the sequential one at group %d", i)
		}
	}
}
