package alerts

import (
	"sort"
	"sync"
)

// Taxonomy maps base-rule masks to alert type IDs, implementing the paper's
// "combinations are new types" convention. The seven masks the paper
// observed (Table 1) are pre-registered with their published IDs 1..7;
// masks never seen before are assigned fresh IDs on first sight, so the
// taxonomy is total over all 15 nonzero masks.
//
// A Taxonomy is safe for concurrent use.
type Taxonomy struct {
	mu     sync.Mutex
	byMask map[Rule]int
	byID   map[int]Rule
	nextID int
}

// NewTable1Taxonomy returns a taxonomy pre-registered with the paper's
// seven types:
//
//	1 Same Last Name
//	2 Department Co-worker
//	3 Neighbor (≤ 0.5 miles)
//	4 Same Address
//	5 Last Name; Neighbor
//	6 Last Name; Same Address
//	7 Last Name; Same Address; Neighbor
func NewTable1Taxonomy() *Taxonomy {
	t := &Taxonomy{
		byMask: make(map[Rule]int),
		byID:   make(map[int]Rule),
		nextID: 8,
	}
	reg := []struct {
		id   int
		mask Rule
	}{
		{1, RuleLastName},
		{2, RuleCoworker},
		{3, RuleNeighbor},
		{4, RuleSameAddress},
		{5, RuleLastName | RuleNeighbor},
		{6, RuleLastName | RuleSameAddress},
		{7, RuleLastName | RuleSameAddress | RuleNeighbor},
	}
	for _, r := range reg {
		t.byMask[r.mask] = r.id
		t.byID[r.id] = r.mask
	}
	return t
}

// TypeOf returns the type ID for a nonzero rule mask, registering a fresh
// ID for masks never seen before. It panics on a zero mask — benign
// accesses have no type and callers must filter them first.
func (t *Taxonomy) TypeOf(mask Rule) int {
	if mask == 0 {
		panic("alerts: TypeOf called with empty rule mask")
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := t.byMask[mask]; ok {
		return id
	}
	id := t.nextID
	t.nextID++
	t.byMask[mask] = id
	t.byID[id] = mask
	return id
}

// NumTypes returns the number of registered types.
func (t *Taxonomy) NumTypes() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.byID)
}

// IDs returns the registered type IDs in ascending order.
func (t *Taxonomy) IDs() []int {
	t.mu.Lock()
	defer t.mu.Unlock()
	ids := make([]int, 0, len(t.byID))
	for id := range t.byID {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}
