package emr

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"github.com/auditgames/sag/internal/dist"
)

// AccessEvent is one EMR access: an employee opening a patient's record at
// a given offset within a working day.
type AccessEvent struct {
	Day        int
	Time       time.Duration
	EmployeeID int
	PatientID  int
}

// RelationKind enumerates the paper's seven observed alert types (Table 1),
// 0-indexed: RelationKind(i) corresponds to the paper's type ID i+1.
type RelationKind int

const (
	// KindLastName — employee and patient share a surname.
	KindLastName RelationKind = iota
	// KindCoworker — the patient works in the employee's department.
	KindCoworker
	// KindNeighbor — they live within 0.5 miles (different addresses).
	KindNeighbor
	// KindSameAddress — they share a registered address.
	KindSameAddress
	// KindLastNameNeighbor — surname + neighbor.
	KindLastNameNeighbor
	// KindLastNameAddress — surname + same address.
	KindLastNameAddress
	// KindLastNameAddressNeighbor — surname + same address + neighbor (a
	// second registered address around the corner).
	KindLastNameAddressNeighbor

	// NumKinds is the number of planted relation kinds.
	NumKinds = 7
)

// String returns the paper's Table 1 description for the kind.
func (k RelationKind) String() string {
	switch k {
	case KindLastName:
		return "Same Last Name"
	case KindCoworker:
		return "Department Co-worker"
	case KindNeighbor:
		return "Neighbor (<=0.5 miles)"
	case KindSameAddress:
		return "Same Address"
	case KindLastNameNeighbor:
		return "Last Name; Neighbor (<=0.5 miles)"
	case KindLastNameAddress:
		return "Last Name; Same Address"
	case KindLastNameAddressNeighbor:
		return "Last Name; Same Address; Neighbor (<=0.5 miles)"
	default:
		return fmt.Sprintf("RelationKind(%d)", int(k))
	}
}

// Table1Volumes returns the paper's Table 1 daily alert statistics as
// normal distributions, indexed by RelationKind.
func Table1Volumes() [NumKinds]dist.Normal {
	return [NumKinds]dist.Normal{
		KindLastName:                {Mu: 196.57, Sigma: 17.30},
		KindCoworker:                {Mu: 29.02, Sigma: 5.56},
		KindNeighbor:                {Mu: 140.46, Sigma: 23.23},
		KindSameAddress:             {Mu: 10.84, Sigma: 3.73},
		KindLastNameNeighbor:        {Mu: 25.43, Sigma: 4.51},
		KindLastNameAddress:         {Mu: 15.14, Sigma: 4.10},
		KindLastNameAddressNeighbor: {Mu: 43.27, Sigma: 6.45},
	}
}

// diurnalWeights is the relative access intensity per hour of day: heavy
// mass 08:00–17:00 with shift-change peaks around 07–08 and 14–16, and a
// quiet night — the shape the paper reports for the medical center.
var diurnalWeights = [24]float64{
	0.20, 0.15, 0.15, 0.15, 0.20, 0.30, // 00–05
	0.60, 1.80, 3.20, 3.00, 2.80, 2.60, // 06–11
	2.40, 2.60, 2.80, 3.00, 2.40, 1.80, // 12–17
	1.00, 0.80, 0.50, 0.40, 0.30, 0.25, // 18–23
}

// sampleDiurnalTime draws a time-of-day from the piecewise-constant hourly
// profile.
func sampleDiurnalTime(rng *rand.Rand) time.Duration {
	total := 0.0
	for _, w := range diurnalWeights {
		total += w
	}
	u := rng.Float64() * total
	for h, w := range diurnalWeights {
		if u < w {
			frac := u / w
			return time.Duration(h)*time.Hour + time.Duration(frac*float64(time.Hour))
		}
		u -= w
	}
	return 24*time.Hour - time.Nanosecond
}

// pair is a planted employee–patient relationship.
type pair struct {
	employee int
	patient  int
}

// GeneratorConfig sizes the synthetic access-log generator.
type GeneratorConfig struct {
	// Seed drives planting and day generation; together with a day index it
	// fully determines that day's log.
	Seed int64
	// BackgroundPerDay is the number of alert-silent accesses per day
	// (default 2000; the paper's full scale is ≈192k).
	BackgroundPerDay int
	// PairsPerKind is the size of the planted-pair pool per relation kind
	// (default 300); daily alerts draw from this pool with replacement.
	PairsPerKind int
	// Volumes are the daily alert-count distributions per kind
	// (default Table1Volumes).
	Volumes [NumKinds]dist.Normal
}

func (c *GeneratorConfig) applyDefaults() {
	if c.BackgroundPerDay <= 0 {
		c.BackgroundPerDay = 2000
	}
	if c.PairsPerKind <= 0 {
		c.PairsPerKind = 300
	}
	zero := dist.Normal{}
	allZero := true
	for _, v := range c.Volumes {
		if v != zero {
			allZero = false
			break
		}
	}
	if allZero {
		c.Volumes = Table1Volumes()
	}
}

// Generator plants relationship pairs into a World and then emits daily
// access logs whose alert stream matches the configured volumes.
type Generator struct {
	world        *World
	cfg          GeneratorConfig
	pairs        [NumKinds][]pair
	bgEmployees  int // employees with index < bgEmployees are background
	bgPatients   int
	surnameIndex int
}

// NewGenerator plants cfg.PairsPerKind relationship pairs of every kind
// into w (appending fresh employees, patients, and addresses) and returns
// the generator. The world is mutated; pass a dedicated World.
func NewGenerator(w *World, cfg GeneratorConfig) (*Generator, error) {
	if w == nil {
		return nil, fmt.Errorf("emr: nil world")
	}
	if cfg.BackgroundPerDay < 0 || cfg.PairsPerKind < 0 {
		return nil, fmt.Errorf("emr: negative sizes in %+v", cfg)
	}
	cfg.applyDefaults()
	for k, v := range cfg.Volumes {
		if v.Sigma < 0 || v.Mu < 0 {
			return nil, fmt.Errorf("emr: invalid volume for kind %d: %+v", k, v)
		}
	}
	g := &Generator{
		world:       w,
		cfg:         cfg,
		bgEmployees: len(w.Employees),
		bgPatients:  len(w.Patients),
	}
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x5AD_BEEF))
	for kind := RelationKind(0); kind < NumKinds; kind++ {
		for i := 0; i < cfg.PairsPerKind; i++ {
			g.pairs[kind] = append(g.pairs[kind], g.plant(rng, kind))
		}
	}
	return g, nil
}

// nextSurname hands out surnames for planted pairs; the pool is recycled
// with numeric suffixes if exhausted, keeping surnames unique per pair so
// planted relations never leak across pairs through the name rule — except
// that reuse across distinct pairs is harmless because an access only ever
// joins an employee and a patient of the same pair or background people.
func (g *Generator) nextSurname() string {
	i := g.surnameIndex
	g.surnameIndex++
	name := familyNames[i%len(familyNames)]
	if round := i / len(familyNames); round > 0 {
		name = fmt.Sprintf("%s%d", name, round)
	}
	return name
}

// remoteLoc returns a location in a fresh 1-mile grid cell beyond anything
// allocated so far, guaranteeing > 0.5 miles from every other address.
func (g *Generator) remoteLoc(rng *rand.Rand) Geo {
	i := len(g.world.Addresses)
	side := 4096 // effectively one long row of distinct cells
	return Geo{
		X: float64(i%side) + rng.Float64()*0.2,
		Y: float64(i/side+1)*2 + 1e6, // far above the background grid
	}
}

// nearbyLoc returns a location at distance in [0.15, 0.45] miles from base,
// satisfying the neighbor predicate without colliding into "same address".
func nearbyLoc(rng *rand.Rand, base Geo) Geo {
	d := 0.15 + rng.Float64()*0.30
	ang := rng.Float64() * 2 * math.Pi
	return Geo{X: base.X + d*math.Cos(ang), Y: base.Y + d*math.Sin(ang)}
}

// plant creates one employee–patient pair with exactly the relation kind's
// predicates and appends them to the world.
func (g *Generator) plant(rng *rand.Rand, kind RelationKind) pair {
	w := g.world
	empID := len(w.Employees)
	patID := len(w.Patients)

	empSurname := fmt.Sprintf("PltE%06d", empID)
	patSurname := fmt.Sprintf("PltP%06d", patID)
	if kind == KindLastName || kind >= KindLastNameNeighbor {
		shared := g.nextSurname()
		empSurname, patSurname = shared, shared
	}

	var empAddrs, patAddrs []int
	switch kind {
	case KindNeighbor, KindLastNameNeighbor:
		base := g.remoteLoc(rng)
		a := w.AddAddress(base)
		b := w.AddAddress(nearbyLoc(rng, base))
		empAddrs, patAddrs = []int{a}, []int{b}
	case KindSameAddress, KindLastNameAddress:
		a := w.AddAddress(g.remoteLoc(rng))
		empAddrs, patAddrs = []int{a}, []int{a}
	case KindLastNameAddressNeighbor:
		base := g.remoteLoc(rng)
		a := w.AddAddress(base)
		b := w.AddAddress(nearbyLoc(rng, base))
		empAddrs, patAddrs = []int{a, b}, []int{a}
	default: // KindLastName, KindCoworker: far-apart unique addresses
		empAddrs = []int{w.AddAddress(g.remoteLoc(rng))}
		patAddrs = []int{w.AddAddress(g.remoteLoc(rng))}
	}

	dept := 0
	if len(w.Departments) > 0 {
		dept = rng.Intn(len(w.Departments))
	}
	w.Employees = append(w.Employees, Employee{
		Person: Person{
			ID:         empID,
			FirstName:  firstNames[rng.Intn(len(firstNames))],
			LastName:   empSurname,
			AddressIDs: empAddrs,
		},
		Department: dept,
	})
	pat := Patient{
		Person: Person{
			ID:         patID,
			FirstName:  firstNames[rng.Intn(len(firstNames))],
			LastName:   patSurname,
			AddressIDs: patAddrs,
		},
	}
	if kind == KindCoworker {
		pat.IsEmployee = true
		pat.Department = dept
	}
	w.Patients = append(w.Patients, pat)
	return pair{employee: empID, patient: patID}
}

// Day generates the access log for one day, sorted by time. The log is a
// deterministic function of (config seed, day).
func (g *Generator) Day(day int) []AccessEvent {
	if day < 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(g.cfg.Seed*1_000_003 + int64(day)))
	// Room for the background, which is most of a day; the alerts grow it once.
	events := make([]AccessEvent, 0, g.cfg.BackgroundPerDay)

	// Background (alert-silent) traffic.
	for i := 0; i < g.cfg.BackgroundPerDay; i++ {
		if g.bgEmployees == 0 || g.bgPatients == 0 {
			break
		}
		events = append(events, AccessEvent{
			Day:        day,
			Time:       sampleDiurnalTime(rng),
			EmployeeID: rng.Intn(g.bgEmployees),
			PatientID:  rng.Intn(g.bgPatients),
		})
	}

	// Alert-bearing traffic calibrated to the per-kind daily volumes.
	for kind := RelationKind(0); kind < NumKinds; kind++ {
		pool := g.pairs[kind]
		if len(pool) == 0 {
			continue
		}
		n := int(math.Round(g.cfg.Volumes[kind].SamplePositive(rng)))
		for i := 0; i < n; i++ {
			p := pool[rng.Intn(len(pool))]
			events = append(events, AccessEvent{
				Day:        day,
				Time:       sampleDiurnalTime(rng),
				EmployeeID: p.employee,
				PatientID:  p.patient,
			})
		}
	}

	slices.SortFunc(events, func(a, b AccessEvent) int {
		return cmp.Or(cmp.Compare(a.Time, b.Time), cmp.Compare(a.EmployeeID, b.EmployeeID), cmp.Compare(a.PatientID, b.PatientID))
	})
	return events
}
