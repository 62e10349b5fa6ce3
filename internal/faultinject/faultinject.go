// Package faultinject provides deterministic, seeded fault injection for the
// SAG decision pipeline. It is compiled unconditionally — no build tags — so
// the chaos tests exercise exactly the binaries that ship; the zero value
// (and a nil *Point) injects nothing and costs one predictable branch.
//
// A Point is one injection site. Each call through a Point rolls against the
// configured fault rates using a private seeded RNG, so a given (seed, call
// sequence) reproduces the same fault schedule on every run — chaos tests
// are replayable, not flaky. Wrap the engine's dependencies with Estimator
// and SSESolve to inject estimator failures, solver errors, solver latency
// (which only makes a decision slow — nothing on the decision path times
// out except the caller's own context), and solver panics.
package faultinject

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// ErrInjected is the sentinel wrapped by every injected error, so tests can
// distinguish injected failures from organic ones with errors.Is.
var ErrInjected = errors.New("faultinject: injected fault")

// Fault enumerates the failure modes a Point can fire.
type Fault int

const (
	// FaultError makes the wrapped call return an injected error.
	FaultError Fault = iota
	// FaultLatency delays the wrapped call by Config.Latency. Where the
	// call site has a context the delay observes its cancellation, so a
	// long injected latency ends with the caller rather than hanging a test.
	FaultLatency
	// FaultPanic makes the wrapped call panic with a *PanicValue.
	FaultPanic
	numFaults
)

// String returns the fault's name.
func (f Fault) String() string {
	switch f {
	case FaultError:
		return "error"
	case FaultLatency:
		return "latency"
	case FaultPanic:
		return "panic"
	default:
		return fmt.Sprintf("Fault(%d)", int(f))
	}
}

// PanicValue is the value injected panics carry, so recovery layers can
// attribute a contained panic to the injector.
type PanicValue struct{ Site string }

func (p *PanicValue) String() string {
	return "faultinject: injected panic at " + p.Site
}

// Config sets a Point's fault schedule. Rates are independent probabilities
// in [0, 1] rolled per call, in the order latency → panic → error (a single
// call can therefore be both slow and failing).
type Config struct {
	// Seed drives the Point's private RNG; runs with equal seeds and equal
	// call sequences inject identical fault schedules.
	Seed int64
	// ErrorRate is the per-call probability of an injected error.
	ErrorRate float64
	// LatencyRate is the per-call probability of an injected delay of
	// Latency.
	LatencyRate float64
	// Latency is the injected delay duration (zero disables even when
	// LatencyRate fires).
	Latency time.Duration
	// PanicRate is the per-call probability of an injected panic.
	PanicRate float64
}

// Point is one injection site. All methods are safe for concurrent use and
// inert on a nil receiver.
type Point struct {
	name string
	cfg  Config

	mu     sync.Mutex
	rng    *rand.Rand
	counts [numFaults]uint64
	calls  uint64
}

// New returns a Point named for its site (the name appears in injected
// errors and panics).
func New(name string, cfg Config) *Point {
	return &Point{name: name, cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Counts reports how many times each fault has fired, plus the total number
// of calls that passed through the point.
func (p *Point) Counts() (perFault map[Fault]uint64, calls uint64) {
	if p == nil {
		return map[Fault]uint64{}, 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	m := make(map[Fault]uint64, numFaults)
	for f := Fault(0); f < numFaults; f++ {
		m[f] = p.counts[f]
	}
	return m, p.calls
}

// roll decides this call's faults under the mutex, then releases it before
// any sleeping or panicking, so concurrent callers and Counts never block on
// an injected delay.
func (p *Point) roll() (delay time.Duration, doPanic bool, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.calls++
	if p.cfg.LatencyRate > 0 && p.cfg.Latency > 0 && p.rng.Float64() < p.cfg.LatencyRate {
		p.counts[FaultLatency]++
		delay = p.cfg.Latency
	}
	if p.cfg.PanicRate > 0 && p.rng.Float64() < p.cfg.PanicRate {
		p.counts[FaultPanic]++
		doPanic = true
	}
	if p.cfg.ErrorRate > 0 && p.rng.Float64() < p.cfg.ErrorRate {
		p.counts[FaultError]++
		err = fmt.Errorf("faultinject: %s: %w", p.name, ErrInjected)
	}
	return delay, doPanic, err
}

// fire applies one rolled schedule: sleep (bounded by done when non-nil),
// then panic, then error. A nil *Point fires nothing.
func (p *Point) fire(done <-chan struct{}) error {
	if p == nil {
		return nil
	}
	delay, doPanic, err := p.roll()
	if delay > 0 {
		if done == nil {
			time.Sleep(delay)
		} else {
			t := time.NewTimer(delay)
			select {
			case <-t.C:
			case <-done:
				t.Stop()
			}
		}
	}
	if doPanic {
		panic(&PanicValue{Site: p.name})
	}
	return err
}

// Fire triggers the point once with no cancellation: sleep any injected
// latency, then panic or return the injected error per the seeded schedule.
// It is the seam for call sites that are not wrapped behind an interface —
// e.g. the server's journal-append path — and is a no-op on a nil *Point.
func (p *Point) Fire() error { return p.fire(nil) }
