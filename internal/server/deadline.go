package server

import (
	"context"
	"sync/atomic"
	"time"
)

// requestDeadline is the request context wrap installs for
// Config.RequestTimeout. Every deadline check on the serving path is Err,
// and Err compares the clock with the deadline, so a request that never
// waits arms no timer. The first Done — the admission queue, a solver that
// blocks — arms context.WithDeadline over the parent; from then on Err and
// Value are that context's, so Done and Err never disagree. release stops
// an armed timer once the handler has returned.
type requestDeadline struct {
	parent   context.Context
	deadline time.Time
	armed    atomic.Pointer[armedDeadline]
}

// armedDeadline is the standard deadline context Done arms, and its cancel.
type armedDeadline struct {
	ctx    context.Context
	cancel context.CancelFunc
}

// Deadline is the earlier of its own and the parent's.
func (c *requestDeadline) Deadline() (time.Time, bool) {
	if d, ok := c.parent.Deadline(); ok && d.Before(c.deadline) {
		return d, true
	}
	return c.deadline, true
}

// Done arms the timer on first use. Racing first calls each build one; the
// loser cancels its own and returns the winner's channel.
func (c *requestDeadline) Done() <-chan struct{} {
	a := c.armed.Load()
	if a == nil {
		ctx, cancel := context.WithDeadline(c.parent, c.deadline)
		a = &armedDeadline{ctx: ctx, cancel: cancel}
		if !c.armed.CompareAndSwap(nil, a) {
			cancel()
			a = c.armed.Load()
		}
	}
	return a.ctx.Done()
}

// Err reports the parent's end first (the client went away), then the
// deadline once the clock has reached it. Reaching it arms Done too — an
// expired context, closed at once and set no timer — so that from then on
// Done, Err and context.Cause all read the one ended context.
func (c *requestDeadline) Err() error {
	if a := c.armed.Load(); a != nil {
		return a.ctx.Err()
	}
	if err := c.parent.Err(); err != nil {
		return err
	}
	if time.Until(c.deadline) > 0 {
		return nil
	}
	c.Done()
	return c.armed.Load().ctx.Err()
}

// Value is the parent's, or the armed context's once there is one.
// context.Cause reads the nearest cancellation cause through Value: the
// parent's while it is unarmed (nil until the client goes away, and Err is
// nil too until the deadline, which arms), the armed context's after.
func (c *requestDeadline) Value(key any) any {
	if a := c.armed.Load(); a != nil {
		return a.ctx.Value(key)
	}
	return c.parent.Value(key)
}

func (c *requestDeadline) release() {
	if a := c.armed.Load(); a != nil {
		a.cancel()
	}
}
