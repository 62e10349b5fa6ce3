package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// TestRequestDeadlineContract walks the context wrap installs through the
// ways a request's deadline is met. At every step Err, Done, Deadline and
// context.Cause agree; a Done armed only once the context has ended is
// already closed; and once wrap returns, a timer armed while the handler ran
// has been released.
func TestRequestDeadlineContract(t *testing.T) {
	const short = 20 * time.Millisecond
	rows := []struct {
		name    string
		timeout time.Duration
		// parentTimeout, when set, gives the parent a deadline of its own.
		parentTimeout time.Duration
		// during is what the handler does; cancel ends the parent.
		during func(ctx context.Context, cancel context.CancelFunc)
		armed  bool  // during waits on Done
		ended  error // Err once during returns
		after  error // Err once wrap has returned
	}{
		{
			name:    "never waited on",
			timeout: short,
			during:  func(context.Context, context.CancelFunc) { time.Sleep(short + 5*time.Millisecond) },
			ended:   context.DeadlineExceeded,
			after:   context.DeadlineExceeded,
		},
		{
			name:    "waited on before the deadline",
			timeout: time.Minute,
			during: func(ctx context.Context, _ context.CancelFunc) {
				select {
				case <-ctx.Done():
				case <-time.After(5 * time.Millisecond):
				}
			},
			armed: true,
			after: context.Canceled, // released, not left to run for a minute
		},
		{
			name:    "waited on through the deadline",
			timeout: short,
			during:  func(ctx context.Context, _ context.CancelFunc) { <-ctx.Done() },
			armed:   true,
			ended:   context.DeadlineExceeded,
			after:   context.DeadlineExceeded,
		},
		{
			name:    "parent cancelled",
			timeout: time.Minute,
			during:  func(_ context.Context, cancel context.CancelFunc) { cancel() },
			ended:   context.Canceled,
			after:   context.Canceled,
		},
		{
			name:          "parent's deadline is earlier",
			timeout:       time.Minute,
			parentTimeout: short,
			during: func(ctx context.Context, _ context.CancelFunc) {
				parent := ctx.(*requestDeadline).parent
				<-parent.Done()
			},
			ended: context.DeadlineExceeded,
			after: context.DeadlineExceeded,
		},
		{
			name:    "timeout 0",
			timeout: 0,
			during:  func(context.Context, context.CancelFunc) {},
		},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			parent, cancel := context.WithCancel(context.Background())
			if row.parentTimeout > 0 {
				parent, cancel = context.WithTimeout(context.Background(), row.parentTimeout)
			}
			defer cancel()
			// agree checks one step. Done is asked only where asking cannot
			// change the row: the context has ended, or the row waits anyway.
			agree := func(ctx context.Context, step string, want error, armed bool, lo, hi time.Time) {
				t.Helper()
				if err := ctx.Err(); err != want {
					t.Fatalf("%s: Err = %v, want %v", step, err, want)
				}
				if cause := context.Cause(ctx); cause != want {
					t.Fatalf("%s: Cause = %v, want %v", step, cause, want)
				}
				if want != nil || armed {
					select {
					case <-ctx.Done():
						if want == nil {
							t.Fatalf("%s: Done is closed while Err is nil", step)
						}
					default:
						if want != nil {
							t.Fatalf("%s: Done is open while Err = %v", step, want)
						}
					}
				}
				d, ok := ctx.Deadline()
				if pd, pok := parent.Deadline(); pok && (row.timeout == 0 || pd.Before(lo)) {
					lo, hi = pd, pd
				}
				if ok != (row.timeout > 0 || row.parentTimeout > 0) || ok && (d.Before(lo) || d.After(hi)) {
					t.Fatalf("%s: Deadline = %v %v, want one in [%v, %v]", step, d, ok, lo, hi)
				}
			}
			var (
				seen   context.Context
				lo, hi time.Time
			)
			h := (&Server{}).wrap(nil, row.timeout, func(_ http.ResponseWriter, r *http.Request) {
				hi = time.Now().Add(row.timeout)
				seen = r.Context()
				if row.timeout == 0 && seen != parent {
					t.Fatal("RequestTimeout 0 installed a context")
				}
				agree(seen, "fresh", nil, false, lo, hi)
				row.during(seen, cancel)
				agree(seen, "after the handler's wait", row.ended, row.armed, lo, hi)
				agree(seen, "asked again", row.ended, row.armed, lo, hi)
			})
			lo = time.Now().Add(row.timeout)
			h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/", nil).WithContext(parent))
			agree(seen, "after wrap returned", row.after, row.armed, lo, hi)
		})
	}
}

// TestRequestDeadlineArmsOnce: racing first waiters all get the one armed
// channel, and Err reads it consistently while they race.
func TestRequestDeadlineArmsOnce(t *testing.T) {
	ctx := &requestDeadline{parent: context.Background(), deadline: time.Now().Add(time.Minute)}
	defer ctx.release()
	const racers = 8
	chans := make([]<-chan struct{}, racers)
	var wg sync.WaitGroup
	for i := range chans {
		wg.Add(1)
		go func() {
			defer wg.Done()
			chans[i] = ctx.Done()
			if err := ctx.Err(); err != nil {
				t.Errorf("Err = %v a minute before the deadline", err)
			}
		}()
	}
	wg.Wait()
	for i, ch := range chans {
		if ch != chans[0] {
			t.Fatalf("waiter %d got a different Done channel", i)
		}
	}
}
