// The repaired forms: every iteration path observes cancellation. This
// file must stay silent.
package ctxcancel

import "context"

func process(int) {}

// Canonical: every iteration selects over the cancel arm.
func selectLoop(ctx context.Context, jobs chan int) {
	go func(c context.Context) {
		for {
			select {
			case <-c.Done():
				return
			case j := <-jobs:
				process(j)
			}
		}
	}(ctx)
}

// A nonblocking poll of the stop channel on every iteration also counts.
func polled(stop chan struct{}, in chan int) {
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			process(<-in)
		}
	}()
}

// Conditioned loops terminate by their own test and are exempt.
func conditioned(ctx context.Context, n int, done chan struct{}) {
	go func(c context.Context) {
		defer close(done)
		for i := 0; i < n; i++ {
			process(i)
		}
	}(ctx)
}

// Range over the work channel: the producer closes it on cancel.
func rangeDrain(ctx context.Context, jobs chan int) {
	go func(c context.Context) {
		for j := range jobs {
			process(j)
		}
	}(ctx)
}

// Observation through a same-package helper is resolved by summary.
func viaHelper(ctx context.Context, in chan int) {
	go func() {
		for {
			if stopRequested(ctx) {
				return
			}
			process(<-in)
		}
	}()
}

func stopRequested(ctx context.Context) bool {
	return ctx.Err() != nil
}

// A reviewed exception: the spin is bounded by the work predicate.
func tightPoll(ctx context.Context, done chan struct{}) {
	go func(c context.Context) {
		defer close(done)
		//logicreg:allow ctxcancel bounded spin, work drains in a handful of iterations
		for {
			if work() {
				return
			}
		}
	}(ctx)
}

func work() bool { return true }
