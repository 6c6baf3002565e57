// Package runner is the concurrent experiment executor: a bounded worker
// pool that fans a batch of independent jobs out across GOMAXPROCS
// goroutines while keeping results position-stable and bit-deterministic.
//
// The determinism contract is structural, not locked-in: job i writes only
// results[i] (disjoint slice slots, no shared mutable state between
// workers), and every job derives all of its randomness from its own index
// — callers seed job i with sim.Stream(seed, i) or an equivalent
// index-pure derivation. Under that contract the output of Map is
// byte-identical whatever the worker count, interleaving, or scheduling
// order, which is what lets the paper-matrix golden tests compare a
// parallel sweep against a serial one cell by cell.
//
// Cancellation flows through context.Context: the first job error (or a
// caller cancellation) stops the pool from dispatching further jobs and is
// propagated to jobs already running via the derived context. A panicking
// job cancels the pool the same way and the panic is re-raised on the
// caller's goroutine once the pool has drained.
package runner

import (
	"context"
	"fmt"
	"runtime"
	"sync"
)

// Options tunes a Map call. The zero value is ready to use.
type Options struct {
	// Workers caps pool size; ≤0 means GOMAXPROCS. Workers == 1 is the
	// serial baseline the determinism tests compare against.
	Workers int

	// OnDone, when non-nil, observes progress: it is called once per
	// finished job with the job's index and the running completion count.
	// Calls are serialized by the pool (never concurrent) but arrive in
	// completion order, not index order.
	OnDone func(index, done, total int)
}

// PoolSize resolves the effective pool size for n jobs: Workers, or
// GOMAXPROCS when Workers ≤ 0, capped at n and at least 1.
func (o Options) PoolSize(n int) int {
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Map runs fn(ctx, i) for every i in [0,n), at most Options.Workers at a
// time, and returns the results indexed by i. The returned slice always
// has length n; slots of jobs that never ran (pool stopped early) hold the
// zero value of T.
//
// The first non-nil error cancels the pool's context — running jobs see
// the cancellation, queued jobs are not started — and is returned after
// all workers exit. A cancelled caller context returns ctx.Err(). Panics
// in fn are re-raised on the caller's goroutine after the pool drains.
func Map[T any](parent context.Context, n int, opt Options, fn func(ctx context.Context, index int) (T, error)) ([]T, error) {
	results := make([]T, n)
	if n == 0 {
		return results, parent.Err()
	}

	ctx, cancel := context.WithCancel(parent)
	defer cancel()

	var (
		mu       sync.Mutex // guards firstErr, panicVal, done, OnDone calls
		firstErr error
		panicVal any
		panicked bool
		done     int
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		cancel()
	}

	indices := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < opt.PoolSize(n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range indices {
				func() {
					defer func() {
						if p := recover(); p != nil {
							mu.Lock()
							if !panicked {
								panicked, panicVal = true, p
							}
							mu.Unlock()
							cancel()
						}
					}()
					v, err := fn(ctx, i)
					if err != nil {
						// No package prefix: the wrapper surfaces through
						// public callers (lbica.RunAll) that cannot name
						// this internal package.
						fail(fmt.Errorf("job %d: %w", i, err))
						return
					}
					results[i] = v
					if opt.OnDone != nil {
						mu.Lock()
						// Deferred so a panicking callback releases the
						// lock on unwind instead of deadlocking the pool.
						defer mu.Unlock()
						done++
						opt.OnDone(i, done, n)
					}
				}()
			}
		}()
	}

dispatch:
	for i := 0; i < n; i++ {
		// Checked before the blocking send: when cancellation and a ready
		// worker race, the two-case select below picks arbitrarily and
		// could keep dispatching doomed jobs.
		select {
		case <-ctx.Done():
			break dispatch
		default:
		}
		select {
		case indices <- i:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(indices)
	wg.Wait()

	if panicked {
		panic(panicVal)
	}
	// Caller cancellation wins over whichever in-flight job happened to
	// observe it first: the error is then the deterministic ctx.Err(), not
	// a scheduling-dependent "job N" wrapper.
	if err := parent.Err(); err != nil {
		return results, err
	}
	if firstErr != nil {
		return results, firstErr
	}
	return results, nil
}
