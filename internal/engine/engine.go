// Package engine is the deterministic parallel campaign runner: it
// fans independent Monte-Carlo trials across a pool of worker
// goroutines while guaranteeing bit-for-bit identical results to a
// sequential run of the same campaign.
//
// The determinism contract has three legs, and every caller must hold
// all of them:
//
//  1. Trials are pure: trial i reads only inputs derived from its
//     index (typically an rng stream split with an index-derived label,
//     e.g. parent.Split("trial-7")) and shared *read-only* state. It
//     never mutates anything another trial can observe.
//  2. Randomness is index-derived: rng.Rand.Split reads the parent
//     stream's state without advancing it, so trial i's stream is the
//     same value whether it is computed first, last, or concurrently.
//  3. Merging is ordered: the engine hands results to the caller in
//     trial-index order, so non-associative reductions (float sums,
//     formatted output, "first N valid trials win" cutoffs) fold
//     exactly as the sequential loop folded them.
//
// Under that contract Map and Stream are drop-in replacements for a
// sequential for-loop: same results, same errors, only the wall-clock
// changes.
package engine

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// workerOverride pins the pool size when positive; zero means
// GOMAXPROCS. Tests use it to force real concurrency on small
// machines (so -race sees the parallel schedule) and to force 1.
var workerOverride atomic.Int64

// SetWorkers overrides the worker-pool size (0 restores the default,
// GOMAXPROCS) and returns the previous override. Results never depend
// on the pool size; only the schedule does. One worker is sequential
// mode (the CLI's -parallel=false): trials run inline, in index order,
// with early exit on error — the reference behavior a larger pool must
// reproduce bit for bit.
func SetWorkers(n int) (prev int) {
	if n < 0 {
		n = 0
	}
	return int(workerOverride.Swap(int64(n)))
}

// Workers returns the worker-pool size campaigns will use.
func Workers() int {
	if n := int(workerOverride.Load()); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Map runs n independent trials and returns their results in index
// order. With more than one worker the trials execute on Workers()
// goroutines; with one they execute inline. Either way the returned
// slice is identical, and on failure the error returned is the
// lowest-index trial's error (exactly what a sequential loop that
// stops at the first error would surface).
func Map[R any](n int, trial func(i int) (R, error)) ([]R, error) {
	if n <= 0 {
		return nil, nil
	}
	results := make([]R, n)
	if Workers() == 1 || n == 1 {
		for i := 0; i < n; i++ {
			r, err := trial(i)
			if err != nil {
				return nil, err
			}
			results[i] = r
		}
		return results, nil
	}
	errs := make([]error, n)
	runPool(0, n, func(i int) {
		results[i], errs[i] = trial(i)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// Stream runs trials 0, 1, 2, ... and feeds each result to consume in
// strict index order until consume returns false, an error occurs, or
// limit trials have run. It exists for campaigns whose trial count is
// data-dependent ("keep drawing random scenarios until N are valid"):
// the consumer applies the acceptance logic sequentially, so the
// accepted set is bit-identical to the sequential loop's, while the
// trial bodies still execute in parallel batches. Wasted work past an
// early stop is bounded by one batch (a few times the worker count).
func Stream[R any](limit int, trial func(i int) (R, error), consume func(i int, r R) (more bool, err error)) error {
	if limit <= 0 {
		return nil
	}
	if Workers() == 1 {
		for i := 0; i < limit; i++ {
			r, err := trial(i)
			if err != nil {
				return err
			}
			more, err := consume(i, r)
			if err != nil {
				return err
			}
			if !more {
				return nil
			}
		}
		return nil
	}
	batch := Workers() * 4
	results := make([]R, batch)
	errs := make([]error, batch)
	for lo := 0; lo < limit; lo += batch {
		hi := lo + batch
		if hi > limit {
			hi = limit
		}
		runPool(lo, hi, func(i int) {
			results[i-lo], errs[i-lo] = trial(i)
		})
		for i := lo; i < hi; i++ {
			if errs[i-lo] != nil {
				return errs[i-lo]
			}
			more, err := consume(i, results[i-lo])
			if err != nil {
				return err
			}
			if !more {
				return nil
			}
		}
	}
	return nil
}

// runPool executes fn(i) for every i in [lo, hi) across Workers()
// goroutines, dispatching indices from an atomic counter, and returns
// when all are done.
func runPool(lo, hi int, fn func(i int)) {
	workers := Workers()
	if span := hi - lo; workers > span {
		workers = span
	}
	var next atomic.Int64
	next.Store(int64(lo))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= hi {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
