// Package engine is the deterministic parallel campaign runner: Map
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
//  3. Merging is ordered: Map returns results in trial-index order, so
//     non-associative reductions (float sums, formatted output) fold
//     exactly as the sequential loop folded them.
//
// Under that contract Map is a drop-in replacement for a sequential
// for-loop: same results, same errors, only the wall-clock changes. A
// campaign whose trial count depends on the data ("keep drawing random
// scenarios until N are usable") picks its inputs first, in a
// sequential scan, and maps over only the ones it keeps.
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
	// Workers take indices from an atomic counter until none remain.
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(Workers(), n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				results[i], errs[i] = trial(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}
