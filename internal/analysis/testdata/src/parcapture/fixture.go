// Package fixture exercises the parcapture analyzer: trial closures
// handed to engine.Map must not write captured state, while local
// writes, reads of shared inputs, and sequential folds over the
// returned results must pass. Sum reconstructs the historical
// closure-capture bug — a float accumulator mutated inside a Map
// trial — verbatim in shape.
package fixture

import "lightpath/internal/engine"

// Sum is the PR 3 closure-capture race, reconstructed: the campaign
// accumulated into a captured variable from inside the trial body.
func Sum(xs []float64) (float64, error) {
	var sum float64
	var count int
	_, err := engine.Map(len(xs), func(i int) (float64, error) {
		sum += xs[i] // want `trial closure passed to engine.Map writes captured "sum"`
		count++      // want `trial closure passed to engine.Map mutates captured "count" with \+\+`
		return xs[i], nil
	})
	return sum, err
}

// CollectShared appends to a captured slice and writes a captured map
// from inside the trial: both race under the worker pool.
func CollectShared(n int) error {
	var rows []int
	seen := map[int]bool{}
	_, err := engine.Map(n, func(i int) (int, error) {
		rows = append(rows, i) // want `trial closure passed to engine.Map writes captured "rows"`
		seen[i] = true         // want `trial closure passed to engine.Map writes captured "seen"`
		return i, nil
	})
	return err
}

// ChannelFanIn sends trial results on a captured channel: arrival
// order depends on the worker schedule, so the merge is no longer the
// engine's index-ordered one.
func ChannelFanIn(n int) error {
	ch := make(chan int, n)
	_, err := engine.Map(n, func(i int) (int, error) {
		ch <- i // want `trial closure passed to engine.Map sends on captured channel "ch"`
		return i, nil
	})
	close(ch)
	return err
}

// CountAttempts tallies attempts in a captured counter from inside
// the trial; the running total folded after Map returns is sequential
// and stays legal.
func CountAttempts(n int) (int, error) {
	attempts := 0
	squares, err := engine.Map(n, func(i int) (int, error) {
		attempts++ // want `trial closure passed to engine.Map mutates captured "attempts" with \+\+`
		return i * i, nil
	})
	total := 0
	for _, r := range squares {
		total += r // sequential fold after the fan-out: allowed
	}
	return total, err
}

// NamedTrial resolves a trial bound to a local variable before the
// Map call: the write through the captured pointer target is caught.
func NamedTrial(n int) error {
	hits := make([]int, n)
	trial := func(i int) (int, error) {
		hits[0] = i // want `trial closure passed to engine.Map writes captured "hits"`
		return i, nil
	}
	_, err := engine.Map(n, trial)
	return err
}

// DeleteCaptured clears captured containers from inside the trial.
func DeleteCaptured(n int, m map[int]string) error {
	_, err := engine.Map(n, func(i int) (int, error) {
		delete(m, i) // want `trial closure passed to engine.Map calls delete on captured "m"`
		return i, nil
	})
	return err
}

// CleanTrial is the sanctioned shape: per-trial locals, reads of
// shared read-only inputs, results merged by the engine.
func CleanTrial(xs []float64) (float64, error) {
	scale := 2.0 // captured, but only read
	outs, err := engine.Map(len(xs), func(i int) (float64, error) {
		acc := 0.0 // trial-local accumulator: allowed
		for j := 0; j <= i; j++ {
			acc += xs[j] * scale
		}
		return acc, nil
	})
	if err != nil {
		return 0, err
	}
	var sum float64
	for _, o := range outs { // sequential merge after the fan-out
		sum += o
	}
	return sum, nil
}
