package benchmark

import (
	"math"
	"sort"
	"time"
)

// quartiles returns the three cut points that split values into four
// groups, computed exactly as Python's statistics.quantiles(values,
// n=4) does with its default "exclusive" method, so a spread this file
// reports matches one recomputed from the printed values. It needs at
// least two values.
func quartiles(values []float64) (q1, q2, q3 float64) {
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	ld := len(data)
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (data[j-1]*float64(4-delta) + data[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// median returns the middle cut point of values (the mean of the two
// middle values for an even count).
func median(values []float64) float64 {
	if len(values) == 1 {
		return values[0]
	}
	_, q2, _ := quartiles(values)
	return q2
}

// fastQuartile reduces repeated timings of identical work to one: the
// upper quartile when higher is better, the lower quartile when lower
// is better. Passes of the same work within a second or so differ only
// by interference, which only ever slows a pass. The traced run uses it
// for its replay passes and tail figures; run-level figures are
// calibrated instead (canary_test.go), because the machine's speed also
// drifts over minutes, which no statistic over one run's rounds removes.
func fastQuartile(rounds []float64, higherIsBetter bool) float64 {
	if len(rounds) == 1 {
		return rounds[0]
	}
	q1, _, q3 := quartiles(rounds)
	if higherIsBetter {
		return q3
	}
	return q1
}

// percentile returns the p-quantile (0..1) of sorted by the
// nearest-rank rule.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	return sorted[rank]
}

// micros converts a duration to fractional microseconds.
func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
