// Package unit provides the physical quantities used throughout the
// LIGHTPATH simulator: data sizes, bit rates, optical power in dB and
// linear scale, and simulated time.
//
// Simulated time is represented as float64 seconds rather than
// time.Duration: collective-communication timescales span nine orders of
// magnitude (nanosecond alpha overheads to multi-second transfers of
// multi-gigabyte buffers) and the cost model divides and scales times in
// ways that are awkward with integer nanoseconds.
package unit

import (
	"fmt"
	"math"
)

// Bytes is a data size in bytes.
type Bytes float64

// Common data sizes.
const (
	KB Bytes = 1e3
	MB Bytes = 1e6
	GB Bytes = 1e9
	TB Bytes = 1e12

	KiB Bytes = 1 << 10
	MiB Bytes = 1 << 20
)

// Bits returns the size in bits.
func (b Bytes) Bits() float64 { return float64(b) * 8 }

// String formats the size with a binary-agnostic decimal suffix.
func (b Bytes) String() string {
	switch {
	case math.Abs(float64(b)) >= float64(TB):
		return fmt.Sprintf("%.2fTB", float64(b/TB))
	case math.Abs(float64(b)) >= float64(GB):
		return fmt.Sprintf("%.2fGB", float64(b/GB))
	case math.Abs(float64(b)) >= float64(MB):
		return fmt.Sprintf("%.2fMB", float64(b/MB))
	case math.Abs(float64(b)) >= float64(KB):
		return fmt.Sprintf("%.2fKB", float64(b/KB))
	default:
		return fmt.Sprintf("%.0fB", float64(b))
	}
}

// BitRate is a data rate in bits per second.
type BitRate float64

// Common data rates.
const (
	Kbps BitRate = 1e3
	Mbps BitRate = 1e6
	Gbps BitRate = 1e9
	Tbps BitRate = 1e12
)

// GBps constructs a BitRate from gigabytes per second, the unit in which
// the paper quotes accelerator interconnect bandwidth (e.g. "over 300
// gigabytes per second in one direction").
func GBps(gb float64) BitRate { return BitRate(gb * 8e9) }

// BytesPerSecond returns the rate expressed in bytes per second.
func (r BitRate) BytesPerSecond() float64 { return float64(r) / 8 }

// TimeFor returns the seconds needed to transmit size at this rate.
// TimeFor of a zero or negative rate returns +Inf for a positive size
// (the transfer never completes) and 0 for a zero size.
func (r BitRate) TimeFor(size Bytes) Seconds {
	if size <= 0 {
		return 0
	}
	if r <= 0 {
		return Seconds(math.Inf(1))
	}
	return Seconds(size.Bits() / float64(r))
}

// String formats the rate with an SI suffix.
func (r BitRate) String() string {
	switch {
	case math.Abs(float64(r)) >= float64(Tbps):
		return fmt.Sprintf("%.2fTbps", float64(r/Tbps))
	case math.Abs(float64(r)) >= float64(Gbps):
		return fmt.Sprintf("%.2fGbps", float64(r/Gbps))
	case math.Abs(float64(r)) >= float64(Mbps):
		return fmt.Sprintf("%.2fMbps", float64(r/Mbps))
	case math.Abs(float64(r)) >= float64(Kbps):
		return fmt.Sprintf("%.2fKbps", float64(r/Kbps))
	default:
		return fmt.Sprintf("%.0fbps", float64(r))
	}
}

// Seconds is a simulated duration or timestamp in seconds.
type Seconds float64

// Common durations.
const (
	Nanosecond  Seconds = 1e-9
	Microsecond Seconds = 1e-6
	Millisecond Seconds = 1e-3
	Second      Seconds = 1
	Minute      Seconds = 60
	Hour        Seconds = 3600
	Day         Seconds = 86400
)

// Micros returns the duration in microseconds.
func (s Seconds) Micros() float64 { return float64(s) * 1e6 }

// PerByte amortizes the duration over each byte of a size-b unit of
// work, returning seconds per byte. It is the named, dimensionally
// explicit form of the raw division s/b that the unitsafety analyzer
// would otherwise flag as unit mixing.
func (s Seconds) PerByte(b Bytes) float64 { return float64(s) / float64(b) }

// String formats the duration with the most natural SI prefix.
func (s Seconds) String() string {
	abs := math.Abs(float64(s))
	switch {
	case abs == 0:
		return "0s"
	case abs < float64(Microsecond):
		return fmt.Sprintf("%.1fns", float64(s)*1e9)
	case abs < float64(Millisecond):
		return fmt.Sprintf("%.2fus", float64(s)*1e6)
	case abs < float64(Second):
		return fmt.Sprintf("%.2fms", float64(s)*1e3)
	default:
		return fmt.Sprintf("%.3fs", float64(s))
	}
}

// Decibel is a power ratio in dB. Optical losses are positive dB values.
type Decibel float64

// DBm is an absolute optical power referenced to 1 mW.
type DBm float64

// Milliwatts returns the absolute power in mW.
func (p DBm) Milliwatts() float64 { return math.Pow(10, float64(p)/10) }

// Sub applies a loss in dB to an absolute power: p - loss.
func (p DBm) Sub(loss Decibel) DBm { return p - DBm(loss) }

// Tolerances for ApproxEqual: two quantities are approximately equal
// when they differ by at most relTol of the larger magnitude, or by at
// most absTol near zero (where the relative test degenerates).
const (
	relTol = 1e-9
	absTol = 1e-12
)

// ApproxEqual reports whether two float-backed quantities agree to
// within a relative tolerance of 1e-9 (absolute 1e-12 near zero).
// Simulation results are sums and products of floats whose rounding
// depends on evaluation order, so exact ==/!= on computed quantities
// is almost always a bug; the unitsafety analyzer flags such
// comparisons and points here.
func ApproxEqual[T ~float64](a, b T) bool {
	x, y := float64(a), float64(b)
	if x == y {
		return true // also covers shared infinities and exact zeros
	}
	if math.IsInf(x, 0) || math.IsInf(y, 0) || math.IsNaN(x) || math.IsNaN(y) {
		// Mismatched infinities and NaNs are never approximately equal;
		// without this guard the relative test below would accept
		// +Inf vs -Inf because Inf <= relTol*Inf.
		return false
	}
	diff := math.Abs(x - y)
	if diff <= absTol {
		return true
	}
	return diff <= relTol*math.Max(math.Abs(x), math.Abs(y))
}

// Meters is a physical length.
type Meters float64

// Common lengths used by the wafer geometry.
const (
	Micrometer Meters = 1e-6
	Millimeter Meters = 1e-3
	Centimeter Meters = 1e-2
)
