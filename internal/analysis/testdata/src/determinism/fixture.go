// Package fixture exercises the determinism analyzer: entropy sources,
// sync.Pool and order-sensitive map iteration must be flagged, while
// sorted or order-insensitive uses must pass.
package fixture

import (
	"fmt"
	"math/rand" // want `import of math/rand is forbidden outside lightpath/internal/rng`
	"os"
	"sort"
	"sync"
	"time"
)

// Use the forbidden import so the fixture still type-checks.
var _ = rand.Int

// scratchPool hands buffers back in whatever order the runtime picks.
var scratchPool = sync.Pool{New: func() any { return new([]int) }} // want `sync.Pool hands buffers back in an order the runtime chooses`

// Borrow names the pool type again: every mention is reported.
func Borrow(p *sync.Pool) any { // want `sync.Pool hands buffers back`
	return p.Get()
}

// Mutex is the rest of package sync, which passes.
var Mutex sync.Mutex

// Now reads the wall clock.
func Now() time.Time {
	return time.Now() // want `time.Now reads the wall clock`
}

// Elapsed reads the wall clock through time.Since.
func Elapsed(t0 time.Time) time.Duration {
	return time.Since(t0) // want `time.Since reads the wall clock`
}

// PrintAll writes key/value pairs in map iteration order.
func PrintAll(m map[string]int) {
	for k, v := range m { // want `map iteration order feeds formatted output`
		fmt.Println(k, v)
	}
}

// Keys returns keys in map iteration order.
func Keys(m map[string]int) []string {
	var out []string
	for k := range m { // want `map iteration order feeds an append whose result is never sorted`
		out = append(out, k)
	}
	return out
}

// SortedKeys collects and then sorts the keys: deterministic.
func SortedKeys(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// byLen orders strings by length for AppendSortedTail.
type byLen []string

func (s byLen) Len() int           { return len(s) }
func (s byLen) Less(i, j int) bool { return len(s[i]) < len(s[j]) }
func (s byLen) Swap(i, j int)      { s[i], s[j] = s[j], s[i] }

// AppendSortedTail appends in map iteration order but sorts the
// appended tail through a typed conversion of a subslice: the slice
// ident is nested inside the sort argument, still deterministic.
func AppendSortedTail(m map[string]int, dst []string) []string {
	start := len(dst)
	for k := range m {
		dst = append(dst, k)
	}
	sort.Sort(byLen(dst[start:]))
	return dst
}

// Sum accumulates floats in map iteration order, so the rounding of
// the total depends on the order.
func Sum(m map[string]float64) float64 {
	var sum float64
	for _, v := range m { // want `map iteration order feeds non-associative float accumulation`
		sum += v
	}
	return sum
}

// Count only counts entries: order-insensitive.
func Count(m map[string]int) int {
	n := 0
	for range m {
		n++
	}
	return n
}

// First returns whichever key the runtime yields first.
func First(m map[string]int) string {
	for k := range m { // want `map iteration order feeds a return value derived from the iteration variable`
		return k
	}
	return ""
}

// Contains is an existence check returning a constant: fine.
func Contains(m map[string]int, v int) bool {
	for _, got := range m {
		if got == v {
			return true
		}
	}
	return false
}

// Feed sends map keys down a channel in iteration order.
func Feed(m map[string]int, ch chan<- string) {
	for k := range m { // want `map iteration order feeds a channel send`
		ch <- k
	}
}

// Invert rebuilds a map keyed the other way: order-free.
func Invert(m map[string]int) map[int]string {
	out := make(map[int]string, len(m))
	for k, v := range m {
		out[v] = k
	}
	return out
}

// EnvOutsideInternal reads the process environment from a package
// outside internal/: the env ban binds only internal packages (a CLI
// front end may translate environment into explicit options), so this
// passes.
func EnvOutsideInternal() string {
	return os.Getenv("LIGHTPATH_SEED")
}
