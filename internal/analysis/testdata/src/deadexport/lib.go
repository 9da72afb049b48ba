package deadexport

import (
	"fmt"
	"sort"
)

// UsedElsewhere is called from another package.
func UsedElsewhere() int { return 1 }

// OnlyTests is called from lib_test.go alone, which the loader never
// reads.
func OnlyTests() int { return 2 } // want `exported func OnlyTests has no use outside tests`

// Unused has no use at all.
func Unused() {} // want `exported func Unused has no use`

// Recurse calls only itself, which is no use.
func Recurse(n int) int { // want `exported func Recurse has no use`
	if n == 0 {
		return 0
	}
	return Recurse(n - 1)
}

// Max is used only through an instantiation.
func Max[T int | float64](a, b T) T {
	if a > b {
		return a
	}
	return b
}

// ForHarness is used only by a package made of _test.go files.
func ForHarness() int { return 3 }

// Limit is an unused var.
var Limit = 4 // want `exported var Limit has no use`

// Cap is an unused const outside an iota block.
const Cap = 5 // want `exported const Cap has no use`

// Color numbers its values with iota; none is used, and deleting one
// would renumber the rest.
type Color int

// The colors.
const (
	Red Color = iota
	Green
	Blue
)

// Named is used from another package.
type Named struct{ n int }

// String implements fmt.Stringer.
func (v Named) String() string { return fmt.Sprint(v.n) }

// Error implements error.
func (v *Named) Error() string { return "named" }

// Orphan implements no interface and has no caller.
func (v Named) Orphan() {} // want `exported method Orphan has no use`

// Wrapped carries a cause.
type Wrapped struct{ cause error }

// Error implements error.
func (w Wrapped) Error() string { return "wrapped: " + w.cause.Error() }

// Unwrap is looked up by errors.Is and errors.As.
func (w Wrapped) Unwrap() error { return w.cause }

// Wrap is used from another package.
func Wrap(err error) error { return Wrapped{err} }

// Lengths sorts strings by length.
type Lengths []string

// Len implements sort.Interface.
func (l Lengths) Len() int { return len(l) }

// Less implements sort.Interface.
func (l Lengths) Less(i, j int) bool { return len(l[i]) < len(l[j]) }

// Swap implements sort.Interface.
func (l Lengths) Swap(i, j int) { l[i], l[j] = l[j], l[i] }

// Sorted sorts a copy of s by length.
func Sorted(s []string) []string {
	out := append(Lengths(nil), s...)
	sort.Sort(out)
	return out
}

// Ghost is named only by its own methods' receivers.
type Ghost struct{} // want `exported type Ghost has no use`

// Haunt has no caller.
func (Ghost) Haunt() {} // want `exported method Haunt has no use`

// helper is unexported, so the analyzer ignores it.
func helper() {}
