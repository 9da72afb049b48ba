// Package harness is made only of _test.go files: a separate program
// whose uses count, and which no analyzer reports on.
package harness

import (
	"testing"

	"lightpath/internal/analysis/testdata/src/deadexport"
)

// Unreported is never flagged: the package is TestOnly.
func Unreported() {}

func TestHarness(t *testing.T) {
	if deadexport.ForHarness() != 3 {
		t.Fatal("ForHarness")
	}
}
