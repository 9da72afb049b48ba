package experiments

import (
	"fmt"
	"os"
	"testing"

	"lightpath/internal/invariant"
)

// TestMain turns the invariant auditor to Paranoid for every fabric
// any test in this package builds: each Establish, Release, ApplyFault
// and EstablishDegraded in every campaign re-checks the full invariant
// registry against the live hardware. If any trial anywhere corrupted
// the shared optical state, the process-wide tally catches it here
// even when the owning test's assertions would not.
func TestMain(m *testing.M) {
	invariant.SetDefaultMode(invariant.Paranoid)
	code := m.Run()
	if n := invariant.GlobalCount(); n > 0 && code == 0 {
		fmt.Fprintf(os.Stderr, "invariant auditor recorded %d violation(s) during the test run; first: %s\n",
			n, invariant.GlobalViolations()[0])
		code = 1
	}
	os.Exit(code)
}
