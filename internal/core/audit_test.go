package core

import (
	"fmt"
	"os"
	"testing"

	"lightpath/internal/invariant"
)

// TestMain raises the process-wide audit mode to Paranoid, so every
// fabric any test here builds carries an auditor that re-checks the
// full invariant registry after each circuit mutation — recovery
// loops, MoE churn, chaos trials, all of it. The process-wide tally is
// asserted empty at exit.
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
