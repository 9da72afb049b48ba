package experiments

import (
	"os"
	"testing"

	"lightpath/internal/invariant"
)

// TestMain turns the invariant auditor to Paranoid for every fabric
// any test in this package builds: each Establish, Release, ApplyFault
// and EstablishDegraded in every campaign re-checks the full invariant
// registry against the live hardware. A trial that corrupts the shared
// optical state fails its campaign through the owner's verdict: the
// core runs, fleet.Run and loadgen.Run each return ErrViolated.
func TestMain(m *testing.M) {
	invariant.SetDefaultMode(invariant.Paranoid)
	os.Exit(m.Run())
}
