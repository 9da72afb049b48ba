package main

import (
	"os"
	"testing"

	"lightpath/internal/invariant"
)

// TestMain runs every subcommand test with the invariant auditor in
// Paranoid mode: each fabric the campaigns build audits the full
// registry after every circuit mutation, and a campaign that corrupts
// real state fails through the ErrViolated its run returns. Under
// -race the full-scale campaign replays drop to Sampled so the
// package fits the race detector's time budget (internal/experiments
// audits the same campaign code in Paranoid mode either way).
func TestMain(m *testing.M) {
	mode := invariant.Paranoid
	if raceEnabled {
		mode = invariant.Sampled
	}
	invariant.SetDefaultMode(mode)
	os.Exit(m.Run())
}
