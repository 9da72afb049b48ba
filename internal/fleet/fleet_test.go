package fleet

import (
	"reflect"
	"testing"

	"lightpath/internal/chaos"
	"lightpath/internal/invariant"
	"lightpath/internal/unit"
)

// TestSoakDeterministic runs the same config twice and demands
// identical outcomes down to every time-series row — the property the
// campaign's byte-identical CSV guarantee rests on.
func TestSoakDeterministic(t *testing.T) {
	cfg := Config{Seed: 2024, Audit: invariant.Paranoid}
	a, err := RunCheckpointed(cfg, CheckpointOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCheckpointed(cfg, CheckpointOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different outcomes:\n%+v\n%+v", a, b)
	}
	if a.Audits == 0 {
		t.Fatal("paranoid soak ran zero audits")
	}
}

// TestSoakSeedsDiffer guards against the degenerate determinism of a
// simulator that ignores its seed.
func TestSoakSeedsDiffer(t *testing.T) {
	a, err := RunCheckpointed(Config{Seed: 1}, CheckpointOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCheckpointed(Config{Seed: 2}, CheckpointOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Samples, b.Samples) {
		t.Fatal("different seeds produced identical time series")
	}
}

// TestSoakThousandFaultsAuditClean is the acceptance soak: over a
// thousand faults with the Paranoid auditor re-checking every
// registered invariant after every mutation, and not one violation.
// The self-healing loop must also have actually exercised itself —
// reroutes, splices, sheds and re-admissions all nonzero.
func TestSoakThousandFaultsAuditClean(t *testing.T) {
	cfg := Config{Seed: 7, Audit: invariant.Paranoid}
	cfg.Horizon = 3 * unit.Day
	for c := 0; c < chaos.NumClasses; c++ {
		cfg.Rates.MTBF[c] = cfg.Horizon / 250
	}
	out, err := RunCheckpointed(cfg, CheckpointOptions{})
	if err != nil {
		t.Fatalf("soak failed: %v", err)
	}
	if out.Violations != 0 {
		t.Fatalf("auditor found %d violations", out.Violations)
	}
	if out.Faults < 1000 {
		t.Fatalf("soak saw only %d faults, want >= 1000", out.Faults)
	}
	if out.Repairs == 0 || out.Reroutes == 0 {
		t.Fatalf("healing loop idle: %d repairs, %d reroutes", out.Repairs, out.Reroutes)
	}
	if out.ShedEvents == 0 || out.Readmissions == 0 {
		t.Fatalf("admission control idle: %d sheds, %d readmissions", out.ShedEvents, out.Readmissions)
	}
	if out.Splices == 0 {
		t.Fatal("no spare chip was ever spliced in despite chip failures")
	}
	if out.MinSpares >= out.Samples[0].Spares+1 {
		t.Fatalf("spare pool never depleted: min %d", out.MinSpares)
	}
	if out.Availability <= 0 || out.Availability > 1 {
		t.Fatalf("availability %v out of range", out.Availability)
	}
	if out.MeanGoodput <= 0 || out.MeanGoodput > 1 {
		t.Fatalf("goodput %v out of range", out.MeanGoodput)
	}
	t.Logf("faults=%d repairs=%d reroutes=%d splices=%d sheds=%d readmits=%d minSpares=%d avail=%.3f goodput=%.3f audits=%d",
		out.Faults, out.Repairs, out.Reroutes, out.Splices, out.ShedEvents,
		out.Readmissions, out.MinSpares, out.Availability, out.MeanGoodput, out.Audits)
}

// TestSoakSampleCadence pins the time-series shape: one row per
// SampleEvery up to the horizon, monotone time and cumulative
// counters.
func TestSoakSampleCadence(t *testing.T) {
	cfg := Config{Seed: 3, Horizon: unit.Day, SampleEvery: unit.Hour}
	out, err := RunCheckpointed(cfg, CheckpointOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Samples) != 24 {
		t.Fatalf("got %d samples, want 24", len(out.Samples))
	}
	jobs := out.Samples[0].Up + out.Samples[0].Shed
	for i, row := range out.Samples {
		if row.T != unit.Seconds(i+1)*unit.Hour {
			t.Fatalf("sample %d at %v", i, row.T)
		}
		if row.Up+row.Shed != jobs {
			t.Fatalf("sample %d job states don't partition the %d jobs", i, jobs)
		}
		if i > 0 && (row.Faults < out.Samples[i-1].Faults || row.Repairs < out.Samples[i-1].Repairs) {
			t.Fatalf("sample %d counters ran backwards", i)
		}
	}
	last := out.Samples[len(out.Samples)-1]
	if last.Faults != out.Faults {
		t.Fatalf("final sample saw %d faults, outcome says %d", last.Faults, out.Faults)
	}
}

// TestSoakConfigValidation exercises the config guard rails.
func TestSoakConfigValidation(t *testing.T) {
	cases := []Config{
		{Wafers: 1},             // sub-rack
		{Jobs: 1000},            // more endpoints than chips
		{Horizon: -unit.Second}, // negative horizon
		{Jobs: -1},              // negative jobs (default skipped: nonzero)
	}
	for i, cfg := range cases {
		if _, err := RunCheckpointed(cfg, CheckpointOptions{}); err == nil {
			t.Errorf("case %d: config %+v accepted", i, cfg)
		}
	}
}
