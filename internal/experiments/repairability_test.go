package experiments

import (
	"strings"
	"testing"
)

// TestRepairabilityPinned holds Repairability to values computed before
// the scenario scan was split from the repair fan-out: the same
// scenarios must be kept, in the same order, with the same outcomes.
func TestRepairabilityPinned(t *testing.T) {
	cases := []struct {
		seed   uint64
		trials int
		want   RepairabilityResult
		// render is String() with the fixed header line dropped.
		render string
	}{
		{21, 40, RepairabilityResult{Trials: 40, ElectricalOK: 39, OpticalOK: 40, MeanCongestion: 1},
			"40 random rack/failure scenarios\n" +
				"  congestion-free electrical repair: 39/40 (98%)\n" +
				"  optical circuit repair:            40/40 (100%)\n" +
				"  mean congestion of best electrical plan when congestion-free fails: 1.0 units\n"},
		{33, 15, RepairabilityResult{Trials: 15, ElectricalOK: 14, OpticalOK: 15, MeanCongestion: 1},
			"15 random rack/failure scenarios\n" +
				"  congestion-free electrical repair: 14/15 (93%)\n" +
				"  optical circuit repair:            15/15 (100%)\n" +
				"  mean congestion of best electrical plan when congestion-free fails: 1.0 units\n"},
		{2024, 60, RepairabilityResult{Trials: 60, ElectricalOK: 54, OpticalOK: 60, MeanCongestion: 1.1666666666666667},
			"60 random rack/failure scenarios\n" +
				"  congestion-free electrical repair: 54/60 (90%)\n" +
				"  optical circuit repair:            60/60 (100%)\n" +
				"  mean congestion of best electrical plan when congestion-free fails: 1.2 units\n"},
		{1, 10, RepairabilityResult{Trials: 10, ElectricalOK: 10, OpticalOK: 10, MeanCongestion: 0},
			"10 random rack/failure scenarios\n" +
				"  congestion-free electrical repair: 10/10 (100%)\n" +
				"  optical circuit repair:            10/10 (100%)\n" +
				"  mean congestion of best electrical plan when congestion-free fails: 0.0 units\n"},
		{7, 25, RepairabilityResult{Trials: 25, ElectricalOK: 21, OpticalOK: 25, MeanCongestion: 1.75},
			"25 random rack/failure scenarios\n" +
				"  congestion-free electrical repair: 21/25 (84%)\n" +
				"  optical circuit repair:            25/25 (100%)\n" +
				"  mean congestion of best electrical plan when congestion-free fails: 1.8 units\n"},
		{0, 40, RepairabilityResult{Trials: 40, ElectricalOK: 36, OpticalOK: 40, MeanCongestion: 1.25},
			"40 random rack/failure scenarios\n" +
				"  congestion-free electrical repair: 36/40 (90%)\n" +
				"  optical circuit repair:            40/40 (100%)\n" +
				"  mean congestion of best electrical plan when congestion-free fails: 1.2 units\n"},
		{5, 5, RepairabilityResult{Trials: 5, ElectricalOK: 5, OpticalOK: 5, MeanCongestion: 0},
			"5 random rack/failure scenarios\n" +
				"  congestion-free electrical repair: 5/5 (100%)\n" +
				"  optical circuit repair:            5/5 (100%)\n" +
				"  mean congestion of best electrical plan when congestion-free fails: 0.0 units\n"},
		// The one usable scenario is the last of the four draws the
		// budget allows.
		{2234, 1, RepairabilityResult{Trials: 1, ElectricalOK: 1, OpticalOK: 1, MeanCongestion: 0},
			"1 random rack/failure scenarios\n" +
				"  congestion-free electrical repair: 1/1 (100%)\n" +
				"  optical circuit repair:            1/1 (100%)\n" +
				"  mean congestion of best electrical plan when congestion-free fails: 0.0 units\n"},
	}
	const header = "Repairability sweep: "
	for _, c := range cases {
		got, err := Repairability(c.seed, c.trials)
		if err != nil {
			t.Fatalf("(%d, %d): %v", c.seed, c.trials, err)
		}
		if got != c.want {
			t.Errorf("(%d, %d) = %#v, want %#v", c.seed, c.trials, got, c.want)
		}
		if s := got.String(); s != header+c.render {
			t.Errorf("(%d, %d) renders\n%s\nwant\n%s", c.seed, c.trials, s, header+c.render)
		}
	}
}

// TestRepairabilityNoUsableScenario pins a seed whose first four draws
// (the whole 4x budget for one trial) are all unusable: the sweep
// reports it as an error rather than a zero-trial result.
func TestRepairabilityNoUsableScenario(t *testing.T) {
	got, err := Repairability(25334, 1)
	if err == nil || !strings.Contains(err.Error(), "no valid trials") {
		t.Fatalf("err = %v, want the no-valid-trials error", err)
	}
	if got != (RepairabilityResult{}) {
		t.Fatalf("result = %#v, want zero", got)
	}
}
