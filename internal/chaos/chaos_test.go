package chaos

import (
	"reflect"
	"slices"
	"testing"

	"lightpath/internal/unit"
)

func testComponents() Components {
	return Components{Chips: 64, SwitchesPerTile: 2, Wafers: 2, Rows: 8, Cols: 8, Trunks: 2}
}

func allClassRates() Rates {
	var r Rates
	for c := 0; c < NumClasses; c++ {
		r.MTBF[c] = 50 * unit.Millisecond
	}
	return r
}

func TestScheduleDeterministic(t *testing.T) {
	mk := func() []Fault {
		e, err := NewEngine(7, testComponents(), allClassRates())
		if err != nil {
			t.Fatal(err)
		}
		return e.Schedule(1.0)
	}
	a, b := mk(), mk()
	if len(a) == 0 {
		t.Fatal("no faults scheduled")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different schedules")
	}
}

func TestScheduleSortedAndInHorizon(t *testing.T) {
	e, err := NewEngine(3, testComponents(), allClassRates())
	if err != nil {
		t.Fatal(err)
	}
	const horizon = 0.5
	faults := e.Schedule(horizon)
	if !slices.IsSortedFunc(faults, faultCmp) {
		t.Fatal("schedule not sorted")
	}
	for _, f := range faults {
		if f.Time <= 0 || f.Time > horizon {
			t.Fatalf("fault time %v outside (0, %v]", f.Time, unit.Seconds(horizon))
		}
	}
}

// Disabling one class must not perturb another class's arrivals: each
// class draws from its own split stream.
func TestClassStreamsIndependent(t *testing.T) {
	full, err := NewEngine(11, testComponents(), allClassRates())
	if err != nil {
		t.Fatal(err)
	}
	chipRates := Rates{}
	chipRates.MTBF[ChipFailure] = 50 * unit.Millisecond
	only, err := NewEngine(11, testComponents(), chipRates)
	if err != nil {
		t.Fatal(err)
	}
	var fromFull []Fault
	for _, f := range full.Schedule(1.0) {
		if f.Class == ChipFailure {
			fromFull = append(fromFull, f)
		}
	}
	fromOnly := only.Schedule(1.0)
	if !reflect.DeepEqual(fromFull, fromOnly) {
		t.Fatalf("chip-failure stream changed when other classes were enabled:\n%v\nvs\n%v", fromFull, fromOnly)
	}
}

func TestDrawStaysInPopulation(t *testing.T) {
	comps := testComponents()
	e, err := NewEngine(5, comps, allClassRates())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range e.Schedule(2.0) {
		switch f.Class {
		case LaserDeath, ChipFailure:
			if f.Chip < 0 || f.Chip >= comps.Chips {
				t.Fatalf("%v: chip out of range", f)
			}
		case MZIStuck:
			if f.Switch < 0 || f.Switch >= comps.SwitchesPerTile {
				t.Fatalf("%v: switch out of range", f)
			}
		case WaveguideLoss:
			if f.Wafer < 0 || f.Wafer >= comps.Wafers {
				t.Fatalf("%v: wafer out of range", f)
			}
			if f.ExtraLossDB <= 0 || f.ExtraLossDB > DefaultWaveguideLossDB {
				t.Fatalf("%v: loss out of range", f)
			}
			lanes, positions := comps.Cols, comps.Rows
			if f.Horizontal {
				lanes, positions = comps.Rows, comps.Cols
			}
			if f.Lane < 0 || f.Lane >= lanes || f.Pos < 0 || f.Pos >= positions {
				t.Fatalf("%v: segment out of range", f)
			}
		case FiberCut:
			if f.Trunk < 0 || f.Trunk >= comps.Trunks || f.Row < 0 || f.Row >= comps.Rows {
				t.Fatalf("%v: trunk/row out of range", f)
			}
		}
	}
}

func TestZeroRateDisablesClass(t *testing.T) {
	rates := allClassRates()
	rates.MTBF[FiberCut] = 0
	e, err := NewEngine(9, testComponents(), rates)
	if err != nil {
		t.Fatal(err)
	}
	counts := CountByClass(e.Schedule(1.0))
	if counts[FiberCut] != 0 {
		t.Fatalf("disabled class scheduled %d faults", counts[FiberCut])
	}
	if counts[ChipFailure] == 0 {
		t.Fatal("enabled class scheduled nothing over 20 mean intervals")
	}
}

func TestNewEngineRejectsBadInputs(t *testing.T) {
	if _, err := NewEngine(1, Components{}, Rates{}); err == nil {
		t.Fatal("empty components accepted")
	}
	bad := allClassRates()
	bad.MTBF[0] = -1
	if _, err := NewEngine(1, testComponents(), bad); err == nil {
		t.Fatal("negative MTBF accepted")
	}
	if _, err := NewEngine(1, testComponents(), Rates{WaveguideLossDB: -1}); err == nil {
		t.Fatal("negative loss bound accepted")
	}
}

// CountByClass tallies a schedule per class, for experiment summaries.
func CountByClass(faults []Fault) [NumClasses]int {
	var out [NumClasses]int
	for _, f := range faults {
		if f.Class >= 0 && int(f.Class) < NumClasses {
			out[f.Class]++
		}
	}
	return out
}
