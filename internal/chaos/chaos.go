// Package chaos is the deterministic fault-injection engine behind the
// failure-lifecycle experiments: it turns a seed and a set of
// per-component-class failure rates into a concrete, time-ordered
// schedule of component faults — laser death, MZI stuck-state,
// waveguide-segment loss degradation, inter-wafer fiber cuts, and
// whole-chip failures.
//
// The engine owns no hardware state and applies nothing itself; it only
// produces the Fault vocabulary that the higher layers (wafer health,
// route invalidation, the core recovery loop) consume. Each component
// class draws from its own rng.Split stream, so adding faults of one
// class never perturbs the arrival times of another and every schedule
// is bit-for-bit reproducible from the seed — the same property
// lightpath-vet's determinism analyzer enforces statically.
package chaos

import (
	"fmt"
	"sort"

	"lightpath/internal/rng"
	"lightpath/internal/unit"
)

// Class is a category of hardware fault, one per physical component
// type the simulator models.
type Class int

// Fault classes, ordered roughly by blast radius.
const (
	// LaserDeath kills one of a tile's wavelength lasers; circuits
	// terminating there may no longer fit their width.
	LaserDeath Class = iota
	// MZIStuck freezes one of a tile's 1x3 switches in its current
	// state: established circuits keep working, but the switch can no
	// longer be reprogrammed for new paths.
	MZIStuck
	// WaveguideLoss degrades one tile position of a bus lane by an
	// extra insertion loss (contamination, delamination); circuits
	// crossing it may fall out of their optical budget.
	WaveguideLoss
	// FiberCut severs one inter-wafer trunk row — the bundle of
	// fibers attached to that tile row.
	FiberCut
	// ChipFailure kills an accelerator chip outright; collectives it
	// participates in must be repaired around it.
	ChipFailure
)

// classNames indexes Class values to their stream labels and display
// names.
var classNames = [...]string{
	LaserDeath:    "laser",
	MZIStuck:      "mzi",
	WaveguideLoss: "waveguide",
	FiberCut:      "fiber",
	ChipFailure:   "chip",
}

// NumClasses is the number of fault classes.
const NumClasses = len(classNames)

// String names the class.
func (c Class) String() string {
	if c >= 0 && int(c) < len(classNames) {
		return classNames[c]
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// Fault is one scheduled component failure. Which identity fields are
// meaningful depends on Class:
//
//   - LaserDeath, MZIStuck, ChipFailure: Chip (and, for MZIStuck,
//     Switch).
//   - WaveguideLoss: Wafer, Horizontal, Lane, Pos, ExtraLossDB.
//   - FiberCut: Trunk, Row.
type Fault struct {
	// Time is the simulated instant the component fails.
	Time unit.Seconds
	// Class is the component category.
	Class Class
	// Chip identifies the victim chip (equivalently, its tile).
	Chip int
	// Switch is the tile switch index for MZIStuck.
	Switch int
	// Wafer, Horizontal, Lane and Pos identify a bus-lane segment for
	// WaveguideLoss: one tile position of one lane, on horizontal or
	// vertical buses.
	Wafer      int
	Horizontal bool
	Lane, Pos  int
	// ExtraLossDB is the insertion loss the degraded segment adds.
	ExtraLossDB float64
	// Trunk and Row identify the severed fiber bundle for FiberCut.
	Trunk, Row int
}

// String renders the fault for logs and experiment output.
func (f Fault) String() string {
	switch f.Class {
	case LaserDeath:
		return fmt.Sprintf("t=%v laser death at chip %d", f.Time, f.Chip)
	case MZIStuck:
		return fmt.Sprintf("t=%v MZI switch %d stuck at chip %d", f.Time, f.Switch, f.Chip)
	case WaveguideLoss:
		o := "V"
		if f.Horizontal {
			o = "H"
		}
		return fmt.Sprintf("t=%v waveguide +%.2fdB at wafer %d %s lane %d pos %d",
			f.Time, f.ExtraLossDB, f.Wafer, o, f.Lane, f.Pos)
	case FiberCut:
		return fmt.Sprintf("t=%v fiber cut at trunk %d row %d", f.Time, f.Trunk, f.Row)
	case ChipFailure:
		return fmt.Sprintf("t=%v chip %d failed", f.Time, f.Chip)
	}
	return fmt.Sprintf("t=%v unknown fault class %d", f.Time, int(f.Class))
}

// Components describes the population the engine samples victims from;
// it mirrors the rack geometry without importing internal/wafer (chaos
// sits below the hardware layers so any of them can consume it).
type Components struct {
	// Chips is the number of accelerator chips (= tiles) in the rack.
	Chips int
	// SwitchesPerTile is the number of MZI switches per tile.
	SwitchesPerTile int
	// Wafers, Rows and Cols give the wafer count and per-wafer tile
	// grid, identifying bus-lane segments.
	Wafers, Rows, Cols int
	// Trunks is the number of inter-wafer fiber trunks.
	Trunks int
}

// Validate checks that every population the enabled rates sample from
// is non-empty.
func (c Components) Validate() error {
	if c.Chips <= 0 {
		return fmt.Errorf("chaos: no chips to fail")
	}
	if c.SwitchesPerTile <= 0 {
		return fmt.Errorf("chaos: no switches per tile")
	}
	if c.Wafers <= 0 || c.Rows <= 0 || c.Cols <= 0 {
		return fmt.Errorf("chaos: bad wafer geometry %dx(%dx%d)", c.Wafers, c.Rows, c.Cols)
	}
	if c.Trunks < 0 {
		return fmt.Errorf("chaos: negative trunk count")
	}
	return nil
}

// Rates configures the engine: the mean time between faults of each
// class across the whole rack (not per component). A zero mean
// disables the class.
type Rates struct {
	// MTBF[c] is class c's rack-wide mean time between faults.
	MTBF [NumClasses]unit.Seconds
	// WaveguideLossDB bounds the extra insertion loss a degraded
	// segment draws, uniform in (0, WaveguideLossDB]. Zero means the
	// default of 3 dB.
	WaveguideLossDB float64
}

// DefaultWaveguideLossDB is the worst-case extra insertion loss a
// degraded waveguide segment adds — enough to matter against the
// link budget's ~3 dB engineering margin.
const DefaultWaveguideLossDB = 3.0

// Engine generates deterministic fault schedules.
type Engine struct {
	comps Components
	rates Rates
	root  *rng.Rand
}

// NewEngine builds an engine whose schedules are a pure function of
// the seed, the component population, and the rates.
func NewEngine(seed uint64, comps Components, rates Rates) (*Engine, error) {
	if err := comps.Validate(); err != nil {
		return nil, err
	}
	for c, m := range rates.MTBF {
		if m < 0 {
			return nil, fmt.Errorf("chaos: negative MTBF for class %v", Class(c))
		}
	}
	if rates.WaveguideLossDB == 0 {
		rates.WaveguideLossDB = DefaultWaveguideLossDB
	}
	if rates.WaveguideLossDB < 0 {
		return nil, fmt.Errorf("chaos: negative waveguide loss bound")
	}
	return &Engine{comps: comps, rates: rates, root: rng.New(seed)}, nil
}

// Schedule generates every fault up to the horizon, sorted by time.
// Each class owns an independent split stream: arrivals are Poisson
// (exponential inter-arrival at the class MTBF) and the victim
// component is drawn uniformly. Ties in time are broken by class and
// then by component identity, so the order is total and reproducible.
func (e *Engine) Schedule(horizon unit.Seconds) []Fault {
	var faults []Fault
	for c := 0; c < NumClasses; c++ {
		class := Class(c)
		mean := e.rates.MTBF[c]
		if mean <= 0 {
			continue
		}
		// Splitting from the (never-advanced) root keeps every class
		// stream independent of how many faults other classes drew.
		r := e.root.Split("chaos/" + classNames[c])
		t := unit.Seconds(0)
		for {
			t += unit.Seconds(r.Exp(float64(mean)))
			if t > horizon {
				break
			}
			faults = append(faults, e.draw(class, t, r))
		}
	}
	sort.Slice(faults, func(i, j int) bool { return faultLess(faults[i], faults[j]) })
	return faults
}

// draw samples the victim component for one fault of the class.
func (e *Engine) draw(class Class, t unit.Seconds, r *rng.Rand) Fault {
	f := Fault{Time: t, Class: class}
	switch class {
	case LaserDeath, ChipFailure:
		f.Chip = r.Intn(e.comps.Chips)
	case MZIStuck:
		f.Chip = r.Intn(e.comps.Chips)
		f.Switch = r.Intn(e.comps.SwitchesPerTile)
	case WaveguideLoss:
		f.Wafer = r.Intn(e.comps.Wafers)
		f.Horizontal = r.Intn(2) == 0
		if f.Horizontal {
			f.Lane = r.Intn(e.comps.Rows)
			f.Pos = r.Intn(e.comps.Cols)
		} else {
			f.Lane = r.Intn(e.comps.Cols)
			f.Pos = r.Intn(e.comps.Rows)
		}
		f.ExtraLossDB = r.Float64() * e.rates.WaveguideLossDB
	case FiberCut:
		if e.comps.Trunks > 0 {
			f.Trunk = r.Intn(e.comps.Trunks)
		}
		f.Row = r.Intn(e.comps.Rows)
	}
	return f
}

// faultLess is the total order Schedule sorts by: time, then class,
// then every identity field. Nothing is left to sort.Slice tie
// instability, so equal-seed runs produce identical schedules.
func faultLess(a, b Fault) bool {
	if a.Time < b.Time {
		return true
	}
	if b.Time < a.Time {
		return false
	}
	if a.Class != b.Class {
		return a.Class < b.Class
	}
	ka := [7]int{a.Chip, a.Switch, a.Wafer, boolInt(a.Horizontal), a.Lane, a.Pos, a.Trunk*1000 + a.Row}
	kb := [7]int{b.Chip, b.Switch, b.Wafer, boolInt(b.Horizontal), b.Lane, b.Pos, b.Trunk*1000 + b.Row}
	for i := range ka {
		if ka[i] != kb[i] {
			return ka[i] < kb[i]
		}
	}
	return a.ExtraLossDB < b.ExtraLossDB
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
