// Chaos: the failure lifecycle end to end. A deterministic fault
// engine (internal/chaos) schedules component failures from a seed;
// this walkthrough takes one of its chip deaths, injects it into the
// middle of a running AllReduce on the Figure 6a rack, and drives the
// full recovery: detect the dead chip, tear down its circuits, splice
// a spare in over fresh optical circuits, restore the last
// step-boundary checkpoint, and replay the interrupted step. The
// collective still computes the exact answer, the repair lands at the
// MZI settling time, and only the 16-chip victim slice ever stalls —
// the electrical alternative stalls all 64.
//
// Run with:
//
//	go run ./examples/chaos
package main

import (
	"fmt"
	"log"

	"lightpath"
	"lightpath/internal/alloc"
	"lightpath/internal/chaos"
	"lightpath/internal/unit"
)

func main() {
	// The Figure 6a rack: Slice-3 (a 4x4 plane, 16 chips) is the
	// victim tenant; eight chips are free spares.
	sc, err := alloc.Fig6a()
	if err != nil {
		log.Fatal(err)
	}
	chips := sc.Alloc.Slices()[1].Chips(sc.Torus)

	// The fault engine draws Poisson arrivals per component class from
	// split seeded streams — same seed, same faults, bit for bit.
	eng, err := chaos.NewEngine(2024, chaos.Components{
		Chips: len(chips), SwitchesPerTile: 4, Wafers: 2,
		Rows: 8, Cols: 8, Trunks: 2,
	}, chaos.Rates{MTBF: chipMTBF(10 * unit.Millisecond)})
	if err != nil {
		log.Fatal(err)
	}
	faults := eng.Schedule(1.0)
	fault := faults[0]
	fmt.Printf("engine scheduled %d faults over 1s; first: %v\n", len(faults), fault)

	// Replay that arrival as a mid-collective failure: the victim dies
	// halfway through a schedule step's data phase.
	fabric, err := lightpath.New(lightpath.Options{RackShape: sc.Torus.Shape(), Seed: 2024})
	if err != nil {
		log.Fatal(err)
	}
	out, err := fabric.RunAllReduceUnderFault(sc.Alloc, 1, 4*lightpath.MB, chips[fault.Chip], 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(out)

	if !out.Correct {
		log.Fatal("the recovered collective produced a wrong result")
	}
	fmt.Printf("\nrepair %v vs analytic bound %v (within 2x: %v)\n",
		out.RepairTime, out.RepairBound, out.RepairTime <= 2*out.RepairBound)
	fmt.Printf("blast radius: %d chips stalled optically vs %d electrically\n",
		out.StallOptical, out.StallElectrical)
}

// chipMTBF builds a rate table where only whole-chip failures arrive.
func chipMTBF(mtbf unit.Seconds) [chaos.NumClasses]unit.Seconds {
	var rates [chaos.NumClasses]unit.Seconds
	rates[chaos.ChipFailure] = mtbf
	return rates
}
