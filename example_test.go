package lightpath_test

import (
	"fmt"

	"lightpath"
)

// The godoc examples below are executed by go test; their outputs are
// asserted, so they double as integration checks of the public API.

// ExampleNew shows the default fabric: a TPUv4-style rack of 64
// accelerators on two 32-tile LIGHTPATH wafers.
func ExampleNew() {
	fabric, err := lightpath.New(lightpath.Options{Seed: 1})
	if err != nil {
		panic(err)
	}
	fmt.Println(fabric.Torus().Size(), "accelerators on", fabric.Hardware().NumWafers(), "wafers")
	// Output: 64 accelerators on 2 wafers
}

// ExampleFabric_PlanAllReduce reproduces the Table 1 headline through
// the public API: Slice-1's collective runs ~3x faster photonically.
func ExampleFabric_PlanAllReduce() {
	fabric, _ := lightpath.New(lightpath.Options{Seed: 1})
	_, alloc, _ := lightpath.Fig5bAllocation()
	plan, err := fabric.PlanAllReduce(alloc, 0, 256*lightpath.MB)
	if err != nil {
		panic(err)
	}
	fmt.Printf("%s: %.1fx optical speedup\n", plan.Algorithm, plan.Speedup())
	// Output: snake-ring: 3.0x optical speedup
}

// ExampleUtilizationReport prints the paper's Figure 5c numbers.
func ExampleUtilizationReport() {
	_, alloc, _ := lightpath.Fig5bAllocation()
	for _, u := range lightpath.UtilizationReport(alloc) {
		fmt.Printf("%s %.2f %.2f\n", u.Slice, u.Electrical, u.Optical)
	}
	// Output:
	// Slice-1 0.33 1.00
	// Slice-2 0.33 1.00
	// Slice-3 0.67 1.00
	// Slice-4 0.67 1.00
}

// ExampleBlastRadius prints the §4.2 fault-policy comparison.
func ExampleBlastRadius() {
	stats := lightpath.BlastRadius()
	fmt.Printf("electrical %.0f chips, optical %.0f chips (%.0fx)\n",
		stats.ElectricalMean, stats.OpticalMean, stats.Ratio)
	// Output: electrical 64 chips, optical 4 chips (16x)
}

// ExampleFabric_Circuits establishes a circuit and shows its
// microsecond-scale readiness.
func ExampleFabric_Circuits() {
	fabric, _ := lightpath.New(lightpath.Options{Seed: 1})
	c, err := fabric.Circuits().Establish(lightpath.CircuitRequest{A: 0, B: 9, Width: 1}, 0)
	if err != nil {
		panic(err)
	}
	fmt.Println("ready at", c.ReadyAt())
	// Output: ready at 3.70us
}
