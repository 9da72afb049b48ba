package route

import (
	"testing"

	"lightpath/internal/rng"
	"lightpath/internal/unit"
	"lightpath/internal/wafer"
)

// BenchmarkEstablish measures the hot path of circuit setup: one
// cross-wafer establish/release cycle on a warm allocator. The
// acceptance bar for the scratch-buffer work is allocs/op — the plan
// search and loss evaluation must not allocate per call once the
// allocator's scratch tables have grown. The paper metric is the
// first established link's total optical loss, a seed-deterministic
// check that the fast path still computes the same physics. It is
// captured from the warmup call on fresh allocator state: each
// establish/release cycle advances the allocator's RNG, so the loss
// seen inside the measured loop would depend on the iteration count.
func BenchmarkEstablish(b *testing.B) {
	rack, err := wafer.NewRack(wafer.DefaultConfig(), 2)
	if err != nil {
		b.Fatal(err)
	}
	a := NewAllocator(rack, rng.New(7))
	req := Request{A: 0, B: 40, Width: 1}
	// Warm the scratch tables so steady-state allocations are measured.
	c, err := a.Establish(req, 0)
	if err != nil {
		b.Fatal(err)
	}
	loss := float64(c.Link.TotalLossDB)
	a.Release(c)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := a.Establish(req, unit.Seconds(0))
		if err != nil {
			b.Fatal(err)
		}
		a.Release(c)
	}
	b.ReportMetric(loss, "loss_db")
}

// BenchmarkEstablishNoFiber measures the failure path: a cross-wafer
// establish on a rack whose every trunk row is full. Every plan is
// turned down on its fibers before its steps are built, and the only
// allocation is the returned error. The paper metric is the number of
// candidate plans each call turns down.
func BenchmarkEstablishNoFiber(b *testing.B) {
	rack, err := wafer.NewRack(wafer.DefaultConfig(), 2)
	if err != nil {
		b.Fatal(err)
	}
	fillFiberRows(b, rack, rack.Config().Rows)
	a := NewAllocator(rack, rng.New(7))
	req := Request{A: 0, B: 40, Width: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Establish(req, 0); err == nil {
			b.Fatal("established a circuit across full fiber rows")
		}
	}
	b.ReportMetric(float64(len(planKeys(a, req))), "plans")
}

// BenchmarkEstablishDegradedNoFiber measures the degradation ladder's
// failure path: a width-2 EstablishDegraded between the chips
// BenchmarkEstablishNoFiber uses, on a rack whose every trunk row is
// full. A narrower circuit needs the same fibers, so the ladder stops
// after the first failure. The paper metric is the number of
// Establish calls each ladder makes, counted through the audit hook.
func BenchmarkEstablishDegradedNoFiber(b *testing.B) {
	rack, err := wafer.NewRack(wafer.DefaultConfig(), 2)
	if err != nil {
		b.Fatal(err)
	}
	fillFiberRows(b, rack, rack.Config().Rows)
	a := NewAllocator(rack, rng.New(7))
	calls := 0
	a.SetAuditHook(func(op string) {
		if op == "establish" {
			calls++
		}
	})
	req := Request{A: 0, B: 40, Width: 2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := a.EstablishDegraded(req, 0); err == nil {
			b.Fatal("established a circuit across full fiber rows")
		}
	}
	b.ReportMetric(float64(calls)/float64(b.N), "establish_calls")
}
