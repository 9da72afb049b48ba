package invariant_test

import (
	"testing"

	"lightpath/internal/chaos"
	"lightpath/internal/invariant"
	"lightpath/internal/rng"
	"lightpath/internal/route"
	"lightpath/internal/unit"
	"lightpath/internal/wafer"
)

// campaignState builds the controller campaign's fabric: two default
// wafers filled with width-2 circuits between seeded random chips until
// establishes start failing, then a few waveguide faults mild enough to
// break no circuit, so an audit walks a full live population and a
// populated loss grid.
func campaignState(tb testing.TB) *route.Allocator {
	tb.Helper()
	rack, err := wafer.NewRack(wafer.DefaultConfig(), 2)
	if err != nil {
		tb.Fatal(err)
	}
	a := route.NewAllocator(rack, rng.New(7).Split("loss"))
	r := rng.New(1)
	for i := 0; i < 1000; i++ {
		req := route.Request{A: r.Intn(rack.NumChips()), B: r.Intn(rack.NumChips()), Width: 2}
		if req.A != req.B {
			_, _ = a.Establish(req, unit.Seconds(i)*unit.Microsecond)
		}
	}
	cfg := rack.Config()
	for i := 0; i < 10; i++ {
		f := chaos.Fault{Class: chaos.WaveguideLoss, Wafer: r.Intn(2), Horizontal: r.Intn(2) == 0, ExtraLossDB: 0.01}
		f.Lane, f.Pos = r.Intn(cfg.Rows), r.Intn(cfg.Rows)
		if _, err := a.ApplyFault(f); err != nil {
			tb.Fatal(err)
		}
	}
	if a.NumCircuits() < 100 {
		tb.Fatalf("campaign state holds only %d circuits", a.NumCircuits())
	}
	return a
}

// TestWarmAuditAllocatesNothing: once an auditor's scratch has grown, a
// clean pass over a full fabric allocates nothing, and neither do a
// warm Sampled auditor's audits, deltas and full passes alike: releasing
// and re-establishing circuits through the hook allocates only the
// granted circuits.
func TestWarmAuditAllocatesNothing(t *testing.T) {
	aud := invariant.Attach(campaignState(t), invariant.Off)
	if vs := aud.Audit("warm"); len(vs) != 0 {
		t.Fatalf("campaign state is not clean: %v", vs)
	}
	if allocs := testing.AllocsPerRun(20, func() { aud.Audit("bench") }); allocs != 0 {
		t.Fatalf("warm audit allocates %v times per pass, want 0", allocs)
	}

	a := campaignState(t)
	sampled := invariant.AttachCounting(a, invariant.Sampled)
	live := a.Circuits()
	next := 0
	// One cycle is DefaultStride mutations, so one sampled audit.
	cycle := func() {
		for k := 0; k < invariant.DefaultStride/2; k++ {
			c := live[next%len(live)]
			a.Release(c)
			nc, err := a.Establish(route.Request{A: c.A, B: c.B, Width: c.Width}, 0)
			if err != nil {
				t.Fatal(err)
			}
			live[next%len(live)] = nc
			next++
		}
	}
	for i := 0; i < 32; i++ {
		cycle()
	}
	audits, full := sampled.Audits(), sampled.FullPasses()
	if allocs := testing.AllocsPerRun(32, cycle); allocs != invariant.DefaultStride/2 {
		t.Fatalf("a cycle of %d re-establishes allocates %v times, want one per granted circuit", invariant.DefaultStride/2, allocs)
	}
	deltas := sampled.Audits() - audits - (sampled.FullPasses() - full)
	if sampled.Count() != 0 || deltas < 16 {
		t.Fatalf("%d violations, %d delta audits over the measured cycles (want 0 and at least 16)", sampled.Count(), deltas)
	}
}

// BenchmarkAudit measures the invariant auditor on the campaign state.
// "full" is one registry pass on a warm auditor (0 allocs/op).
// "sampled" and "paranoid" measure the auditor as the allocator's
// hook: one op is a release and a re-establish of the same circuit
// (two mutations), with an audit every DefaultStride-th mutation (most
// of them delta audits) or a full pass after every one. The paper
// metric is the live circuit count a full pass walks.
func BenchmarkAudit(b *testing.B) {
	for _, mode := range []invariant.Mode{invariant.Off, invariant.Sampled, invariant.Paranoid} {
		name := mode.String()
		if mode == invariant.Off {
			name = "full"
		}
		b.Run(name, func(b *testing.B) {
			a := campaignState(b)
			aud := invariant.Attach(a, mode)
			if vs := aud.Audit("warm"); len(vs) != 0 {
				b.Fatalf("campaign state is not clean: %v", vs)
			}
			live := a.Circuits()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if mode == invariant.Off {
					aud.Audit("bench")
					continue
				}
				j := i % len(live)
				c := live[j]
				a.Release(c)
				nc, err := a.Establish(route.Request{A: c.A, B: c.B, Width: c.Width}, 0)
				if err != nil {
					b.Fatal(err)
				}
				live[j] = nc
			}
			b.StopTimer()
			if aud.Count() != 0 {
				b.Fatalf("%d violations", aud.Count())
			}
			b.ReportMetric(float64(len(live)), "circuits")
		})
	}
}
