package wafer

import (
	"testing"

	"lightpath/internal/rng"
)

// BenchmarkSpanSevered times one severance query, cycling over every
// span of every lane: on a fault-free wafer (no loss grid yet) and on
// one carrying ten seeded degraded positions. The paper metric is the
// share of those spans the faults sever.
func BenchmarkSpanSevered(b *testing.B) {
	cfg := DefaultConfig()
	type query struct {
		o    Orient
		lane int
		span Interval
	}
	var qs []query
	for _, o := range []Orient{Horizontal, Vertical} {
		lanes, positions := cfg.Rows, cfg.Cols
		if o == Vertical {
			lanes, positions = cfg.Cols, cfg.Rows
		}
		for lane := 0; lane < lanes; lane++ {
			for lo := 0; lo < positions; lo++ {
				for hi := lo; hi < positions; hi++ {
					qs = append(qs, query{o, lane, Interval{Lo: lo, Hi: hi}})
				}
			}
		}
	}
	for _, faults := range []int{0, 10} {
		name := "healthy"
		if faults > 0 {
			name = "degraded"
		}
		b.Run(name, func(b *testing.B) {
			w, err := New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			r := rng.New(1)
			for i := 0; i < faults; i++ {
				if err := w.DegradeSegment(Horizontal, r.Intn(cfg.Rows), r.Intn(cfg.Cols), 2+r.Float64()*20); err != nil {
					b.Fatal(err)
				}
			}
			severed := 0
			for _, q := range qs {
				if w.SpanSevered(q.o, q.lane, q.span) {
					severed++
				}
			}
			sink := false
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := qs[i%len(qs)]
				sink = sink != w.SpanSevered(q.o, q.lane, q.span)
			}
			b.StopTimer()
			if faults == 0 && (severed != 0 || sink) {
				b.Fatal("fault-free wafer reports a severed span")
			}
			b.ReportMetric(float64(severed)/float64(len(qs)), "severed_share")
		})
	}
}
