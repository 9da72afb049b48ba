package cost

import (
	"math"
	"testing"

	"lightpath/internal/collective"
	"lightpath/internal/phy"
	"lightpath/internal/torus"
	"lightpath/internal/unit"
)

func params() Params { return DefaultParams() }

func rack() *torus.Torus { return torus.New(torus.Shape{4, 4, 4}) }

func sliceByName(name string) *torus.Slice {
	switch name {
	case "Slice-1":
		return &torus.Slice{Name: name, Origin: torus.Coord{0, 0, 3}, Shape: torus.Shape{4, 2, 1}}
	case "Slice-3":
		return &torus.Slice{Name: name, Origin: torus.Coord{0, 0, 2}, Shape: torus.Shape{4, 4, 1}}
	}
	panic("unknown slice " + name)
}

func TestDefaultParams(t *testing.T) {
	p := DefaultParams()
	if p.ChipBandwidth != unit.GBps(300) {
		t.Fatalf("B = %v, want 300 GB/s", p.ChipBandwidth)
	}
	if p.PhysDims != 3 {
		t.Fatalf("PhysDims = %d", p.PhysDims)
	}
	if p.Reconfig != phy.ReconfigLatency {
		t.Fatalf("r = %v, want %v", p.Reconfig, phy.ReconfigLatency)
	}
}

func TestParamValidation(t *testing.T) {
	s := &collective.Schedule{N: 8, ElemBytes: 4}
	if _, err := (Params{ChipBandwidth: 0, PhysDims: 3}).Electrical(s); err == nil {
		t.Error("zero bandwidth accepted")
	}
	if _, err := (Params{ChipBandwidth: 1, PhysDims: 0}).Electrical(s); err == nil {
		t.Error("zero dims accepted")
	}
	if _, err := params().Optical(s, 0); err == nil {
		t.Error("zero active dims accepted")
	}
}

// TestTable1 reproduces the paper's Table 1 exactly: Slice-1's
// ReduceScatter costs 7 alpha on both interconnects (plus one r
// optically), and electrical beta is 3x the optical beta.
func TestTable1(t *testing.T) {
	tor := rack()
	s := sliceByName("Slice-1")
	n := 1 << 20 // 1M elements
	tbl, err := MakeTable1(params(), tor, s, n, 4)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.ElecAlphaSteps != 7 || tbl.OptAlphaSteps != 7 {
		t.Fatalf("alpha steps = %d/%d, want 7/7", tbl.ElecAlphaSteps, tbl.OptAlphaSteps)
	}
	if tbl.OptReconfigs != 1 {
		t.Fatalf("optical reconfigs = %d, want 1", tbl.OptReconfigs)
	}
	if math.Abs(tbl.BetaRatio-3.0) > 1e-9 {
		t.Fatalf("beta ratio = %v, want exactly 3", tbl.BetaRatio)
	}
	// Closed form check: beta_opt = (7/8) * N / B.
	N := unit.Bytes(n) * 4
	wantOpt := params().ChipBandwidth.TimeFor(N * 7 / 8)
	if math.Abs(float64(tbl.OptBeta-wantOpt)/float64(wantOpt)) > 1e-9 {
		t.Fatalf("optical beta = %v, want %v", tbl.OptBeta, wantOpt)
	}
}

// TestTable2 reproduces the paper's Table 2: Slice-3's two-stage
// bucket ReduceScatter with 3 alpha per stage (+ r optically), stage
// buffers N then N/4, and electrical beta 1.5x the optical beta.
func TestTable2(t *testing.T) {
	tor := rack()
	s := sliceByName("Slice-3")
	n := 1 << 20
	tbl, err := MakeTable2(params(), tor, s, []int{0, 1}, n, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Stages) != 2 {
		t.Fatalf("stages = %d, want 2", len(tbl.Stages))
	}
	N := unit.Bytes(n) * 4
	for i, st := range tbl.Stages {
		if st.AlphaSteps != 3 {
			t.Errorf("stage %d alpha steps = %d, want 3", i, st.AlphaSteps)
		}
		if st.Reconfigs != 1 {
			t.Errorf("stage %d reconfigs = %d, want 1", i, st.Reconfigs)
		}
		if math.Abs(st.BetaRatio()-1.5) > 1e-9 {
			t.Errorf("stage %d beta ratio = %v, want 1.5", i, st.BetaRatio())
		}
	}
	if tbl.Stages[0].BufferBytes != N {
		t.Errorf("stage 1 buffer = %v, want %v", tbl.Stages[0].BufferBytes, N)
	}
	if tbl.Stages[1].BufferBytes != N/4 {
		t.Errorf("stage 2 buffer = %v, want %v", tbl.Stages[1].BufferBytes, N/4)
	}
	// Closed form: stage 1 optical beta = (3/4) N / (B/2).
	perRing := params().ChipBandwidth / 2
	want := perRing.TimeFor(N * 3 / 4)
	if math.Abs(float64(tbl.Stages[0].OptBeta-want)/float64(want)) > 1e-9 {
		t.Fatalf("stage 1 optical beta = %v, want %v", tbl.Stages[0].OptBeta, want)
	}
	if math.Abs(float64(tbl.TotalElecBeta()/tbl.TotalOptBeta())-1.5) > 1e-9 {
		t.Fatalf("total ratio = %v", float64(tbl.TotalElecBeta()/tbl.TotalOptBeta()))
	}
}

func TestTableStrings(t *testing.T) {
	tor := rack()
	t1, err := MakeTable1(params(), tor, sliceByName("Slice-1"), 1024, 4)
	if err != nil {
		t.Fatal(err)
	}
	if s := t1.String(); len(s) == 0 {
		t.Fatal("empty Table 1 render")
	}
	t2, err := MakeTable2(params(), tor, sliceByName("Slice-3"), []int{0, 1}, 1024, 4)
	if err != nil {
		t.Fatal(err)
	}
	if s := t2.String(); len(s) == 0 {
		t.Fatal("empty Table 2 render")
	}
}

// TestOpticalMatchesSimultaneousElectrical verifies the paper's §4.1
// equivalence: the beta cost of a single bucket with redirected
// bandwidth equals that of D simultaneous bucket algorithms on the
// electrical torus ("The beta cost of a single torus bucket algorithm
// with redirected bandwidth is the same as executing several torus
// bucket algorithms simultaneously") — but the simultaneous variant
// pays more alpha.
func TestOpticalMatchesSimultaneousElectrical(t *testing.T) {
	tor := torus.New(torus.Shape{4, 4, 4})
	s := &torus.Slice{Name: "cube", Origin: torus.Coord{0, 0, 0}, Shape: torus.Shape{4, 4, 4}}
	n := 3 << 12 // divisible by 3 parts and 4^3 chunks
	p := params()

	single, err := collective.BucketAllReduce("single", tor, s, []int{0, 1, 2}, n, 4, collective.BucketOptions{MarkReconfig: true})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := collective.SimultaneousBucketAllReduce("sim", tor, s, n, 4, collective.BucketOptions{})
	if err != nil {
		t.Fatal(err)
	}
	oc, err := p.OpticalPerPhase(single)
	if err != nil {
		t.Fatal(err)
	}
	ec, err := p.Electrical(sim)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(float64(oc.Beta-ec.Beta)) / float64(ec.Beta); rel > 0.01 {
		t.Fatalf("optical single beta %v != electrical simultaneous beta %v (rel %v)", oc.Beta, ec.Beta, rel)
	}
	if ec.Steps < oc.Steps {
		t.Fatalf("simultaneous should cost at least as many steps: %d vs %d", ec.Steps, oc.Steps)
	}
	// And the simultaneous variant gains nothing even optically: with
	// D concurrent flows per chip, each gets B/D.
	simOpt, err := p.OpticalPerPhase(sim)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(float64(simOpt.Beta-oc.Beta)) / float64(oc.Beta); rel > 0.01 {
		t.Fatalf("simultaneous optical beta %v != single optical beta %v", simOpt.Beta, oc.Beta)
	}
}

func TestCostTotalAndString(t *testing.T) {
	c := Cost{Steps: 2, Reconfigs: 1, Alpha: 2, Beta: 5, ReconfigTime: 3}
	if c.Total() != 10 {
		t.Fatalf("total = %v", c.Total())
	}
	if len(c.String()) == 0 {
		t.Fatal("empty string")
	}
}

func TestLowerBounds(t *testing.T) {
	bw := unit.GBps(100)
	n := unit.GB
	rs := RingReduceScatterBetaLowerBound(n, 8, bw)
	want := bw.TimeFor(n * 7 / 8)
	if math.Abs(float64(rs-want)) > 1e-12 {
		t.Fatalf("rs bound = %v, want %v", rs, want)
	}
	if RingReduceScatterBetaLowerBound(n, 1, bw) != 0 {
		t.Fatal("p=1 bound should be 0")
	}
}

// TestScheduleBetaMeetsLowerBound: the generated ring schedules price
// exactly at the beta lower bound (they are bandwidth-optimal).
func TestScheduleBetaMeetsLowerBound(t *testing.T) {
	p := params()
	ring := []int{0, 1, 2, 3, 4, 5, 6, 7}
	n := 1 << 20
	sched, _, err := collective.RingReduceScatter("rs", ring, n, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	oc, err := p.Optical(sched, 1)
	if err != nil {
		t.Fatal(err)
	}
	bound := RingReduceScatterBetaLowerBound(unit.Bytes(n)*4, 8, p.ChipBandwidth)
	if math.Abs(float64(oc.Beta-bound)/float64(bound)) > 1e-9 {
		t.Fatalf("beta = %v, bound = %v", oc.Beta, bound)
	}
}

// TestReconfigChargedOnlyOptically: the same marked schedule priced
// electrically ignores reconfiguration marks.
func TestReconfigChargedOnlyOptically(t *testing.T) {
	tor := rack()
	s := sliceByName("Slice-3")
	sched, err := collective.BucketAllReduce("m", tor, s, []int{0, 1}, 1024, 4, collective.BucketOptions{MarkReconfig: true})
	if err != nil {
		t.Fatal(err)
	}
	p := params()
	ec, _ := p.Electrical(sched)
	if ec.Reconfigs != 0 || ec.ReconfigTime != 0 {
		t.Fatalf("electrical charged reconfigs: %v", ec)
	}
	oc, _ := p.Optical(sched, 2)
	if oc.Reconfigs != 4 || oc.ReconfigTime != 4*p.Reconfig {
		t.Fatalf("optical reconfigs = %v", oc)
	}
}

// TestCrossoverSmallBuffers: for tiny buffers the reconfiguration
// delay r dominates and electrical wins; for large buffers the 3x
// beta advantage dominates and optics wins. This is the paper's §1/§5
// trade-off ("the appropriate trade-off between optical
// reconfiguration delay and end-to-end performance").
func TestCrossoverSmallBuffers(t *testing.T) {
	tor := rack()
	s := sliceByName("Slice-1")
	p := params()
	total := func(n int, optical bool) unit.Seconds {
		opt := collective.BucketOptions{MarkReconfig: optical}
		sched, _, err := collective.SnakeRingReduceScatter("x", tor, s, n, 4, opt)
		if err != nil {
			t.Fatal(err)
		}
		if optical {
			c, _ := p.Optical(sched, 1)
			return c.Total()
		}
		c, _ := p.Electrical(sched)
		return c.Total()
	}
	// 64-byte collective: r (3.7us) >> transfer time; electrical wins.
	if e, o := total(16, false), total(16, true); o <= e {
		t.Fatalf("tiny buffer: optical %v should lose to electrical %v", o, e)
	}
	// 64 MB collective: beta dominates; optics wins by ~3x.
	if e, o := total(1<<24, false), total(1<<24, true); e <= o {
		t.Fatalf("large buffer: electrical %v should lose to optical %v", e, o)
	}
}

// Property: the bucket ReduceScatter's beta on the optical fabric
// equals the closed form sum over dimension stages:
// sum_i (p_i - 1)/p_i * N_i / (B/D), with N_i the stage buffer.
func TestBucketBetaClosedFormProperty(t *testing.T) {
	tor := torus.New(torus.Shape{4, 4, 4})
	p := params()
	cases := []struct {
		shape torus.Shape
		dims  []int
	}{
		{torus.Shape{4, 4, 1}, []int{0, 1}},
		{torus.Shape{4, 4, 4}, []int{0, 1, 2}},
		{torus.Shape{4, 2, 1}, []int{0, 1}},
		{torus.Shape{2, 2, 2}, []int{0, 1, 2}},
	}
	for _, c := range cases {
		s := &torus.Slice{Name: c.shape.String(), Origin: torus.Coord{0, 0, 0}, Shape: c.shape}
		n := 1 << 18
		sched, _, err := collective.BucketReduceScatter("cf", tor, s, c.dims, n, 4, collective.BucketOptions{})
		if err != nil {
			t.Fatalf("%v: %v", c.shape, err)
		}
		activeDims := 0
		for _, e := range c.shape {
			if e >= 2 {
				activeDims++
			}
		}
		oc, err := p.Optical(sched, activeDims)
		if err != nil {
			t.Fatal(err)
		}
		perRing := p.ChipBandwidth / unit.BitRate(activeDims)
		var want unit.Seconds
		stageBytes := unit.Bytes(n) * 4
		for _, d := range c.dims {
			pi := c.shape[d]
			if pi < 2 {
				continue
			}
			want += perRing.TimeFor(stageBytes * unit.Bytes(pi-1) / unit.Bytes(pi))
			stageBytes /= unit.Bytes(pi)
		}
		if rel := math.Abs(float64(oc.Beta-want)) / float64(want); rel > 1e-9 {
			t.Fatalf("%v: beta %v != closed form %v", c.shape, oc.Beta, want)
		}
	}
}

// RingReduceScatterBetaLowerBound returns the beta-cost lower bound of
// a ReduceScatter over p chips of an N-byte buffer at per-flow
// bandwidth bw: (p-1)/p * N / bw (§4.1: "its beta-cost lower bound of
// ~ N*beta").
func RingReduceScatterBetaLowerBound(n unit.Bytes, p int, bw unit.BitRate) unit.Seconds {
	if p < 2 {
		return 0
	}
	return bw.TimeFor(n * unit.Bytes(p-1) / unit.Bytes(p))
}
