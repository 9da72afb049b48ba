package unit

import (
	"math"
	"testing"
	"testing/quick"
)

func TestBytesBits(t *testing.T) {
	if got := Bytes(1).Bits(); got != 8 {
		t.Fatalf("1 byte = %v bits, want 8", got)
	}
	if got := GB.Bits(); got != 8e9 {
		t.Fatalf("1GB = %v bits, want 8e9", got)
	}
}

func TestBytesString(t *testing.T) {
	cases := []struct {
		in   Bytes
		want string
	}{
		{0, "0B"},
		{512, "512B"},
		{2 * KB, "2.00KB"},
		{3 * MB, "3.00MB"},
		{GB, "1.00GB"},
		{1.5 * TB, "1.50TB"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Bytes(%v).String() = %q, want %q", float64(c.in), got, c.want)
		}
	}
}

func TestGBps(t *testing.T) {
	// The paper's "over 300 gigabytes per second in one direction".
	r := GBps(300)
	if r != 2400*Gbps {
		t.Fatalf("GBps(300) = %v, want 2400 Gbps", r)
	}
	if got := r.BytesPerSecond(); got != 300e9 {
		t.Fatalf("BytesPerSecond = %v, want 300e9", got)
	}
}

func TestTimeFor(t *testing.T) {
	r := GBps(1) // 1 GB/s
	if got := r.TimeFor(GB); math.Abs(float64(got)-1) > 1e-12 {
		t.Fatalf("1GB at 1GB/s = %v, want 1s", got)
	}
	if got := r.TimeFor(0); got != 0 {
		t.Fatalf("zero size transfer = %v, want 0", got)
	}
	if got := BitRate(0).TimeFor(GB); !math.IsInf(float64(got), 1) {
		t.Fatalf("transfer at zero rate = %v, want +Inf", got)
	}
	if got := BitRate(0).TimeFor(0); got != 0 {
		t.Fatalf("zero transfer at zero rate = %v, want 0", got)
	}
}

func TestBitRateString(t *testing.T) {
	cases := []struct {
		in   BitRate
		want string
	}{
		{224 * Gbps, "224.00Gbps"},
		{3.584 * Tbps, "3.58Tbps"},
		{500 * Kbps, "500.00Kbps"},
		{12 * Mbps, "12.00Mbps"},
		{42, "42bps"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("BitRate(%v).String() = %q, want %q", float64(c.in), got, c.want)
		}
	}
}

func TestSecondsString(t *testing.T) {
	cases := []struct {
		in   Seconds
		want string
	}{
		{0, "0s"},
		{3.7 * Microsecond, "3.70us"},
		{42 * Nanosecond, "42.0ns"},
		{1.5 * Millisecond, "1.50ms"},
		{2.25, "2.250s"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Seconds(%v).String() = %q, want %q", float64(c.in), got, c.want)
		}
	}
}

func TestDecibelLinearRoundTrip(t *testing.T) {
	f := func(db float64) bool {
		db = math.Mod(db, 60) // keep within a sane dynamic range
		d := Decibel(db)
		back := FromLinear(d.Linear())
		return math.Abs(float64(back)-db) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecibelKnownPoints(t *testing.T) {
	if got := Decibel(3).Linear(); math.Abs(got-1.9952623) > 1e-6 {
		t.Errorf("3 dB linear = %v, want ~1.995", got)
	}
	if got := Decibel(10).Linear(); math.Abs(got-10) > 1e-12 {
		t.Errorf("10 dB linear = %v, want 10", got)
	}
	if got := Decibel(0).Linear(); got != 1 {
		t.Errorf("0 dB linear = %v, want 1", got)
	}
}

func TestDBm(t *testing.T) {
	if got := DBm(0).Milliwatts(); got != 1 {
		t.Fatalf("0 dBm = %v mW, want 1", got)
	}
	if got := DBm(10).Milliwatts(); math.Abs(got-10) > 1e-12 {
		t.Fatalf("10 dBm = %v mW, want 10", got)
	}
	// Launch at 10 dBm, lose 3 dB, expect 7 dBm.
	if got := DBm(10).Sub(3); got != 7 {
		t.Fatalf("10 dBm - 3 dB = %v, want 7 dBm", got)
	}
}

func TestDBmFromMilliwattsRoundTrip(t *testing.T) {
	f := func(mw float64) bool {
		mw = math.Abs(mw)
		if mw < 1e-9 || mw > 1e9 || math.IsNaN(mw) || math.IsInf(mw, 0) {
			return true
		}
		back := DBmFromMilliwatts(mw).Milliwatts()
		return math.Abs(back-mw)/mw < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSecondsMicros(t *testing.T) {
	if got := (3.7 * Microsecond).Micros(); math.Abs(got-3.7) > 1e-12 {
		t.Fatalf("Micros = %v, want 3.7", got)
	}
}

func TestApproxEqual(t *testing.T) {
	cases := []struct {
		name string
		a, b Seconds
		want bool
	}{
		{"identical", 1.5, 1.5, true},
		{"both zero", 0, 0, true},
		{"within relative tolerance", 1, 1 + 1e-12, true},
		{"outside relative tolerance", 1, 1 + 1e-6, false},
		{"near zero within absolute tolerance", 0, 1e-13, true},
		{"near zero outside absolute tolerance", 0, 1e-9, false},
		{"large magnitudes scale the tolerance", 1e12, 1e12 * (1 + 1e-10), true},
		{"sign flip", 1, -1, false},
		{"shared infinity", Seconds(math.Inf(1)), Seconds(math.Inf(1)), true},
		{"opposite infinities", Seconds(math.Inf(1)), Seconds(math.Inf(-1)), false},
		{"nan never equals", Seconds(math.NaN()), Seconds(math.NaN()), false},
	}
	for _, c := range cases {
		if got := ApproxEqual(c.a, c.b); got != c.want {
			t.Errorf("%s: ApproxEqual(%v, %v) = %v, want %v", c.name, c.a, c.b, got, c.want)
		}
		if got := ApproxEqual(c.b, c.a); got != c.want {
			t.Errorf("%s: ApproxEqual(%v, %v) = %v, want %v (asymmetric)", c.name, c.b, c.a, got, c.want)
		}
	}
}

func TestApproxEqualAcrossUnitTypes(t *testing.T) {
	// The helper is generic over every float-backed newtype.
	if !ApproxEqual(3*GB, 3*GB) {
		t.Error("Bytes: 3GB should approx-equal itself")
	}
	if ApproxEqual(Decibel(0.25), Decibel(0.5)) {
		t.Error("Decibel: 0.25 dB should not approx-equal 0.5 dB")
	}
	if !ApproxEqual(DBm(-17), DBm(-17)-DBm(1e-12)) {
		t.Error("DBm: sub-femto perturbation should stay approx-equal")
	}
}

func TestApproxEqualAccumulationOrder(t *testing.T) {
	// The motivating case: the same sum in two different orders is not
	// bitwise equal but must compare approx-equal.
	vals := []Seconds{1e-9, 3.3e-4, 2.7e-1, 5e3, 1e-7}
	var fwd, rev Seconds
	for i := range vals {
		fwd += vals[i]
		rev += vals[len(vals)-1-i]
	}
	if fwd == rev {
		t.Skip("sums happen to be bitwise equal on this platform")
	}
	if !ApproxEqual(fwd, rev) {
		t.Errorf("order-permuted sums %v and %v should approx-equal", fwd, rev)
	}
}

func TestSecondsPerByte(t *testing.T) {
	// 1 ms amortized over a 1 KB packet is 1 microsecond per byte.
	got := Millisecond.PerByte(1 * KB)
	if math.Abs(got-1e-6) > 1e-18 {
		t.Fatalf("1ms over 1KB = %v s/B, want 1e-6", got)
	}
}

// DBmFromMilliwatts converts an absolute power in mW to dBm.
func DBmFromMilliwatts(mw float64) DBm { return DBm(10 * math.Log10(mw)) }

// Linear returns the linear power ratio corresponding to d treated as a
// gain: Linear(3 dB) ~= 2. A loss of x dB is a gain of -x dB.
func (d Decibel) Linear() float64 { return math.Pow(10, float64(d)/10) }

// FromLinear converts a linear power ratio to dB.
func FromLinear(ratio float64) Decibel {
	return Decibel(10 * math.Log10(ratio))
}
