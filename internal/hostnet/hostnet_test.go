package hostnet

import (
	"math"
	"testing"
	"testing/quick"

	"lightpath/internal/rng"
	"lightpath/internal/unit"
)

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatalf("defaults invalid: %v", err)
	}
	mods := []func(*Params){
		func(p *Params) { p.MTU = 0 },
		func(p *Params) { p.PacketBandwidth = 0 },
		func(p *Params) { p.CircuitBandwidth = 0 },
		func(p *Params) { p.Hops = -1 },
		func(p *Params) { p.MaxCachedCircuits = -1 },
	}
	for i, mod := range mods {
		p := DefaultParams()
		mod(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestPacketLatencyComponents(t *testing.T) {
	p := DefaultParams()
	// Zero-size message: software overhead only.
	if got := p.PacketLatency(0); got != p.SoftwareOverhead {
		t.Fatalf("zero-size latency = %v", got)
	}
	// One MTU: sw + max(serialization, 1 pkt processing) + hops + prop.
	ser := p.PacketBandwidth.TimeFor(p.MTU)
	want := p.SoftwareOverhead + ser + 2*p.SwitchLatency + p.Propagation
	if ser < p.PerPacketOverhead {
		want = p.SoftwareOverhead + p.PerPacketOverhead + 2*p.SwitchLatency + p.Propagation
	}
	if got := p.PacketLatency(p.MTU); math.Abs(float64(got-want)) > 1e-15 {
		t.Fatalf("1-MTU latency = %v, want %v", got, want)
	}
	// Monotone in size.
	prev := unit.Seconds(0)
	for s := unit.Bytes(64); s <= 64*unit.MiB; s *= 4 {
		l := p.PacketLatency(s)
		if l < prev {
			t.Fatalf("packet latency not monotone at %v", s)
		}
		prev = l
	}
}

func TestCircuitLatencyWarmVsCold(t *testing.T) {
	p := DefaultParams()
	size := 64 * unit.KiB
	cold := p.CircuitLatency(size, false)
	warm := p.CircuitLatency(size, true)
	if diff := cold - warm; math.Abs(float64(diff-p.CircuitSetup)) > 1e-15 {
		t.Fatalf("cold-warm gap = %v, want setup %v", diff, p.CircuitSetup)
	}
}

// TestCrossover captures the §1/§5 stack trade-off: small messages
// favor today's packet stack (no 3.7 us setup); large ones favor the
// circuit stack (no per-packet tax, more bandwidth).
func TestCrossover(t *testing.T) {
	p := DefaultParams()
	small := 512 * unit.Bytes(1)
	if pkt, circ := p.PacketLatency(small), p.CircuitLatency(small, false); circ <= pkt {
		t.Fatalf("512B: circuit cold %v should lose to packet %v", circ, pkt)
	}
	big := 16 * unit.MiB
	if pkt, circ := p.PacketLatency(big), p.CircuitLatency(big, false); pkt <= circ {
		t.Fatalf("16MB: packet %v should lose to circuit %v", pkt, circ)
	}
	// Warm circuits win even for small messages (no setup, no
	// per-packet tax, higher rate).
	if pkt, circ := p.PacketLatency(small), p.CircuitLatency(small, true); circ >= pkt {
		t.Fatalf("512B warm: circuit %v should beat packet %v", circ, pkt)
	}
	x := p.CrossoverSize()
	if x <= 0 {
		t.Fatalf("crossover = %v, want positive", x)
	}
	// The analytic crossover is consistent with the latency functions.
	if pkt, circ := p.PacketLatency(x*2), p.CircuitLatency(x*2, false); pkt < circ {
		t.Fatalf("above crossover (%v): packet still wins", x)
	}
}

func TestCrossoverDegenerateCases(t *testing.T) {
	p := DefaultParams()
	p.CircuitBandwidth = p.PacketBandwidth
	p.PerPacketOverhead = 0 // packets as cheap per byte as circuits
	if got := p.CrossoverSize(); got != -1 {
		t.Fatalf("no-advantage crossover = %v, want -1", got)
	}
	p = DefaultParams()
	p.CircuitSetup = 0
	if got := p.CrossoverSize(); got != 0 {
		t.Fatalf("free-setup crossover = %v, want 0", got)
	}
}

// TestCrossoverConsistentWithLatencies: the analytic crossover agrees
// with the latency functions on both sides, including in the regime
// where per-packet processing (not serialization) limits the packet
// stack.
func TestCrossoverConsistentWithLatencies(t *testing.T) {
	p := DefaultParams()
	x := p.CrossoverSize()
	below, above := x/2, x*2
	if pkt, circ := p.PacketLatency(below), p.CircuitLatency(below, false); pkt >= circ {
		t.Fatalf("below crossover (%v): packet %v >= circuit %v", below, pkt, circ)
	}
	if pkt, circ := p.PacketLatency(above), p.CircuitLatency(above, false); pkt <= circ {
		t.Fatalf("above crossover (%v): packet %v <= circuit %v", above, pkt, circ)
	}
}

func TestRunPacketTrace(t *testing.T) {
	p := DefaultParams()
	trace := Trace{
		{At: 0, Dst: 1, Size: 4 * unit.KiB},
		{At: 0, Dst: 2, Size: 4 * unit.KiB}, // queues behind the first
	}
	res, err := RunPacketTrace(p, trace)
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages != 2 || len(res.PerMessage) != 2 {
		t.Fatalf("res = %+v", res)
	}
	if res.PerMessage[1] <= res.PerMessage[0] {
		t.Fatal("queued message should see higher latency")
	}
	if res.Setups != 0 {
		t.Fatal("packet stack performed circuit setups")
	}
}

func TestRunCircuitTraceCaching(t *testing.T) {
	p := DefaultParams()
	// Three back-to-back messages to one destination: one setup.
	trace := Trace{
		{At: 0, Dst: 1, Size: 64 * unit.KiB},
		{At: 10 * unit.Microsecond, Dst: 1, Size: 64 * unit.KiB},
		{At: 20 * unit.Microsecond, Dst: 1, Size: 64 * unit.KiB},
	}
	res, err := RunCircuitTrace(p, trace)
	if err != nil {
		t.Fatal(err)
	}
	if res.Setups != 1 {
		t.Fatalf("setups = %d, want 1 (cached)", res.Setups)
	}
	// First message pays the setup; later ones are faster.
	if res.PerMessage[1] >= res.PerMessage[0] {
		t.Fatal("warm message not faster than cold")
	}
}

func TestRunCircuitTraceIdleTimeout(t *testing.T) {
	p := DefaultParams()
	p.IdleTimeout = 50 * unit.Microsecond
	trace := Trace{
		{At: 0, Dst: 1, Size: unit.KiB},
		{At: 200 * unit.Microsecond, Dst: 1, Size: unit.KiB}, // idle gap > timeout
	}
	res, err := RunCircuitTrace(p, trace)
	if err != nil {
		t.Fatal(err)
	}
	if res.Setups != 2 || res.Teardowns != 1 {
		t.Fatalf("setups = %d teardowns = %d, want 2/1", res.Setups, res.Teardowns)
	}
}

func TestRunCircuitTraceLRUEviction(t *testing.T) {
	p := DefaultParams()
	p.MaxCachedCircuits = 2
	p.IdleTimeout = unit.Seconds(1) // effectively never idle out
	trace := Trace{
		{At: 0, Dst: 1, Size: unit.KiB},
		{At: 1 * unit.Microsecond, Dst: 2, Size: unit.KiB},
		{At: 2 * unit.Microsecond, Dst: 3, Size: unit.KiB}, // evicts LRU (dst 1)
		{At: 3 * unit.Microsecond, Dst: 1, Size: unit.KiB}, // cold again
	}
	res, err := RunCircuitTrace(p, trace)
	if err != nil {
		t.Fatal(err)
	}
	if res.Setups != 4 {
		t.Fatalf("setups = %d, want 4 (dst 1 evicted and re-set-up)", res.Setups)
	}
	if res.Teardowns != 2 {
		t.Fatalf("teardowns = %d, want 2 (two evictions)", res.Teardowns)
	}
}

func TestGenerateTraceShapes(t *testing.T) {
	r := rng.New(3)
	for _, kind := range []WorkloadKind{WorkloadRPC, WorkloadBulk, WorkloadBursty} {
		trace := GenerateTrace(kind, 100, r.Split(kind.String()))
		if len(trace) != 100 {
			t.Fatalf("%v: %d messages", kind, len(trace))
		}
		prev := unit.Seconds(-1)
		for _, m := range trace {
			if m.At < prev {
				t.Fatalf("%v: trace not time-ordered", kind)
			}
			prev = m.At
			if m.Size <= 0 {
				t.Fatalf("%v: non-positive size", kind)
			}
		}
	}
	if WorkloadKind(9).String() != "WorkloadKind(9)" {
		t.Fatal("unknown workload name")
	}
}

func TestGenerateTracePanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown workload did not panic")
		}
	}()
	GenerateTrace(WorkloadKind(9), 1, rng.New(1))
}

// TestWorkloadVerdicts: the stack comparison per workload class —
// bulk strongly favors circuits; RPC latency favors packets unless
// circuits stay warm.
func TestWorkloadVerdicts(t *testing.T) {
	p := DefaultParams()
	r := rng.New(77)

	bulk := GenerateTrace(WorkloadBulk, 200, r.Split("bulk"))
	pb, err := RunPacketTrace(p, bulk)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := RunCircuitTrace(p, bulk)
	if err != nil {
		t.Fatal(err)
	}
	if cb.Mean >= pb.Mean {
		t.Fatalf("bulk: circuit mean %v should beat packet %v", cb.Mean, pb.Mean)
	}

	// RPC with generous idle timeout: circuits stay warm to the few
	// destinations and win on mean latency too.
	rpc := GenerateTrace(WorkloadRPC, 500, r.Split("rpc"))
	warm := p
	warm.IdleTimeout = unit.Seconds(1)
	cr, err := RunCircuitTrace(warm, rpc)
	if err != nil {
		t.Fatal(err)
	}
	if cr.Setups > 8 {
		t.Fatalf("rpc warm setups = %d, want <= destinations", cr.Setups)
	}
	pr, err := RunPacketTrace(p, rpc)
	if err != nil {
		t.Fatal(err)
	}
	if cr.Mean >= pr.Mean {
		t.Fatalf("warm rpc: circuit mean %v should beat packet %v", cr.Mean, pr.Mean)
	}
}

// TestBurstyTimeoutTradeoff: too-short idle timeouts re-pay the setup
// on every burst; long ones hold resources but avoid setups.
func TestBurstyTimeoutTradeoff(t *testing.T) {
	r := rng.New(99)
	trace := GenerateTrace(WorkloadBursty, 400, r)
	short := DefaultParams()
	short.IdleTimeout = 10 * unit.Microsecond
	long := DefaultParams()
	long.IdleTimeout = 10 * unit.Millisecond

	rs, err := RunCircuitTrace(short, trace)
	if err != nil {
		t.Fatal(err)
	}
	rl, err := RunCircuitTrace(long, trace)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Setups <= rl.Setups {
		t.Fatalf("short timeout setups %d <= long %d", rs.Setups, rl.Setups)
	}
	if rl.Mean > rs.Mean {
		t.Fatalf("long-timeout mean %v worse than short %v", rl.Mean, rs.Mean)
	}
}

// Property: per-message latencies are positive and Makespan >= every
// delivery; stats are within [min, max].
func TestTraceProperties(t *testing.T) {
	f := func(seed uint64, kindRaw uint8) bool {
		kind := WorkloadKind(kindRaw % 3)
		trace := GenerateTrace(kind, 60, rng.New(seed))
		p := DefaultParams()
		for _, run := range []func(Params, Trace) (Result, error){RunPacketTrace, RunCircuitTrace} {
			res, err := run(p, trace)
			if err != nil {
				return false
			}
			min, max := res.PerMessage[0], res.PerMessage[0]
			for _, l := range res.PerMessage {
				if l <= 0 {
					return false
				}
				if l < min {
					min = l
				}
				if l > max {
					max = l
				}
			}
			if res.Mean < min || res.Mean > max || res.P99 > max || res.P99 < min {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
