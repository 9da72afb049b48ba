package hostnet

import (
	"fmt"
	"sort"

	"lightpath/internal/phy"
	"lightpath/internal/rng"
	"lightpath/internal/unit"
)

// Msg is one message of a host traffic trace.
type Msg struct {
	// At is the time the application posts the send.
	At unit.Seconds
	// Dst identifies the destination host/chip.
	Dst int
	// Size is the payload.
	Size unit.Bytes
}

// Trace is a time-ordered message sequence from one sender.
type Trace []Msg

// Result summarizes running a trace over one transport.
type Result struct {
	Messages int
	// Mean and P99 are per-message latencies (post-to-delivery).
	Mean, P99 unit.Seconds
	// Makespan is when the last message was delivered.
	Makespan unit.Seconds
	// Setups counts circuit establishments (0 for the packet stack);
	// Teardowns counts idle-timeout teardowns and cache evictions.
	Setups, Teardowns int
	// PerMessage holds each message's latency, trace order.
	PerMessage []unit.Seconds
}

// RunPacketTrace runs the trace over the packetized stack. Messages
// to the same destination serialize on the sender NIC; the model
// charges each message its full one-shot latency starting from
// max(post time, NIC free time).
func RunPacketTrace(p Params, trace Trace) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	var res Result
	res.Messages = len(trace)
	nicFree := unit.Seconds(0)
	for _, m := range trace {
		start := m.At
		if nicFree > start {
			start = nicFree
		}
		lat := p.PacketLatency(m.Size)
		done := start + lat
		// NIC occupied for the serialization portion.
		nicFree = start + p.PacketBandwidth.TimeFor(m.Size) + p.SoftwareOverhead
		res.PerMessage = append(res.PerMessage, done-m.At)
		if done > res.Makespan {
			res.Makespan = done
		}
	}
	res.fillStats()
	return res, nil
}

// circuitState tracks one cached circuit.
type circuitState struct {
	lastUse unit.Seconds
}

// RunCircuitTrace runs the trace over the circuit-switched stack with
// per-destination circuit caching, idle-timeout teardown, and a bound
// on concurrently held circuits (LRU eviction).
func RunCircuitTrace(p Params, trace Trace) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	var res Result
	res.Messages = len(trace)
	circuits := map[int]*circuitState{}
	linkFree := unit.Seconds(0)
	for _, m := range trace {
		start := m.At
		if linkFree > start {
			start = linkFree
		}
		// Expire idle circuits as of this send.
		for dst, st := range circuits {
			if p.IdleTimeout > 0 && start-st.lastUse > p.IdleTimeout {
				delete(circuits, dst)
				res.Teardowns++
			}
		}
		st, warm := circuits[m.Dst]
		if !warm {
			// Evict LRU if the cache is full.
			if p.MaxCachedCircuits > 0 && len(circuits) >= p.MaxCachedCircuits {
				lruDst, lruAt := -1, unit.Seconds(0)
				first := true
				for dst, s := range circuits {
					if first || s.lastUse < lruAt {
						lruDst, lruAt, first = dst, s.lastUse, false
					}
				}
				delete(circuits, lruDst)
				res.Teardowns++
			}
			st = &circuitState{}
			circuits[m.Dst] = st
			res.Setups++
		}
		lat := p.CircuitLatency(m.Size, warm)
		done := start + lat
		st.lastUse = done
		linkFree = start + lat - p.Propagation // sender busy until last byte leaves
		res.PerMessage = append(res.PerMessage, done-m.At)
		if done > res.Makespan {
			res.Makespan = done
		}
	}
	res.fillStats()
	return res, nil
}

func (r *Result) fillStats() {
	if len(r.PerMessage) == 0 {
		return
	}
	sorted := make([]float64, len(r.PerMessage))
	sum := 0.0
	for i, l := range r.PerMessage {
		sorted[i] = float64(l)
		sum += float64(l)
	}
	sort.Float64s(sorted)
	r.Mean = unit.Seconds(sum / float64(len(sorted)))
	r.P99 = unit.Seconds(phy.Percentile(sorted, 99))
}

// WorkloadKind selects a synthetic trace generator.
type WorkloadKind int

// Workload kinds.
const (
	// WorkloadRPC is many small request messages to few destinations.
	WorkloadRPC WorkloadKind = iota
	// WorkloadBulk is few large transfers.
	WorkloadBulk
	// WorkloadBursty alternates ON periods of back-to-back sends with
	// idle OFF periods longer than typical circuit idle timeouts.
	WorkloadBursty
)

// String names the workload.
func (k WorkloadKind) String() string {
	switch k {
	case WorkloadRPC:
		return "rpc"
	case WorkloadBulk:
		return "bulk"
	case WorkloadBursty:
		return "bursty"
	default:
		return fmt.Sprintf("WorkloadKind(%d)", int(k))
	}
}

// GenerateTrace builds a deterministic synthetic trace of n messages.
func GenerateTrace(kind WorkloadKind, n int, r *rng.Rand) Trace {
	trace := make(Trace, 0, n)
	now := unit.Seconds(0)
	switch kind {
	case WorkloadRPC:
		for i := 0; i < n; i++ {
			now += unit.Seconds(r.Exp(float64(5 * unit.Microsecond)))
			trace = append(trace, Msg{
				At:   now,
				Dst:  r.Intn(4),
				Size: unit.Bytes(64 + r.Intn(1984)), // 64B-2KB
			})
		}
	case WorkloadBulk:
		for i := 0; i < n; i++ {
			now += unit.Seconds(r.Exp(float64(200 * unit.Microsecond)))
			trace = append(trace, Msg{
				At:   now,
				Dst:  r.Intn(8),
				Size: unit.Bytes(1+r.Intn(64)) * unit.MiB,
			})
		}
	case WorkloadBursty:
		for i := 0; i < n; i++ {
			if i%8 == 0 && i > 0 {
				now += unit.Seconds(r.Exp(float64(300 * unit.Microsecond))) // OFF
			} else {
				now += unit.Seconds(r.Exp(float64(2 * unit.Microsecond))) // ON
			}
			trace = append(trace, Msg{
				At:   now,
				Dst:  r.Intn(2),
				Size: unit.Bytes(4+r.Intn(60)) * unit.KiB,
			})
		}
	default:
		panic(fmt.Sprintf("hostnet: unknown workload %d", int(kind)))
	}
	return trace
}
