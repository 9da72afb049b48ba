package collective

import (
	"fmt"

	"lightpath/internal/unit"
)

// This file implements AllToAll — the traffic pattern the paper's §5
// singles out as the hard case for circuit scheduling: "While simple
// collective operations, such as those using ring ALLREDUCE where
// each accelerator communicates with only two others, are relatively
// straightforward, handling all-to-all traffic is much more complex."
//
// The schedule is the classic shifted-round exchange: in step
// s (1..p-1), chip i sends its block for chip (i+s) mod p. Every step
// pairs each chip with a *different* partner, so on a photonic fabric
// every step needs its circuits reprogrammed (each step is marked
// Reconfig when requested), while on an electrical torus most
// partners are not adjacent and the transfers must be routed over
// multiple hops, colliding on links.
//
// Like MPI_Alltoall, the exchange uses distinct send and receive
// buffers — an in-place shifted exchange would overwrite blocks
// before they are sent. Each chip's buffer is laid out as
// [send | recv]: elements [0, n) hold the p uniform outgoing blocks,
// elements [n, 2n) receive block i from chip i. A chip's own block
// stays in its send half (no self-transfer).

// AllToAll builds the (p-1)-step shifted exchange over the chips. n
// is the per-direction buffer length in elements and must be a
// multiple of len(chips); the schedule's N is 2n (send + recv
// halves).
func AllToAll(name string, chips []int, n int, elemBytes unit.Bytes, markReconfig bool) (*Schedule, error) {
	p := len(chips)
	if p < 2 {
		return nil, fmt.Errorf("collective: all-to-all needs at least 2 chips, got %d", p)
	}
	seen := map[int]bool{}
	for _, c := range chips {
		if seen[c] {
			return nil, fmt.Errorf("collective: all-to-all repeats chip %d", c)
		}
		seen[c] = true
	}
	if n%p != 0 {
		// Uniform blocks, like MPI_Alltoall: block j of chip i must
		// land exactly in block i of chip j.
		return nil, fmt.Errorf("collective: all-to-all buffer %d not divisible by %d chips", n, p)
	}
	send := Range{Lo: 0, Hi: n}
	sched := &Schedule{Name: name, N: 2 * n, ElemBytes: elemBytes}
	for s := 1; s < p; s++ {
		step := Step{Reconfig: markReconfig}
		for i := 0; i < p; i++ {
			j := (i + s) % p
			src := send.Sub(j, p)
			if src.Empty() {
				continue
			}
			step.Transfers = append(step.Transfers, Transfer{
				From:  chips[i],
				To:    chips[j],
				Range: src,
				// Lands in the receiver's recv half, at the block
				// indexed by the sender.
				DstLo: n + send.Sub(i, p).Lo,
				Dim:   -1, // generally not torus-adjacent
			})
		}
		sched.Steps = append(sched.Steps, step)
	}
	return sched, nil
}
