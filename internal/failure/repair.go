package failure

import (
	"container/heap"
	"errors"
	"fmt"

	"lightpath/internal/torus"
)

// ErrNoCongestionFreeRepair reports that no replacement chip can be
// spliced into the broken rings without congestion — the Figure 6a/6b
// outcome for electrical interconnects.
var ErrNoCongestionFreeRepair = errors.New("failure: no congestion-free electrical repair exists")

// RepairPath is one directed path of an electrical repair.
type RepairPath struct {
	From, To int
	Links    []torus.Link
	// Congestion counts the busy links reused and foreign chips
	// forwarded through; 0 means congestion-free.
	Congestion int
}

// ElectricalPlan is the outcome of attempting an electrical repair.
type ElectricalPlan struct {
	Replacement int
	Paths       []RepairPath
	// Congestion is the total over paths; a congestion-free plan has 0.
	Congestion int
}

// pathCost weights for the Dijkstra search: reusing a busy link or
// forwarding through another tenant's chip each cost one congestion
// unit; hops are free (the fluid model has no per-hop latency).
type searchContext struct {
	f       *Fabric
	busy    torus.LinkUse
	victim  *torus.Slice
	rack    int // victim's rack, for own-chip identification
	extra   torus.LinkUse
	maxCost int
}

// linkCost returns the congestion units of crossing l.
func (sc *searchContext) linkCost(l torus.Link) int {
	cost := 0
	if sc.busy[l] > 0 || sc.busy[l.Reverse()] > 0 {
		cost++
	}
	if sc.extra[l] > 0 || sc.extra[l.Reverse()] > 0 {
		cost++
	}
	return cost
}

// nodeCost returns the congestion units of forwarding through g as an
// intermediate hop: free chips and the victim's own chips forward for
// free in congestion terms... except they do not: the paper's §4.2
// observes that "traffic not destined for a TPU must be forwarded,
// consuming its bandwidth". We charge foreign tenants' chips one unit
// and allow free/own chips (whose bandwidth the victim may leg
// itimately consume) at zero.
func (sc *searchContext) nodeCost(g int) int {
	if sc.f.Failed(g) {
		return sc.maxCost + 1 // dead chips never forward
	}
	if owner := sc.f.Owner(g); owner != nil && owner != sc.victim {
		return 1
	}
	return 0
}

// item is a priority-queue entry.
type item struct {
	node, cost int
}

type pq []item

func (q pq) Len() int            { return len(q) }
func (q pq) Less(i, j int) bool  { return q[i].cost < q[j].cost }
func (q pq) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *pq) Push(x interface{}) { *q = append(*q, x.(item)) }
func (q *pq) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// findPath runs Dijkstra from src to dst minimizing congestion units,
// rejecting paths above maxCost. It returns the path's links and its
// congestion, or an error when unreachable.
func (sc *searchContext) findPath(src, dst int) (RepairPath, error) {
	const inf = int(^uint(0) >> 1)
	dist := map[int]int{src: 0}
	prev := map[int]int{}
	q := &pq{{node: src, cost: 0}}
	for q.Len() > 0 {
		cur := heap.Pop(q).(item)
		if cur.cost > dist[cur.node] {
			continue
		}
		if cur.node == dst {
			break
		}
		for _, nb := range sc.f.Neighbors(cur.node) {
			l := torus.Link{From: cur.node, To: nb}
			cost := cur.cost + sc.linkCost(l)
			if nb != dst {
				cost += sc.nodeCost(nb)
			} else if sc.f.Failed(nb) {
				continue
			}
			if cost > sc.maxCost {
				continue
			}
			if d, ok := dist[nb]; !ok || cost < d {
				dist[nb] = cost
				prev[nb] = cur.node
				heap.Push(q, item{node: nb, cost: cost})
			}
		}
	}
	d, ok := dist[dst]
	if !ok || d == inf {
		return RepairPath{}, fmt.Errorf("failure: no path %d -> %d within congestion budget %d", src, dst, sc.maxCost)
	}
	var links []torus.Link
	for at := dst; at != src; at = prev[at] {
		links = append(links, torus.Link{From: prev[at], To: at})
	}
	// Reverse into forward order.
	for i, j := 0, len(links)-1; i < j; i, j = i+1, j-1 {
		links[i], links[j] = links[j], links[i]
	}
	return RepairPath{From: src, To: dst, Links: links, Congestion: d}, nil
}

// ElectricalRepair attempts to splice a free chip into every broken
// ring of the victim without congestion: all repair paths must avoid
// busy links, avoid foreign tenants' chips, and be mutually
// link-disjoint. If no congestion-free plan exists (the paper's
// claim), it returns ErrNoCongestionFreeRepair along with the best
// congested plan found (minimum total congestion units) for
// diagnosis — the "any new traffic will cause congestion" of §4.2.
func (f *Fabric) ElectricalRepair(rack, failedLocal int, maxDiagnosticCongestion int) (*ElectricalPlan, error) {
	victim := f.allocs[rack].OwnerSlice(failedLocal)
	if victim == nil {
		return nil, fmt.Errorf("failure: failed chip %d is free", failedLocal)
	}
	f.Fail(f.Global(rack, failedLocal))
	eps, err := f.RepairEndpoints(rack, failedLocal)
	if err != nil {
		return nil, err
	}
	busy := f.BusyLinks()
	free := f.FreeChips()
	if len(free) == 0 {
		return nil, fmt.Errorf("failure: no free chips to repair with")
	}

	var best *ElectricalPlan
	for _, budget := range []int{0, maxDiagnosticCongestion} {
		if budget > 0 && best != nil {
			break // congestion-free plan already found
		}
		for _, repl := range free {
			plan, ok := f.tryPlan(rack, victim, eps, repl, busy, budget)
			if !ok {
				continue
			}
			if best == nil || plan.Congestion < best.Congestion {
				best = plan
			}
			if plan.Congestion == 0 {
				return plan, nil
			}
		}
	}
	if best != nil {
		return best, ErrNoCongestionFreeRepair
	}
	return nil, ErrNoCongestionFreeRepair
}

// tryPlan routes Pred->repl and repl->Succ for every endpoint pair,
// keeping the paths mutually link-disjoint.
func (f *Fabric) tryPlan(rack int, victim *torus.Slice, eps []RepairEndpoint, repl int, busy torus.LinkUse, budget int) (*ElectricalPlan, bool) {
	sc := &searchContext{f: f, busy: busy, victim: victim, rack: rack, extra: torus.LinkUse{}, maxCost: budget}
	plan := &ElectricalPlan{Replacement: repl}
	for _, ep := range eps {
		for _, leg := range [2][2]int{{ep.Pred, repl}, {repl, ep.Succ}} {
			sc.maxCost = budget - plan.Congestion
			p, err := sc.findPath(leg[0], leg[1])
			if err != nil {
				return nil, false
			}
			sc.extra.Add(p.Links)
			plan.Paths = append(plan.Paths, p)
			plan.Congestion += p.Congestion
		}
	}
	return plan, true
}
