package route

import (
	"lightpath/internal/rng"
	"lightpath/internal/unit"
)

// BatchOutcome summarizes establishing a set of circuit requests.
type BatchOutcome struct {
	Circuits []*Circuit
	Failed   []Request
	// Attempts counts plan attempts, including conflicts; the
	// centralized allocator's global view needs ~1 per request, the
	// decentralized one pays extra attempts for optimistic conflicts.
	Attempts int
	// Rounds is the number of proposal rounds (1 for centralized).
	Rounds int
}

// EstablishBatch establishes the requests sequentially with the
// allocator's global view — the centralized controller of §5.
func (a *Allocator) EstablishBatch(reqs []Request, now unit.Seconds) BatchOutcome {
	out := BatchOutcome{Rounds: 1}
	for _, req := range reqs {
		out.Attempts++
		c, err := a.Establish(req, now)
		if err != nil {
			out.Failed = append(out.Failed, req)
			continue
		}
		out.Circuits = append(out.Circuits, c)
	}
	return out
}

// Decentralized simulates per-tile circuit establishment without a
// central controller (§5 "Decentralized algorithms"): in each round,
// every pending request independently proposes its next candidate
// path — computed from the round-start view of the fabric — and the
// proposals commit in arbitrary (randomized) order. Proposals that
// lose a resource race fail, advance to their next candidate, and
// retry next round. The extra Attempts relative to the centralized
// allocator measure the cost of decentralization.
type Decentralized struct {
	// Alloc owns the hardware state; Decentralized only schedules
	// commit attempts against it.
	Alloc *Allocator

	rand *rng.Rand
}

// maxRounds bounds a batch's retries; requests still pending after
// that many rounds are reported failed.
const maxRounds = 16

// NewDecentralized wraps an allocator. A nil stream fixes the round
// ordering to request order (deterministic worst-case contention).
func NewDecentralized(a *Allocator, r *rng.Rand) *Decentralized {
	return &Decentralized{Alloc: a, rand: r}
}

// EstablishBatch runs the optimistic rounds.
func (d *Decentralized) EstablishBatch(reqs []Request, now unit.Seconds) BatchOutcome {
	type pending struct {
		req       Request
		candidate int
	}
	var queue []pending
	for _, r := range reqs {
		queue = append(queue, pending{req: r})
	}

	var out BatchOutcome
	for round := 0; round < maxRounds && len(queue) > 0; round++ {
		out.Rounds++
		// Each pending request proposes its current candidate based on
		// the round-start view.
		type proposal struct {
			pending
			plan plan
			ok   bool
		}
		proposals := make([]proposal, len(queue))
		for i, p := range queue {
			proposals[i].pending = p
			proposals[i].plan, proposals[i].ok = d.Alloc.candidate(p.req, p.candidate)
		}
		// Commit in randomized order: no coordination between tiles.
		// Each proposal is probed against the fabric as the earlier
		// commits of the round left it; one that lost a race to them
		// allocates nothing and moves to its next candidate.
		order := make([]int, len(proposals))
		for i := range order {
			order[i] = i
		}
		if d.rand != nil {
			d.rand.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		}
		var next []pending
		for _, i := range order {
			pr := proposals[i]
			if !pr.ok {
				out.Failed = append(out.Failed, pr.req)
				continue
			}
			out.Attempts++
			c := d.Alloc.tryProposal(pr.req, pr.plan, now)
			if c == nil {
				next = append(next, pending{req: pr.req, candidate: pr.candidate + 1})
				continue
			}
			out.Circuits = append(out.Circuits, c)
		}
		queue = next
	}
	for _, p := range queue {
		out.Failed = append(out.Failed, p.req)
	}
	return out
}

// candidate returns the request's k-th candidate plan (from 0), the
// only one whose steps it builds, cloned out of the scratch so that it
// outlives the next walk; false when there are no more than k.
func (a *Allocator) candidate(req Request, k int) (plan, bool) {
	g := a.startPlans(req.A, req.B)
	p := &a.scratch.plan
	for key, ok := g.next(); ok; key, ok = g.next() {
		if k > 0 {
			k--
			continue
		}
		p.planKey = key
		buildPlan(g, p)
		return p.clone(), true
	}
	return plan{}, false
}

// tryProposal tries one proposed plan against the fabric as it
// stands now, endpoints included, through Establish's own probe and
// placement: nil means the proposal lost a resource race (or never
// fit) and nothing was allocated.
func (a *Allocator) tryProposal(req Request, p plan, now unit.Seconds) *Circuit {
	a.beginOp()
	defer a.endOp("commit")
	if a.endpointCause(req) != nil {
		return nil
	}
	v, switches := a.probe(req, p)
	if v.cause != causeNone {
		return nil
	}
	link := a.evaluate(p)
	if a.CheckBudget && !link.Feasible {
		return nil
	}
	return a.place(req, p, switches, link, now)
}
