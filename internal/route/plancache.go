package route

// This file is the route-plan cache: a dense per-chip-pair memo of
// candidatePlans results, invalidated by a fabric epoch counter. The
// plan enumeration for a chip pair depends only on the rack geometry
// (immutable after construction) and on which trunk rows are marked
// failed — not on occupancy, endpoint health or switch state, all of
// which the probe re-checks per attempt. So a cached plan list is exact
// until the failed-row set changes; the epoch counter is bumped by
// every fault/repair-class mutation (ApplyFault, FailFiberRow,
// RestoreFiberRow) and a cached entry is trusted only when its stamp
// matches the current epoch. Stale entries are re-derived lazily on
// next use, so fault-heavy and fault-free runs alike stay bit-for-bit
// identical to the uncached allocator.
//
// Storage discipline: plans live in a shared arena (one plans array,
// one steps array, one trunks array) rather than per-entry
// allocations. When the epoch bumps, every entry goes stale at once,
// so the arena is reset to length zero on the first derivation at the
// new epoch and its memory is reused — the cache's footprint is
// bounded by one epoch's working set. Stale entries keep aliases into
// the reset arena, but the epoch check means they are never read
// (FuzzPlanCacheEpoch asserts exactly this). Borrowers follow the
// //lightpath:arena discipline: the plan slice Establish borrows is
// valid only for the duration of the call and must not be retained.
//
// The packing regime (PackFibers) ranks fiber rows by live occupancy,
// which changes on every establish/release — memoizing it would be
// incorrect, so the cache is bypassed entirely there.

// planCacheEntry is one chip pair's memoized plan list. The entry is
// valid only when epoch matches the cache's current epoch; plans is a
// subslice of the shared arena.
type planCacheEntry struct {
	epoch uint64
	plans []plan
}

// planCache memoizes candidatePlans per ordered chip pair. The
// ordered (not symmetric) key matters: same-wafer pairs enumerate
// L-shapes and Z-detours from A's corner, so plans(a,b) and
// plans(b,a) differ.
type planCache struct {
	// epoch is the current fabric epoch; entries are valid only when
	// their stamp matches. Zero means "not yet initialized" — the
	// first lookup raises it to 1 so zero-valued entries can never
	// false-hit.
	epoch uint64

	// rows[a][b] is the entry for chip pair (a,b); rows are allocated
	// lazily per source chip, so memory scales with the pairs actually
	// requested, not NumChips².
	rows [][]planCacheEntry

	// The shared arena. arenaEpoch records which epoch the arena's
	// contents belong to; on the first store at a new epoch all three
	// arrays reset to length zero and their capacity is reused.
	arenaEpoch  uint64
	plansArena  []plan
	stepsArena  []planStep
	trunksArena []int

	hits, misses uint64
}

// bumpPlanEpoch invalidates every cached plan list. Callers are the
// fault/repair paths — anything that can change the failed-row set or
// otherwise reshape the plan enumeration.
func (a *Allocator) bumpPlanEpoch() {
	a.plans.epoch++
}

// resetPlanCache drops the cache entirely (table, arena and counters)
// — used when the allocator's state is replaced wholesale (Restore).
func (a *Allocator) resetPlanCache() {
	a.plans = planCache{}
}

// PlanCacheStats returns the cache's lifetime hit and miss counters.
// The controller surfaces these through Stats() and the campaign CSV.
func (a *Allocator) PlanCacheStats() (hits, misses uint64) {
	return a.plans.hits, a.plans.misses
}

// PlanCacheEpoch returns the current fabric epoch (0 if the cache has
// never been consulted). Tests use it to assert invalidation.
func (a *Allocator) PlanCacheEpoch() uint64 { return a.plans.epoch }

// planCacheValidPairs returns the number of entries valid at the
// current epoch. Tests and the snapshot layer use it.
func (a *Allocator) planCacheValidPairs() int {
	return len(a.planCacheValidList(nil))
}

// planCacheValidList appends the ordered chip pairs whose entries are
// valid at the current epoch, in (a, b) lexicographic order — the
// table layout already yields that order. The snapshot layer encodes
// this list; rewarmPlanCache reproduces the cache from it.
func (a *Allocator) planCacheValidList(dst [][2]int) [][2]int {
	for chipA, row := range a.plans.rows {
		for chipB := range row {
			e := &row[chipB]
			if e.epoch != 0 && e.epoch == a.plans.epoch {
				dst = append(dst, [2]int{chipA, chipB})
			}
		}
	}
	return dst
}

// plansFor returns the candidate plans for the ordered chip pair,
// serving from the cache when possible. The returned slice and
// everything it references live in the cache's shared arena (or, when
// the cache is bypassed, in the allocator's scratch) and are valid
// only until the next mutation — callers must not retain them.
func (a *Allocator) plansFor(chipA, chipB int) []plan {
	if a.PackFibers || a.noPlanCache {
		// Packing ranks rows by live occupancy — not memoizable.
		return a.candidatePlans(chipA, chipB)
	}
	pc := &a.plans
	if pc.epoch == 0 {
		pc.epoch = 1
	}
	if pc.rows == nil {
		pc.rows = make([][]planCacheEntry, a.rack.NumChips())
	}
	row := pc.rows[chipA]
	if row == nil {
		row = make([]planCacheEntry, a.rack.NumChips())
		pc.rows[chipA] = row
	}
	e := &row[chipB]
	if e.epoch == pc.epoch {
		pc.hits++
		return e.plans
	}
	pc.misses++
	e.plans = a.storePlans(a.candidatePlans(chipA, chipB))
	e.epoch = pc.epoch
	return e.plans
}

// storePlans copies a scratch-backed plan list into the shared arena
// and returns the arena-backed copy. The first store at a new epoch
// resets the arena: every entry is stale by then, so the memory is
// free for reuse (stale aliases are guarded by the epoch check, never
// dereferenced).
func (a *Allocator) storePlans(src []plan) []plan {
	pc := &a.plans
	if pc.arenaEpoch != pc.epoch {
		pc.plansArena = pc.plansArena[:0]
		pc.stepsArena = pc.stepsArena[:0]
		pc.trunksArena = pc.trunksArena[:0]
		pc.arenaEpoch = pc.epoch
	}
	start := len(pc.plansArena)
	for _, p := range src {
		ss := len(pc.stepsArena)
		pc.stepsArena = append(pc.stepsArena, p.steps...)
		se := len(pc.stepsArena)
		ts := len(pc.trunksArena)
		pc.trunksArena = append(pc.trunksArena, p.trunks...)
		te := len(pc.trunksArena)
		// Full-capacity subslices: a later arena append must grow into
		// a fresh array, never through a stored plan's alias.
		pc.plansArena = append(pc.plansArena, plan{
			steps:    pc.stepsArena[ss:se:se],
			trunks:   pc.trunksArena[ts:te:te],
			fiberRow: p.fiberRow,
			turns:    p.turns,
		})
	}
	return pc.plansArena[start:len(pc.plansArena):len(pc.plansArena)]
}

// rewarmPlanCache re-derives the plan lists for the given ordered
// chip pairs without touching the hit/miss counters. The snapshot
// layer calls it after restoring the failed-row set: the cache's
// contents are a pure function of geometry and failed rows, so
// re-deriving the serialized pair list reproduces the serialized
// cache exactly — a resumed allocator hits and misses on precisely
// the pairs the original would have.
func (a *Allocator) rewarmPlanCache(pairs [][2]int) {
	pc := &a.plans
	if pc.epoch == 0 {
		pc.epoch = 1
	}
	if len(pairs) == 0 {
		return
	}
	if pc.rows == nil {
		pc.rows = make([][]planCacheEntry, a.rack.NumChips())
	}
	for _, pr := range pairs {
		chipA, chipB := pr[0], pr[1]
		row := pc.rows[chipA]
		if row == nil {
			row = make([]planCacheEntry, a.rack.NumChips())
			pc.rows[chipA] = row
		}
		e := &row[chipB]
		if e.epoch == pc.epoch {
			continue
		}
		e.plans = a.storePlans(a.candidatePlans(chipA, chipB))
		e.epoch = pc.epoch
	}
}
