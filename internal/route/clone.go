package route

// Clone returns a deep copy of the allocator together with a deep copy
// of the rack it manages (reachable via the clone's Rack method). The
// clone behaves exactly like the original would from this point on —
// same occupancy mirrors, same circuit table, same position in the
// stochastic loss stream — while sharing no mutable storage, so a
// Monte-Carlo campaign can build one pristine allocator and hand each
// trial its own copy.
func (a *Allocator) Clone() *Allocator {
	c := &Allocator{
		rack:        a.rack.Clone(),
		loss:        a.loss.Clone(),
		Budget:      a.Budget,
		CheckBudget: a.CheckBudget,
		PackFibers:  a.PackFibers,
		circuits:    make([]*Circuit, len(a.circuits)),
		nextID:      a.nextID,
		fibersUsed:  make(map[fiberRowKey]int, len(a.fibersUsed)),
		// The row-order table is immutable after construction, so
		// clones share it; scratch is deliberately left fresh.
		rowOrder: a.rowOrder,
	}
	for i, circ := range a.circuits {
		c.circuits[i] = circ.Clone()
	}
	for k, v := range a.fibersUsed {
		c.fibersUsed[k] = v
	}
	if a.failedRows != nil {
		c.failedRows = make(map[fiberRowKey]bool, len(a.failedRows))
		for k, v := range a.failedRows {
			c.failedRows[k] = v
		}
	}
	return c
}

// Clone returns a deep copy of the circuit, duplicating the segment
// and fiber slices so the copy shares no storage with the original.
func (c *Circuit) Clone() *Circuit {
	n := *c
	// The struct copy above duplicated the inline stores but left the
	// slice headers pointing at c's storage; re-point them at n's own.
	// Link.ByKind is a value (array) — the struct copy covers it.
	n.setPath(c.Segments, c.Fibers)
	return &n
}
