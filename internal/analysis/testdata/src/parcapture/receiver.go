package fixture

import (
	"sync"
	"sync/atomic"

	"lightpath/internal/engine"
)

// This file reconstructs the Fig5 race in shape: the trial closure
// never assigned to captured state, it called a planning method on a
// shared fabric, and that method reached a reused executor whose
// solver rebuilt its maps. The write is two calls deep, behind a
// method that looks read-only.

// Sim is the solver; build rewrites its index map in place.
type Sim struct{ index map[int]int }

func (s *Sim) build(n int) {
	for i := 0; i < n; i++ {
		s.index[i] = i
	}
}

// Executor reuses one Sim across runs and keeps a log of them.
type Executor struct {
	sim Sim
	log []int
}

// Run writes nothing itself; it writes through the receiver by calling
// build on a field.
func (e *Executor) Run(n int) int {
	e.sim.build(n)
	return len(e.sim.index)
}

// Note appends to a field.
func (e *Executor) Note(x int) { e.log = append(e.log, x) }

// Fabric holds a reusable executor, as core.Fabric did.
type Fabric struct {
	exec *Executor
	name string
}

// Plan reaches the shared executor.
func (f *Fabric) Plan(n int) int { return f.exec.Run(n) }

// Name only reads.
func (f *Fabric) Name() string { return f.name }

// Clone gives a trial a fabric of its own.
func (f *Fabric) Clone() *Fabric {
	return &Fabric{exec: &Executor{sim: Sim{index: map[int]int{}}}, name: f.name}
}

// Fig5 is the historical shape: every trial plans on the one fabric.
func Fig5(fab *Fabric, n int) error {
	_, err := engine.Map(n, func(i int) (int, error) {
		return fab.Plan(i), nil // want `trial closure passed to engine.Map calls Plan on captured "fab", which writes through its receiver`
	})
	return err
}

// Fig5Fixed is the fix: each trial plans on its own clone and only
// reads the shared fabric.
func Fig5Fixed(fab *Fabric, n int) error {
	_, err := engine.Map(n, func(i int) (int, error) {
		if fab.Name() == "" {
			return 0, nil
		}
		return fab.Clone().Plan(i), nil
	})
	return err
}

// Rig reaches an executor through a field of a captured value.
type Rig struct{ exec *Executor }

// SharedThroughField calls mutating methods on an executor reached from
// a captured struct, and on the executor directly.
func SharedThroughField(rig Rig, exec *Executor, n int) error {
	return engine.Stream(n,
		func(i int) (int, error) {
			exec.Note(i)                // want `trial closure passed to engine.Stream calls Note on captured "exec", which writes through its receiver`
			return rig.exec.Run(i), nil // want `trial closure passed to engine.Stream calls Run on captured "rig", which writes through its receiver`
		},
		func(i, r int) (bool, error) {
			exec.Note(r) // consume is sequential: allowed
			return true, nil
		})
}

// SyncShared shares only sync and sync/atomic values, which exist to
// be written concurrently, and writes to a trial-local executor.
func SyncShared(n int) (int64, error) {
	var mu sync.Mutex
	var hits atomic.Int64
	_, err := engine.Map(n, func(i int) (int, error) {
		mu.Lock()
		mu.Unlock()
		hits.Add(1)
		local := &Executor{sim: Sim{index: map[int]int{}}}
		local.Note(i)
		return local.Run(i), nil
	})
	return hits.Load(), err
}
