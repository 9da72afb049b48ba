// Package fixture exercises the arenaescape analyzer: aliases of
// pooled or //lightpath:arena-marked scratch memory must not outlive
// the borrowing function, while the borrow-scoped defer-Put idiom and
// copies into owned storage must pass. LeakRates reconstructs the
// historical PR 5 hazard — a slice carved from a pooled arena escaping
// through the return value — verbatim in shape.
package fixture

import "sync"

// scratch is the pooled per-trial workspace in the shape core's
// chaosScratch had before the chaos run moved onto schedule atoms: one
// backing arena plus a derived reference slice.
type scratch struct {
	arena []float64
	ref   []float64
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// sink is a package-level cache an arena alias must never reach.
var sink []float64

// LeakRates is the PR 5 arena-escape hazard, reconstructed: the rates
// slice is carved from the pooled arena, and returning it hands the
// caller memory the next trial will overwrite after Put.
func LeakRates(n int) []float64 {
	scr := scratchPool.Get().(*scratch)
	defer scratchPool.Put(scr)
	if cap(scr.arena) < n {
		scr.arena = make([]float64, n)
	}
	rates := scr.arena[:n]
	for i := range rates {
		rates[i] = float64(i)
	}
	return rates // want `arena-backed "rates" is returned`
}

// CacheGlobally parks an arena alias in a package-level variable.
func CacheGlobally(n int) {
	scr := scratchPool.Get().(*scratch)
	defer scratchPool.Put(scr)
	buf := scr.arena
	sink = buf // want `arena-backed "buf" is stored in state that outlives the borrow`
	_ = n
}

// holder is caller-owned state a borrowed buffer must not be parked in.
type holder struct{ rows [][]float64 }

// StoreInParam stores an arena alias into a structure the caller
// holds after the function returns.
func StoreInParam(h *holder) {
	scr := scratchPool.Get().(*scratch)
	defer scratchPool.Put(scr)
	h.rows = append(h.rows, scr.arena) // want `arena-backed "scr" is stored in state that outlives the borrow`
	h.rows[0] = scr.arena              // want `arena-backed "scr" is stored in state that outlives the borrow`
}

// SendToWorker ships arena memory across a channel: the receiver
// races the pool's reuse.
func SendToWorker(ch chan []float64) {
	scr := scratchPool.Get().(*scratch)
	defer scratchPool.Put(scr)
	ch <- scr.arena // want `arena-backed "scr" is sent on a channel`
}

// AsyncUse hands arena memory to a goroutine that outlives the borrow.
func AsyncUse() {
	scr := scratchPool.Get().(*scratch)
	defer scratchPool.Put(scr)
	go func() {
		scr.arena[0] = 1 // want `arena-backed "scr" is captured by a goroutine`
	}()
}

// UseAfterPut touches the scratch after explicitly returning it.
func UseAfterPut() float64 {
	scr := scratchPool.Get().(*scratch)
	if len(scr.arena) == 0 {
		scr.arena = make([]float64, 1)
	}
	scratchPool.Put(scr)
	return scr.arena[0] // want `"scr" is used after its Put returned it to the pool`
}

// MarkedLocalLeak covers the directive form: a buffer that is not
// pooled yet is declared trial-scoped, and must not escape either.
func MarkedLocalLeak(n int) []int {
	//lightpath:arena
	buf := make([]int, n)
	for i := range buf {
		buf[i] = i
	}
	return buf // want `arena-backed "buf" is returned`
}

// CleanBorrow is the sanctioned pattern, shaped like core's chaos
// runner: borrow, carve disjoint slices, park them inside the pooled
// object itself, copy the answer into owned storage, defer the Put.
func CleanBorrow(n int) []float64 {
	scr := scratchPool.Get().(*scratch)
	defer scratchPool.Put(scr)
	if cap(scr.arena) < 2*n {
		scr.arena = make([]float64, 2*n)
	}
	arena := scr.arena
	a := arena[:n:n]
	b := arena[n : 2*n : 2*n]
	for i := 0; i < n; i++ {
		a[i] = float64(i)
		b[i] = a[i] * 2
	}
	scr.ref = b // storing an alias inside the arena's own object: fine
	out := make([]float64, n)
	copy(out, b) // the copy is what crosses the boundary
	return out
}
