package ctrl

import (
	"errors"
	"fmt"
	"strconv"

	"lightpath/internal/chaos"
	"lightpath/internal/invariant"
	"lightpath/internal/rng"
	"lightpath/internal/route"
	"lightpath/internal/unit"
	"lightpath/internal/wafer"
)

// Config parameterizes a controller. The zero value of every field
// gets a sensible default from withDefaults, so Config{Seed: s} is a
// runnable controller.
type Config struct {
	// Seed drives the allocator's stochastic stitch-loss stream. Two
	// controllers with the same Config are bit-for-bit identical.
	Seed uint64
	// Wafers is the rack's wafer count (default 2); WaferConfig its
	// per-wafer geometry (default wafer.DefaultConfig).
	Wafers      int
	WaferConfig wafer.Config
	// QueueCap bounds the admitted-but-unfinished request backlog;
	// arrivals beyond it are shed with ErrOverloaded (default 512).
	QueueCap int
	// EstablishService is the modeled controller service time of an
	// establish; with releaseService and rerouteService it is what
	// advances the virtual clock (default 2 us).
	EstablishService unit.Seconds
	// Audit selects the invariant auditor's mode (default Sampled).
	Audit invariant.Mode
}

// DefaultConfig returns the standard controller tuning: a two-wafer
// rack, a 512-request queue, microsecond-scale service times and
// sampled invariant auditing.
func DefaultConfig() Config {
	return Config{
		Wafers:           2,
		WaferConfig:      wafer.DefaultConfig(),
		QueueCap:         512,
		EstablishService: 2 * unit.Microsecond,
		Audit:            invariant.Sampled,
	}
}

// withDefaults fills zero fields from DefaultConfig.
func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Wafers <= 0 {
		c.Wafers = d.Wafers
	}
	if c.WaferConfig == (wafer.Config{}) {
		c.WaferConfig = d.WaferConfig
	}
	if c.QueueCap <= 0 {
		c.QueueCap = d.QueueCap
	}
	if c.EstablishService <= 0 {
		c.EstablishService = d.EstablishService
	}
	if c.Audit == 0 {
		c.Audit = d.Audit
	}
	return c
}

// Stats are the controller's lifetime counters. Every terminal outcome
// of a request increments exactly one of Served/Shed/DeadlineMiss/
// BreakerRejects/NoPath/EndpointFailed/UnknownCircuit/BadRequest.
type Stats struct {
	// Arrivals counts every submitted request, health included.
	Arrivals int
	// Served counts successful establish/release/reroute/health
	// responses.
	Served int
	// Shed, DeadlineMiss and BreakerRejects count the admission-layer
	// rejections (ErrOverloaded, ErrDeadlineExceeded, ErrBreakerOpen).
	Shed, DeadlineMiss, BreakerRejects int
	// NoPath and EndpointFailed count allocator-level setup failures.
	NoPath, EndpointFailed int
	// UnknownCircuit and BadRequest count semantically invalid
	// requests.
	UnknownCircuit, BadRequest int
	// FaultsApplied, Reroutes and CircuitsLost track the fault path:
	// faults applied to the fabric, broken circuits transparently
	// rerouted, and circuits whose reroute failed, lost outright.
	FaultsApplied, Reroutes, CircuitsLost int
	// PlanCacheHits and PlanCacheMisses are always 0: the allocator
	// keeps no route-plan cache and enumerates its plans on every
	// establish. They remain only until the benchmark's per-layer
	// report stops reading them.
	PlanCacheHits, PlanCacheMisses uint64
}

// Server is the controller core: a deterministic, virtual-time request
// processor owning one allocator/auditor pair. It is not safe for
// concurrent use — the transport layer (Handler) serializes access,
// exactly as the allocator below it requires.
type Server struct {
	cfg   Config
	alloc *route.Allocator
	aud   *invariant.Auditor
	// breakers holds one breaker per chip by value, each starting as
	// the closed zero value; breakerFor hands out pointers into it, so
	// it is sized once and never appended to.
	breakers []Breaker

	now unit.Seconds // virtual clock: latest observed event time
	// pending holds the completion times of admitted, unfinished work
	// in commit order. Each commit starts no earlier than the one
	// before it finishes, so the times strictly increase and the last
	// is when all admitted work completes.
	pending []unit.Seconds

	// regionScratch backs health responses' Regions slice; see Submit.
	regionScratch []RegionHealth
	// queueFullDetail is the precomputed shed message — shedding happens
	// at full arrival rate during overload, too hot for Sprintf.
	queueFullDetail string

	stats Stats
}

// NewServer builds a controller over a fresh rack.
func NewServer(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	rack, err := wafer.NewRack(cfg.WaferConfig, cfg.Wafers)
	if err != nil {
		return nil, fmt.Errorf("ctrl: %w", err)
	}
	alloc := route.NewAllocator(rack, rng.New(cfg.Seed).Split("ctrl/loss"))
	// One breaker per chip: failures concentrate at the tile whose
	// lasers or ports are exhausted (or whose chip died), so tripping
	// at chip granularity sheds exactly the unroutable load without
	// collateral rejection of the rest of the fabric.
	s := &Server{
		cfg:             cfg,
		alloc:           alloc,
		aud:             invariant.Attach(alloc, cfg.Audit),
		breakers:        make([]Breaker, rack.NumChips()),
		queueFullDetail: "queue full (cap " + strconv.Itoa(cfg.QueueCap) + ")",
	}
	return s, nil
}

// Config returns the server's resolved configuration.
func (s *Server) Config() Config { return s.cfg }

// Stats returns a copy of the lifetime counters.
func (s *Server) Stats() Stats {
	return s.stats
}

// Auditor returns the invariant auditor watching the allocator.
func (s *Server) Auditor() *invariant.Auditor { return s.aud }

// Allocator returns the underlying allocator (read-only use: tests and
// health reporting).
func (s *Server) Allocator() *route.Allocator { return s.alloc }

// Clock returns the virtual clock's current position.
func (s *Server) Clock() unit.Seconds { return s.now }

// BreakerTrips totals the lifetime trip count across regions.
func (s *Server) BreakerTrips() int {
	total := 0
	for i := range s.breakers {
		total += s.breakers[i].Trips()
	}
	return total
}

// AdvanceTo moves the virtual clock forward to t (never backward) and
// retires completed work from the backlog.
func (s *Server) AdvanceTo(t unit.Seconds) {
	if t > s.now {
		s.now = t
	}
	i := 0
	for i < len(s.pending) && s.pending[i] <= s.now {
		i++
	}
	if i > 0 {
		s.pending = append(s.pending[:0], s.pending[i:]...)
	}
}

// Submit processes one request arriving at virtual time `arrival`
// (clamped to the clock — arrivals are processed in time order) and
// returns the response together with the request's completion time.
// Rejected requests complete at their arrival instant.
//
// The whole body runs at request rate, so it is hot-marked: every
// buffer it touches must be server-owned scratch, and every rejection
// Detail a precomputed string. Only the cold validate/setup-fallback
// paths (out of the marked body) may format.
//
//lightpath:hotloop
func (s *Server) Submit(req Request, arrival unit.Seconds) (Response, unit.Seconds) {
	s.AdvanceTo(arrival)
	arrival = s.now
	s.stats.Arrivals++
	resp := Response{ID: req.ID}

	// Health bypasses admission entirely: an overloaded controller
	// must still answer "how overloaded are you?".
	if req.Op == OpHealth {
		s.stats.Served++
		resp.Status = StatusOK
		resp.Queue = len(s.pending)
		resp.Circuits = s.alloc.NumCircuits()
		// The response aliases server-owned scratch, valid until the next
		// Submit — the serialize-before-next-request contract every
		// transport (Handler encodes immediately) already satisfies.
		resp.Regions = s.regions(len(s.breakers))
		for i := range s.breakers {
			b := &s.breakers[i]
			resp.Regions[i] = RegionHealth{State: b.State(), Trips: b.Trips()}
		}
		return resp, arrival
	}

	held, status, detail := s.validate(req)
	if status != StatusOK {
		if status == StatusUnknownCircuit {
			s.stats.UnknownCircuit++
		} else {
			s.stats.BadRequest++
		}
		resp.Status = status
		resp.Detail = detail
		return resp, arrival
	}

	// Admission control: the bounded queue sheds before any work is
	// committed. Backpressure, not buffering, is the contract. Release
	// is exempt — shedding the work that frees capacity would turn
	// transient overload into a capacity leak.
	if req.Op != OpRelease && len(s.pending) >= s.cfg.QueueCap {
		s.stats.Shed++
		resp.Status = StatusOverloaded
		resp.Detail = s.queueFullDetail
		return resp, arrival
	}

	start := arrival
	if n := len(s.pending); n > 0 {
		start = max(start, s.pending[n-1])
	}
	service := s.serviceTime(req.Op)
	finish := start + service

	// Deadline: known before any allocator work, because the queue
	// model tells us exactly when service would complete.
	if req.Deadline > 0 && finish-arrival > req.Deadline {
		s.stats.DeadlineMiss++
		resp.Status = StatusDeadline
		// Static: under backlog every deadline-bearing arrival misses, and
		// the caller's own request carries the budget it quoted.
		resp.Detail = "queue wait plus service time exceeds deadline"
		return resp, arrival
	}

	// Breaker: establish and reroute do pathfinding work the breaker
	// protects; release always passes (freeing resources must never
	// fail fast).
	var brk *Breaker
	if req.Op == OpEstablish || req.Op == OpReroute {
		brk = s.breakerFor(req, held)
		if brk.Allow(start) != nil {
			s.stats.BreakerRejects++
			resp.Status = StatusBreakerOpen
			// The status already names the sentinel; the detail carries
			// only the phase, so the client-side rewrap (Response.Err)
			// does not repeat "circuit breaker open" twice.
			resp.Detail = "cooling down"
			return resp, arrival
		}
	}

	// The request is committed: it consumes controller time whether
	// the allocator succeeds or not (a failed path search is work).
	s.pending = append(s.pending, finish)

	if req.Op == OpRelease {
		s.alloc.Release(held)
		s.stats.Served++
		resp.Status = StatusOK
		resp.Circuit = req.Circuit
		return resp, finish
	}

	// Establish and reroute share one path: a reroute frees its
	// circuit and asks for the same endpoints and width again.
	rr := route.Request{A: req.A, B: req.B, Width: req.Width}
	if req.Op == OpReroute {
		rr = route.Request{A: held.A, B: held.B, Width: held.Width}
		s.alloc.Release(held)
	}
	c, err := s.alloc.Establish(rr, start)
	if err != nil {
		brk.Failure(start)
		resp.Status = statusOf(err)
		resp.Detail = setupDetail(resp.Status, err)
		s.countSetupFailure(err)
		return resp, finish
	}
	brk.Success()
	s.stats.Served++
	resp.Status = StatusOK
	resp.Circuit = c.ID
	resp.Width = c.Width
	return resp, finish
}

// regions returns the server-owned health scratch resized to n,
// growing the backing array only when a larger fleet appears (in
// practice: once, on the first health probe).
func (s *Server) regions(n int) []RegionHealth {
	if cap(s.regionScratch) < n {
		s.regionScratch = make([]RegionHealth, n)
	}
	return s.regionScratch[:n]
}

// validate classifies semantically invalid requests before they cost
// queue capacity. A valid release or reroute comes back with the
// circuit it names, looked up once here: nothing between validation
// and the allocator call can release it. An establish wider than a
// tile's lasers can never be served, so it is refused here rather than
// failing at the allocator, where it would count toward tripping its
// chip's breaker and fence off other clients' requests.
func (s *Server) validate(req Request) (*route.Circuit, Status, string) {
	switch req.Op {
	case OpEstablish:
		if req.Width <= 0 {
			return nil, StatusBadRequest, fmt.Sprintf("non-positive width %d", req.Width)
		}
		if lasers := s.cfg.WaferConfig.LasersPerTile; req.Width > lasers {
			return nil, StatusBadRequest, fmt.Sprintf("width %d exceeds the %d lasers of a tile", req.Width, lasers)
		}
		if req.A == req.B {
			return nil, StatusBadRequest, fmt.Sprintf("endpoints are the same chip %d", req.A)
		}
		n := s.alloc.Rack().NumChips()
		if req.A < 0 || req.A >= n || req.B < 0 || req.B >= n {
			return nil, StatusBadRequest, fmt.Sprintf("chip pair (%d,%d) out of range [0,%d)", req.A, req.B, n)
		}
	case OpRelease, OpReroute:
		c, ok := s.alloc.CircuitByID(req.Circuit)
		if !ok {
			return nil, StatusUnknownCircuit, fmt.Sprintf("circuit %d", req.Circuit)
		}
		return c, StatusOK, ""
	default:
		return nil, StatusBadRequest, fmt.Sprintf("unknown op %d", int(req.Op))
	}
	return nil, StatusOK, ""
}

// The modeled controller service times of a release and a reroute;
// an establish takes Config.EstablishService.
const (
	releaseService = 500 * unit.Nanosecond
	rerouteService = 3 * unit.Microsecond
)

// serviceTime returns the modeled controller service time per op.
func (s *Server) serviceTime(op Op) unit.Seconds {
	switch op {
	case OpRelease:
		return releaseService
	case OpReroute:
		return rerouteService
	default:
		return s.cfg.EstablishService
	}
}

// breakerFor maps a request to its fabric region's breaker: the chip
// (tile) anchoring the request's A endpoint (for reroute, that of the
// held circuit validate found).
func (s *Server) breakerFor(req Request, held *route.Circuit) *Breaker {
	chip := req.A
	if req.Op == OpReroute {
		chip = held.A
	}
	return &s.breakers[chip]
}

// countSetupFailure buckets an allocator setup error.
func (s *Server) countSetupFailure(err error) {
	if errors.Is(err, route.ErrEndpointFailed) {
		s.stats.EndpointFailed++
	} else {
		s.stats.NoPath++
	}
}

// setupDetail picks the response detail for an allocator setup
// failure. The two steady-state classes get static strings — on a
// saturated fabric a failed establish is the common case, and the
// allocator's no-path error formats its message lazily precisely so
// nobody pays for text that only names the class. Unclassified errors
// are rare and keep their full text.
func setupDetail(st Status, err error) string {
	switch st {
	case StatusNoPath:
		return "no feasible circuit path"
	case StatusEndpointFailed:
		return "circuit endpoint chip has failed"
	default:
		return err.Error()
	}
}

// statusOf maps an allocator error to its wire status.
func statusOf(err error) Status {
	switch {
	case errors.Is(err, route.ErrEndpointFailed):
		return StatusEndpointFailed
	case errors.Is(err, route.ErrNoPath):
		return StatusNoPath
	default:
		return StatusBadRequest
	}
}

// CircuitMove records one broken circuit's fate after a fault: NewID
// is -1 when the circuit was lost, and otherwise the ID of its
// reroute, which has the broken circuit's width.
type CircuitMove struct {
	OldID, NewID int
}

// ApplyFault applies one chaos fault to the fabric at virtual time
// `at` and reroutes every circuit it broke at its full width, or
// counts it lost. The wire interface stays stable throughout — clients
// keep their circuit IDs via the returned moves, one for every circuit
// the fault broke.
func (s *Server) ApplyFault(f chaos.Fault, at unit.Seconds) ([]CircuitMove, error) {
	s.AdvanceTo(at)
	broken, err := s.alloc.ApplyFault(f)
	if err != nil {
		return nil, fmt.Errorf("ctrl: apply fault: %w", err)
	}
	var moves []CircuitMove
	s.stats.FaultsApplied++
	for _, c := range broken {
		move := CircuitMove{OldID: c.ID, NewID: -1}
		nc, rerr := s.alloc.Establish(route.Request{A: c.A, B: c.B, Width: c.Width}, s.now)
		if rerr != nil {
			s.stats.CircuitsLost++
		} else {
			s.stats.Reroutes++
			move.NewID = nc.ID
		}
		moves = append(moves, move)
	}
	return moves, nil
}
