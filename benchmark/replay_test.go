package benchmark

import (
	"fmt"
	"time"

	"lightpath/internal/ctrl"
	"lightpath/internal/rng"
	"lightpath/internal/route"
	"lightpath/internal/snapshot"
	"lightpath/internal/unit"
	"lightpath/internal/wafer"
)

// This file replays a traced run's captured requests through each
// layer's public calls, on replicas, to split a request's server-side
// cost into wire decode, admission, route commit/release and wire
// encode.

// replayPasses is how many times each replay loop runs; the fast
// quartile of the passes is reported.
const replayPasses = 9

// replayed is the per-request cost of each layer over one stream.
type replayed struct {
	requests    int
	decodeNs    float64 // DecodeRequest
	encodeNs    float64 // EncodeResponseTo + AppendFrame
	submitNs    float64 // Server.Submit, admission plus everything below it
	admitNs     float64 // Server.Submit less its route and audit work
	routeNs     float64 // route work per request (establishes and releases)
	establishNs float64 // one route EstablishDegraded
	releaseNs   float64 // one route Release
	auditsPerOp float64 // sampled audits Server.Submit triggered per request
	auditNs     float64 // one audit pass over the replica's final state
}

// remapper rewrites the circuit IDs a captured stream refers to into
// the IDs a replica granted for the same establishes.
type remapper map[int]int

// request returns req with its circuit reference remapped; ok is false
// when the stream releases a circuit the replica never granted.
func (m remapper) request(req ctrl.Request) (ctrl.Request, bool) {
	if req.Op != ctrl.OpRelease && req.Op != ctrl.OpReroute {
		return req, true
	}
	id, ok := m[req.Circuit]
	req.Circuit = id
	return req, ok
}

// granted notes that the replica answered a request the captured
// stream answered with orig by got: a circuit both granted is the same
// circuit under two IDs.
func (m remapper) granted(op ctrl.Op, orig, got ctrl.Response) {
	if op != ctrl.OpEstablish && op != ctrl.OpReroute {
		return
	}
	if orig.Status == ctrl.StatusOK && got.Status == ctrl.StatusOK {
		m[orig.Circuit] = got.Circuit
	}
}

// routeOp is one allocator call a replayed request made.
type routeOp struct {
	establish bool
	req       route.Request
	circuit   int          // the server-side circuit ID granted or released
	at        unit.Seconds // the request's virtual arrival time
}

// replayStream decodes the captured exchanges, replays them on a fresh
// replica server to remap circuit IDs, and times each layer's calls.
func replayStream(ex []exchange, spec serveSpec) (replayed, error) {
	if len(ex) == 0 {
		return replayed{}, fmt.Errorf("replay: no captured exchanges")
	}
	payloads := make([][]byte, len(ex))
	orig := make([]ctrl.Response, len(ex))
	for i, e := range ex {
		payloads[i] = e.req
		resp, err := ctrl.DecodeResponse(e.resp)
		if err != nil {
			return replayed{}, fmt.Errorf("replay: captured response %d: %w", i, err)
		}
		orig[i] = resp
	}

	// Dry pass: decode, remap and note which requests reached the
	// allocator.
	srv, err := ctrl.NewServer(spec.cfg)
	if err != nil {
		return replayed{}, err
	}
	ids := remapper{}
	reqs := make([]ctrl.Request, 0, len(ex))
	resps := make([]ctrl.Response, 0, len(ex))
	var ops []routeOp
	arrival := srv.Clock()
	for i, p := range payloads {
		req, err := ctrl.DecodeRequest(p)
		if err != nil {
			return replayed{}, fmt.Errorf("replay: captured request %d: %w", i, err)
		}
		req, ok := ids.request(req)
		if !ok {
			return replayed{}, fmt.Errorf("replay: request %d releases circuit %d, which the replica never granted", i, req.Circuit)
		}
		resp, _ := srv.Submit(req, arrival)
		ids.granted(req.Op, orig[i], resp)
		reqs = append(reqs, req)
		resps = append(resps, resp)
		switch {
		case req.Op == ctrl.OpEstablish && reachedAllocator(resp.Status):
			ops = append(ops, routeOp{establish: true, req: route.Request{A: req.A, B: req.B, Width: req.Width}, circuit: resp.Circuit, at: arrival})
		case req.Op == ctrl.OpRelease && resp.Status == ctrl.StatusOK:
			ops = append(ops, routeOp{circuit: req.Circuit, at: arrival})
		}
		arrival += spec.tick
	}
	n := float64(len(reqs))
	out := replayed{requests: len(reqs), auditsPerOp: float64(srv.Auditor().Audits()) / n}
	out.auditNs = float64(timeEach(replayPasses, func() {
		sink += len(srv.Auditor().Audit("replay"))
	}))

	out.decodeNs = float64(timeEach(replayPasses, func() {
		for _, p := range payloads {
			req, _ := ctrl.DecodeRequest(p)
			sink += req.A
		}
	})) / n

	var enc snapshot.Encoder
	var frame []byte
	out.encodeNs = float64(timeEach(replayPasses, func() {
		for _, resp := range resps {
			enc.Reset()
			ctrl.EncodeResponseTo(&enc, resp)
			frame = ctrl.AppendFrame(frame[:0], enc.Bytes())
		}
	})) / n

	var submit []float64
	for pass := 0; pass < replayPasses; pass++ {
		srv, err := ctrl.NewServer(spec.cfg)
		if err != nil {
			return replayed{}, err
		}
		arrival := srv.Clock()
		start := time.Now()
		for _, req := range reqs {
			resp, _ := srv.Submit(req, arrival)
			arrival += spec.tick
			sink += resp.Circuit
		}
		submit = append(submit, float64(time.Since(start)))
	}
	out.submitNs = fastQuartile(submit, false) / n

	est, rel, total, err := replayRoute(ops, srv.Config())
	if err != nil {
		return replayed{}, err
	}
	out.establishNs, out.releaseNs, out.routeNs = est, rel, total/n
	out.admitNs = out.submitNs - out.routeNs - out.auditsPerOp*out.auditNs
	return out, nil
}

// sink receives the results of timed calls so the compiler keeps them.
var sink int

// reachedAllocator reports whether an establish with this status made
// an allocator call (admission rejections never do).
func reachedAllocator(st ctrl.Status) bool {
	return st == ctrl.StatusOK || st == ctrl.StatusNoPath || st == ctrl.StatusEndpointFailed
}

// replayRoute times the stream's allocator calls on replica allocators
// built like the server's (cfg is the server's resolved config),
// without the audit hook. Each pass times the whole stream once, then
// each call on its own, less the cost of reading the clock, on a second
// replica. Circuits the stream leaves open are then released and count
// towards the release time, so a stream without releases still
// measures one. It returns the mean establish and release times and the
// stream's total, all in ns.
func replayRoute(ops []routeOp, cfg ctrl.Config) (establishNs, releaseNs, streamNs float64, err error) {
	clock := clockCost()
	var est, rel, stream []float64
	for pass := 0; pass < replayPasses; pass++ {
		a, err := replicaAllocator(cfg)
		if err != nil {
			return 0, 0, 0, err
		}
		start := time.Now()
		playRoute(a, ops, nil)
		stream = append(stream, float64(time.Since(start)))

		if a, err = replicaAllocator(cfg); err != nil {
			return 0, 0, 0, err
		}
		var tEst, tRel time.Duration
		nEst, nRel := 0, 0
		playRoute(a, ops, func(establish bool, d time.Duration) {
			if establish {
				tEst += d - clock
				nEst++
			} else {
				tRel += d - clock
				nRel++
			}
		})
		for _, c := range a.Circuits() {
			start := time.Now()
			a.Release(c)
			tRel += time.Since(start) - clock
			nRel++
		}
		est = append(est, ratio(float64(tEst), float64(nEst)))
		rel = append(rel, ratio(float64(tRel), float64(nRel)))
	}
	return fastQuartile(est, false), fastQuartile(rel, false), fastQuartile(stream, false), nil
}

// replicaAllocator builds an allocator like the server's.
func replicaAllocator(cfg ctrl.Config) (*route.Allocator, error) {
	rack, err := wafer.NewRack(cfg.WaferConfig, cfg.Wafers)
	if err != nil {
		return nil, err
	}
	return route.NewAllocator(rack, rng.New(cfg.Seed).Split("ctrl/loss")), nil
}

// playRoute makes the stream's allocator calls on a, passing each
// call's duration to timed when it is not nil.
func playRoute(a *route.Allocator, ops []routeOp, timed func(establish bool, d time.Duration)) {
	held := map[int]*route.Circuit{}
	for _, op := range ops {
		c, ok := held[op.circuit]
		if !op.establish && !ok {
			continue
		}
		var start time.Time
		if timed != nil {
			start = time.Now()
		}
		if op.establish {
			if nc, _, err := a.EstablishDegraded(op.req, op.at); err == nil {
				held[op.circuit] = nc
			}
		} else {
			a.Release(c)
			delete(held, op.circuit)
		}
		if timed != nil {
			timed(op.establish, time.Since(start))
		}
	}
}

// clockCost is the median cost of one back-to-back time.Now/time.Since
// pair, subtracted from individually timed calls.
func clockCost() time.Duration {
	var ds []float64
	for i := 0; i < 1001; i++ {
		start := time.Now()
		ds = append(ds, float64(time.Since(start)))
	}
	return time.Duration(median(ds))
}
