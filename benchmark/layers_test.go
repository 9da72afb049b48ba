package benchmark

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"lightpath/internal/ctrl"
	"lightpath/internal/ctrl/loadgen"
	"lightpath/internal/unit"
)

// This file turns a traced run into the per-layer metrics. Every
// workload emits every metric; a layer a workload never reaches reads 0
// (counts and shares) or, for the span and replay timings of the
// in-process campaign, is read from a loopback probe of the campaign's
// own controller configuration.

// statePasses is how many times the live-state audit and checkpoint
// save are timed; the median is reported.
const statePasses = 9

// emitServeTrace reports a traced daemon run's per-layer metrics.
func emitServeTrace(rep *report, run *serveRun, spec serveSpec) error {
	dir, err := os.MkdirTemp("", "lightpath-bench-state-")
	if err != nil {
		return err
	}
	defer func() { _ = os.RemoveAll(dir) }()
	if err := emitState(rep, run.d.srv, dir); err != nil {
		return err
	}
	if err := emitSpans(rep, run, spec); err != nil {
		return err
	}
	st := run.d.srv.Stats()
	emitOutcomes(rep, st.Arrivals, st.Served, st.Shed, st.DeadlineMiss, st.BreakerRejects, st.NoPath)
	emitCache(rep, st.PlanCacheHits, st.PlanCacheMisses)
	rep.set("loadgen.events_per_round", 0, "count")
	rep.set("loadgen.retries_per_round", 0, "count")
	rep.set("loadgen.lost_per_round", 0, "count")
	rep.set("chaos.faults_per_round", 0, "count")
	rep.set("snapshot.ckpt_share", 0, "%")
	emitRuntime(rep, run.trace, int64(len(run.rounds)*conns*run.perReq))
	return nil
}

// emitCampaignTrace reports the campaign's per-layer metrics over the
// timed rounds' trials. last is the last round's trial, whose final
// checkpoint is at ckptPath. The span and replay rows come from a
// loopback probe of probePerConn requests per connection.
func emitCampaignTrace(rep *report, last loadgen.Config, timed []campaignRound, tr *serveTrace, ckptPath, dir string, probePerConn int) error {
	rep.set("trace.ops_per_s", servedPerSecond(timed, &calibration{}), "1/s")
	var sum loadgen.Result
	var plain, trial []float64
	for _, r := range timed {
		sum.Attempts += r.res.Attempts
		sum.Served += r.res.Served
		sum.Shed += r.res.Shed
		sum.DeadlineMiss += r.res.DeadlineMiss
		sum.BreakerRejects += r.res.BreakerRejects
		sum.NoPath += r.res.NoPath
		sum.Retries += r.res.Retries
		sum.Lost += r.res.Lost
		sum.Faults += r.res.Faults
		sum.Events += r.res.Events
		sum.CacheHits += r.res.CacheHits
		sum.CacheMisses += r.res.CacheMisses
		plain = append(plain, r.noCkpt.Seconds()/r.elapsed.Seconds())
		trial = append(trial, r.elapsed.Seconds())
	}
	rep.set("trace.round_s", median(trial), "s")
	rep.set("snapshot.ckpt_share", 100*(1-median(plain)), "%")

	srv, err := restoreCampaignServer(last, ckptPath)
	if err != nil {
		return err
	}
	if err := emitState(rep, srv, dir); err != nil {
		return err
	}

	// The campaign has no wire: spans and replay come from a short
	// loopback probe of a daemon with the campaign's controller config.
	srvCfg := last.Ctrl
	srvCfg.Seed = last.Seed
	spec := serveSpec{
		cfg:     srvCfg,
		tick:    last.MeanInterarrival / unit.Seconds(last.Agents),
		release: true,
	}
	probe, err := driveServe(spec, last.Seed, driveOpts{rounds: 1, perConn: probePerConn, trace: true})
	if err != nil {
		return fmt.Errorf("campaign loopback probe: %w", err)
	}
	if _, _, failed, bad := probe.totals(); failed > 0 {
		rep.fail("campaign loopback probe: %d request(s) failed; first: %s", failed, bad)
	}
	if err := emitSpans(rep, probe, spec); err != nil {
		return err
	}

	n := float64(len(timed))
	emitOutcomes(rep, sum.Attempts, sum.Served, sum.Shed, sum.DeadlineMiss, sum.BreakerRejects, sum.NoPath)
	emitCache(rep, sum.CacheHits, sum.CacheMisses)
	rep.set("loadgen.events_per_round", float64(sum.Events)/n, "count")
	rep.set("loadgen.retries_per_round", float64(sum.Retries)/n, "count")
	rep.set("loadgen.lost_per_round", float64(sum.Lost)/n, "count")
	rep.set("chaos.faults_per_round", float64(sum.Faults)/n, "count")
	emitRuntime(rep, tr, 2*int64(sum.Attempts)) // each trial ran with and without checkpoints
	return nil
}

// emitSpans reports the per-request span table of a traced daemon run
// and the replay of its captured requests.
func emitSpans(rep *report, run *serveRun, spec serveSpec) error {
	var calls int64
	var callSum time.Duration
	var p50, p99, p999 []float64
	for _, s := range run.rounds {
		callSum += s.sum
		calls += int64(s.calls)
		p50 = append(p50, micros(s.p50))
		p99 = append(p99, micros(s.p99))
		p999 = append(p999, micros(s.p999))
	}
	nc := run.trace.net
	call := micros(callSum) / float64(calls)
	handle := ratio(float64(nc.handleNs), float64(nc.frames)) / 1e3
	write := ratio(float64(nc.writeNs), float64(nc.frames)) / 1e3
	rep.set("client.call_us", call, "us")
	rep.set("server.handle_us", handle, "us")
	rep.set("server.write_us", write, "us")
	rep.set("net.loopback_us", call-handle-write, "us")
	rep.set("net.syscalls_per_req", ratio(float64(nc.reads+nc.writes), float64(calls)), "count")
	rep.set("client.p50_us", median(p50), "us")
	rep.set("tail.p99_us", median(p99), "us")
	rep.set("tail.p999_us", fastQuartile(p999, false), "us")

	rp, err := replayStream(run.rec.exchanges(), spec)
	if err != nil {
		return err
	}
	rep.set("wire.decode_ns", rp.decodeNs, "ns")
	rep.set("wire.encode_ns", rp.encodeNs, "ns")
	rep.set("ctrl.submit_ns", rp.submitNs, "ns")
	rep.set("ctrl.admit_ns", rp.admitNs, "ns")
	rep.set("route.establish_ns", rp.establishNs, "ns")
	rep.set("route.release_ns", rp.releaseNs, "ns")
	rep.set("handler.lock_wait_us", handle-(rp.decodeNs+rp.submitNs+rp.encodeNs)/1e3, "us")
	rep.set("replay.requests", float64(rp.requests), "count")
	return nil
}

// emitState times an invariant audit and a checkpoint save on a
// server's live state.
func emitState(rep *report, srv *ctrl.Server, dir string) error {
	st := srv.Stats()
	aud := srv.Auditor()
	rep.set("invariant.audits_per_kop", 1e3*ratio(float64(aud.Audits()), float64(st.Arrivals)), "count")
	var audit, save []float64
	for i := 0; i < statePasses; i++ {
		start := time.Now()
		violations := aud.Audit("benchmark")
		audit = append(audit, micros(time.Since(start)))
		if len(violations) > 0 {
			rep.fail("audit of the final state found %d violation(s): %v", len(violations), violations[0])
		}
	}
	path := filepath.Join(dir, "state.ckpt")
	for i := 0; i < statePasses; i++ {
		start := time.Now()
		if err := srv.SaveCheckpoint(path); err != nil {
			return err
		}
		save = append(save, micros(time.Since(start)))
	}
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	rep.set("invariant.audit_us", median(audit), "us")
	rep.set("snapshot.save_us", median(save), "us")
	rep.set("snapshot.bytes", float64(info.Size()), "bytes")
	return nil
}

// emitOutcomes reports each admission outcome's share of all arrivals,
// with the arrival count as their base.
func emitOutcomes(rep *report, arrivals, ok, shed, deadline, breaker, noPath int) {
	n := float64(arrivals)
	rep.set("ctrl.arrivals", n, "count")
	rep.set("ctrl.ok_ratio", ratio(float64(ok), n), "ratio")
	rep.set("ctrl.shed_ratio", ratio(float64(shed), n), "ratio")
	rep.set("ctrl.deadline_ratio", ratio(float64(deadline), n), "ratio")
	rep.set("ctrl.breaker_ratio", ratio(float64(breaker), n), "ratio")
	rep.set("route.nopath_ratio", ratio(float64(noPath), n), "ratio")
}

// emitCache reports the route-plan cache hit ratio with its lookup
// count.
func emitCache(rep *report, hits, misses uint64) {
	lookups := float64(hits + misses)
	rep.set("route.plan_cache_lookups", lookups, "count")
	rep.set("route.plan_cache_hit_ratio", ratio(float64(hits), lookups), "ratio")
}

// emitRuntime reports the timed rounds' memory, allocation, GC and
// CPU-profile figures over ops operations.
func emitRuntime(rep *report, tr *serveTrace, ops int64) {
	rep.set("runtime.peak_rss_mb", tr.rssMB, "MB")
	rep.set("runtime.allocs_per_op", ratio(float64(tr.mallocs), float64(ops)), "count")
	rep.set("runtime.gc_per_kop", 1e3*ratio(float64(tr.gcs), float64(ops)), "count")
	rep.set("runtime.gc_pause_p99_us", micros(tr.gcP99), "us")
	for _, layer := range cpuLayers {
		rep.set("cpu."+layer, tr.shares[layer], "%")
	}
}
