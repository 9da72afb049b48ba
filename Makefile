# Developer entry points for the tier-1 verify + static-analysis
# pipeline. CI (.github/workflows/ci.yml) runs the same steps; `make`
# with no arguments runs everything.

GO ?= go

.PHONY: all build test race race-stress lint fmt vet vet-baseline vet-sarif check chaos-smoke soak-smoke soak-resume-smoke rail-smoke controller-smoke bench bench-smoke

all: check

## build: compile every package.
build:
	$(GO) build ./...

## test: run the tier-1 test suite.
test:
	$(GO) test ./...

## race: run the test suite under the race detector.
race:
	$(GO) test -race -timeout 20m ./...

## race-stress: the scheduling-dependent tests — Fig5's
## parallel-vs-sequential planning, the auditor's differential against
## the reference sweep, the daemon's concurrent connections and
## pipelined frames over one buffered reader, the event queue's
## differential against container/heap, and soak trials writing their
## checkpoints concurrently through the shared kill/resume trial runner —
## under the race detector, 20 times at each of 1, 2 and 8 Ps, so a
## trial that shares mutable state with another fails every time
## rather than one run in several.
race-stress:
	$(GO) test -race -count=20 -cpu 1,2,8 -run '^TestFig5ParallelMatchesSequential$$' ./internal/experiments
	$(GO) test -race -count=20 -cpu 1,2,8 -run '^(TestAuditMatchesReference|FuzzDisjointness)$$' ./internal/invariant
	$(GO) test -race -count=20 -cpu 1,2,8 -run '^(TestDaemonConcurrentClients|TestServeConnPipelinedFrames)$$' ./internal/ctrl
	$(GO) test -race -count=20 -cpu 1,2,8 -run '^TestQueueMatchesContainerHeap$$' ./internal/evloop
	$(GO) test -race -count=20 -cpu 1,2,8 -run '^TestKillResumeCSVIdentical$$' ./cmd/lightpath-sim

## lint: formatting check, go vet, and the repo-specific analyzers
## (per-analyzer counts printed; unbaselined error findings fail).
lint: fmt vet
	$(GO) run ./cmd/lightpath-vet -counts ./...

## vet-baseline: accept the current lightpath-vet findings as known
## debt by regenerating vet_baseline.json. Review the diff before
## committing — every entry is a suppressed finding.
vet-baseline:
	$(GO) run ./cmd/lightpath-vet -write-baseline ./...

## vet-sarif: write the suite's findings as SARIF 2.1.0 to vet.sarif
## for code-scanning upload.
vet-sarif:
	$(GO) run ./cmd/lightpath-vet -sarif ./... > vet.sarif || true

## fmt: fail if any file needs gofmt.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; \
	fi

## vet: run the standard Go vet suite.
vet:
	$(GO) vet ./...

## chaos-smoke: run the fault-injection experiment with the pinned seed
## — once parallel, once sequential — and diff both CSVs against the
## committed golden. Any divergence means the failure lifecycle lost
## bit-for-bit determinism (or the parallel engine broke its contract).
chaos-smoke:
	@tmp=$$(mktemp -d); rc=0; \
	for par in true false; do \
		$(GO) run ./cmd/lightpath-sim chaos -seed 2024 -trials 8 -n 262144 -parallel=$$par -csv $$tmp >/dev/null && \
		diff -u cmd/lightpath-sim/testdata/chaos_golden.csv $$tmp/chaos.csv || rc=1; \
	done; rm -rf $$tmp; \
	if [ $$rc -ne 0 ]; then echo "chaos CSV diverged from golden (seed 2024)" >&2; exit 1; fi

## soak-smoke: run the fleet availability soak with the pinned seed —
## once parallel, once sequential, both under the race detector — and
## diff the CSVs against the committed golden. Every trial runs with
## the Paranoid invariant auditor; a nonzero violation count shows up
## as a golden diff in the violations column, and lost determinism as
## any other diff.
soak-smoke:
	@tmp=$$(mktemp -d); rc=0; \
	for par in true false; do \
		$(GO) run -race ./cmd/lightpath-sim soak -seed 2024 -trials 2 -parallel=$$par -csv $$tmp >/dev/null && \
		diff -u cmd/lightpath-sim/testdata/soak_golden.csv $$tmp/soak.csv || rc=1; \
	done; rm -rf $$tmp; \
	if [ $$rc -ne 0 ]; then echo "soak CSV diverged from golden (seed 2024)" >&2; exit 1; fi

## soak-resume-smoke: the crash-recovery gate — run the soak campaign
## with per-trial checkpoints, kill every trial at a mid-run event
## boundary, resume from the checkpoints, and diff the resumed CSV
## byte-for-byte against the same golden the uninterrupted soak-smoke
## uses. Both parallel modes, under the race detector: a resumed soak
## must be indistinguishable from one that never crashed.
soak-resume-smoke:
	@tmp=$$(mktemp -d); rc=0; \
	for par in true false; do \
		ck=$$tmp/ck-$$par; mkdir -p $$ck; \
		$(GO) run -race ./cmd/lightpath-sim soak -seed 2024 -trials 2 -parallel=$$par \
			-checkpoint $$ck -ckpt-interval 50 -kill-at 160 >/dev/null && \
		$(GO) run -race ./cmd/lightpath-sim soak -seed 2024 -trials 2 -parallel=$$par \
			-checkpoint $$ck -resume -csv $$tmp >/dev/null && \
		diff -u cmd/lightpath-sim/testdata/soak_golden.csv $$tmp/soak.csv || rc=1; \
	done; rm -rf $$tmp; \
	if [ $$rc -ne 0 ]; then echo "resumed soak CSV diverged from golden (seed 2024)" >&2; exit 1; fi

## rail-smoke: run the acceptance-scale rail campaign (10,240
## endpoints, 1,310,720 flows through the component-sharded solver) —
## once parallel, once sequential, both under the race detector — and
## diff the CSVs against the committed golden. Any divergence means
## the sharded solve lost byte-for-byte parallel/sequential identity.
rail-smoke:
	@tmp=$$(mktemp -d); rc=0; \
	for par in true false; do \
		$(GO) run -race ./cmd/lightpath-sim rail -parallel=$$par -csv $$tmp >/dev/null && \
		diff -u cmd/lightpath-sim/testdata/rail_golden.csv $$tmp/rail.csv || rc=1; \
	done; rm -rf $$tmp; \
	if [ $$rc -ne 0 ]; then echo "rail CSV diverged from golden" >&2; exit 1; fi

## controller-smoke: the daemon gate. First the lightpath-controller
## binary's selfcheck drill under the race detector: a real daemon on
## a loopback port driven through every rung of the robustness ladder
## (hostile frame, impossible deadlines, chip death -> breaker trips,
## overload shedding, checkpoint -> kill -> resume). Then the pinned-
## seed load campaign — 256k requests across 256 agents — in both
## -parallel modes, diffed byte-for-byte against the committed golden.
## Finally crash injection: kill every trial at a mid-run event
## boundary, resume from the checkpoints, and demand the resumed CSV
## be identical to the uninterrupted golden. (The full-scale race pass
## over this code runs in `make race` via the ctrl package tests; the
## campaign itself runs without -race to keep the gate under two
## minutes.)
controller-smoke:
	@tmp=$$(mktemp -d); rc=0; \
	$(GO) run -race ./cmd/lightpath-controller -selfcheck >/dev/null || rc=1; \
	for par in true false; do \
		$(GO) run ./cmd/lightpath-sim controller -seed 2024 -trials 2 -parallel=$$par -csv $$tmp >/dev/null && \
		diff -u cmd/lightpath-sim/testdata/controller_golden.csv $$tmp/controller.csv || rc=1; \
	done; \
	ck=$$tmp/ck; mkdir -p $$ck; \
	$(GO) run ./cmd/lightpath-sim controller -seed 2024 -trials 2 -checkpoint $$ck -kill-at 100000 >/dev/null && \
	$(GO) run ./cmd/lightpath-sim controller -seed 2024 -trials 2 -checkpoint $$ck -resume -csv $$tmp >/dev/null && \
	diff -u cmd/lightpath-sim/testdata/controller_golden.csv $$tmp/controller.csv || rc=1; \
	rm -rf $$tmp; \
	if [ $$rc -ne 0 ]; then echo "controller smoke diverged (seed 2024)" >&2; exit 1; fi

## bench: run one pass of every benchmark with allocation stats; write
## the structured report to BENCH.json (B/op, allocs/op, and each
## benchmark's deterministic paper metric; ns/op is dropped). The 100ms
## budget keeps the second-scale campaign benchmarks at one iteration
## while the micro-benchmarks average allocs/op over many. -cpu 1 pins
## the engine to one worker, so every allocation count is the same on
## every host. Wall-clock numbers come from benchmark/, not from here.
BENCH_CMD = $(GO) test -run '^$$' -bench . -benchmem -benchtime 100ms -cpu 1 ./internal/...
bench:
	$(BENCH_CMD) | $(GO) run ./cmd/lightpath-bench -o BENCH.json

## bench-smoke: the regression gate CI runs — the same pass, whose
## paper metrics must match the committed BENCH_baseline.json bit for
## bit and whose allocs/op may not exceed it by more than 1.10x.
## Regenerate the baseline with `make bench && cp BENCH.json
## BENCH_baseline.json` and review the diff.
bench-smoke:
	$(BENCH_CMD) | $(GO) run ./cmd/lightpath-bench -baseline BENCH_baseline.json

## check: everything CI runs, in the same order.
check: build lint race race-stress chaos-smoke soak-smoke soak-resume-smoke rail-smoke controller-smoke bench-smoke
