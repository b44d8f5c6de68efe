GO ?= go

.PHONY: tier1 fmt-check vet build perfbench-build test race golden obs-smoke robust-smoke serve-smoke snapfork-smoke fabric-smoke trace-smoke predictor-smoke bench bench-smoke bench-compare bench-go

# tier1 is the gate every change must pass: formatting, vet, a full
# build, a build of the benchmark module, the test suite under the race
# detector (including the golden behaviour lock), the observability
# smoke, the fault-injection smoke, the serving-layer smoke, and a
# benchmark smoke run proving the throughput harness still executes
# every generation, and the snapshot/fork smoke pinning warm-state
# bit-identity.
tier1: fmt-check vet build perfbench-build race obs-smoke robust-smoke serve-smoke snapfork-smoke fabric-smoke trace-smoke predictor-smoke bench-smoke

fmt-check:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# perfbench-build vets and builds the benchmark module (perfbench/, its
# own go.mod), which imports internal packages: an API change there
# fails here instead of only when the benchmark runs.
perfbench-build:
	cd perfbench && $(GO) vet . && $(GO) build -o /dev/null .

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# golden rewrites the behaviour lock, testdata/golden/tiny.json, from the
# current model. TestGoldenTiny (run by test and race) diffs against it;
# regenerate only for an intentional model change, and name the numbers
# that moved in CHANGES.md.
golden:
	$(GO) test -run '^TestGoldenTiny$$' -count=1 . -update

# obs-smoke races the observability primitives: concurrent registry
# registration vs snapshot vs lock-free histogram recording, span-tracer
# ring behavior, and the zero-allocation guards for the disabled paths.
obs-smoke:
	$(GO) test -race ./internal/obs/...

# robust-smoke drives the sweep-robustness layer's fault-injection tests
# under the race detector: injected panics, livelocks, and corrupted
# results must quarantine cleanly even when workers race.
robust-smoke:
	$(GO) test -race ./internal/robust/...

# serve-smoke exercises the exyserve daemon's HTTP surface under the
# race detector: concurrent pooled sweeps must stay bit-identical to
# sequential runs, the queue must shed load with 429s, drain must
# finish (or checkpoint) in-flight jobs, the job table must stay bounded,
# and request and upload bodies must be capped.
serve-smoke:
	$(GO) test -race ./internal/serve/...

# snapfork-smoke races the warm-state snapshot/fork protocol: forked
# runs must be bit-identical to cold re-warms for every generation, the
# sweep API must produce identical results with and without a warm
# cache, the steady-state step loop must not allocate and a whole
# guarded slice replay must allocate a constant few objects, and the
# block zero scans must encode byte-identical images. It also races
# the reuse caches' admission rules: a pair's warm image is captured on
# its second warmup only, the "seen once" set stays bounded, and the
# simulator pool keeps at most seven configurations idle, with no
# M1-M6 rebuilds while one-shot M7 jobs pass through a server.
snapfork-smoke:
	$(GO) test -race -run 'TestWarmForkMatchesColdRerun|TestRunWithWarmSnapshotsBitIdentical|TestDecodedStepLoopDoesNotAllocate|TestStepLoopDoesNotAllocate|TestRunGuardedAllocsConstant' . && \
	$(GO) test -race -run 'TestZeroScan|TestClearDirty' ./internal/snapshot/ && \
	$(GO) test -race -run 'TestWarmAdmission|TestSimPoolBound' ./internal/experiments/ && \
	$(GO) test -race -run 'TestSliceJobMatchesDirectRun|TestAdmissionMetricsExported' ./internal/serve/

# fabric-smoke races the distributed sweep fabric end to end: shard
# planning/merge bit-identity under random partitions, the coordinator's
# lease/steal/cache protocol, parked leases (woken by a submit and by
# every requeue, bounded waits, a worker that never spins, drain
# releasing parked leases in process and over HTTP), and a 3-worker
# HTTP sweep with a worker killed mid-sweep whose lease must be stolen
# and whose merged result must stay byte-identical to a single-process
# run.
fabric-smoke:
	$(GO) test -race -run 'TestFabric|TestMergeShards|TestPlanShards' \
		./internal/fabric/... ./internal/serve/ ./internal/experiments/

# trace-smoke races the real-trace pipeline end to end: streaming
# ChampSim decode and SimPoint slicing of the committed fixture, the
# content-addressed store (ingest, dedup, bundle round-trip, eviction),
# weighted aggregation and its checkpoint/shard-merge bit-identity, and
# the upload -> weighted fabric sweep whose workers fetch the population
# over HTTP.
trace-smoke:
	$(GO) test -race ./internal/tracestore/... && \
	$(GO) test -race -run 'TestWeighted|TestTracePopulation|TestTraceShard|TestChampSim' ./internal/experiments/ ./internal/trace/ && \
	$(GO) test -race -run 'TestTracePipelineEndToEnd' ./internal/serve/

# predictor-smoke races the pluggable predictor lab end to end: the
# spec/registry wire round-trip, TAGE-SC-L and ITTAGE learning plus the
# Reset bit-identity pooling contract, the golden-MPKI fixture, the
# hypothetical-generation (M7) sweep bit-identity across plain, pooled/
# warm-forked, and merged-shard machinery, and the versioned job-request
# schema compat plus the three-path M7 serve acceptance.
predictor-smoke:
	$(GO) test -race -run 'TestPredictor|TestTAGE|TestITTAGE|TestFrontendM7|TestHypothetical|TestM7' \
		./internal/branch/ ./internal/experiments/ ./internal/serve/

# bench measures per-generation simulator throughput (min-of-5 batches)
# plus the population-scale RunPopulation sweep, and rewrites the
# committed baseline.
bench:
	$(GO) run ./cmd/exybench run --out=BENCH_throughput.json

# bench-smoke is the tier1 variant: one tiny batch per generation plus a
# tiny-spec population sweep, no baseline rewrite. It proves the harness
# (including the worker pools and simulator recycling) runs, not how fast.
bench-smoke:
	$(GO) run ./cmd/exybench run --smoke --out=""

# bench-compare re-measures the current build and fails on a >30%
# throughput regression against the committed baseline — both the
# per-generation rows and the population entry (the margin absorbs
# shared-machine noise; real hot-path regressions are larger).
bench-compare:
	$(GO) run ./cmd/exybench compare --base=BENCH_throughput.json

# bench-go runs the full Go benchmark suite (figures + throughput).
bench-go:
	$(GO) test -bench=. -benchtime=1x -run=NONE .
