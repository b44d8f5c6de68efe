GO ?= go

.PHONY: tier1 fmt-check vet build perfbench-build test race golden obs-smoke robust-smoke serve-smoke snapfork-smoke fabric-smoke trace-smoke predictor-smoke workload-smoke bench-go

# tier1 is the gate every change must pass: formatting, vet, a full
# build, a build of the benchmark module, the test suite under the race
# detector (including the golden behaviour lock), the observability
# smoke, the fault-injection smoke, the serving-layer smoke, the
# snapshot codec, step-loop allocation, population table and pool-bound
# smoke, and the workload
# smoke racing suite generation and the hinted table lookups at several
# widths.
tier1: fmt-check vet build perfbench-build race obs-smoke robust-smoke serve-smoke snapfork-smoke fabric-smoke trace-smoke predictor-smoke workload-smoke

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
# and request and upload bodies must be capped. A job request must stay
# within the request bounds too: a population past 4,096 slices, one
# (or a slice job's slice) past 2^26 trace entries and an M7 geometry
# past the branch caps answer 400, and FuzzJobRequest's seeds (the
# bodies the serve tests post, plus oversized ones such as millions of
# one-instruction slices) run the submit decode, resolve, hypoGens and
# jobDigest against both.
serve-smoke:
	$(GO) test -race ./internal/serve/...

# snapfork-smoke races the snapshot codec the benchmark's snapshot.*
# rows time (a restored warm image must replay bit-identically to a
# cold re-warm for every generation, and the block zero scans must
# encode byte-identical images), the step-loop allocation guards (the
# steady-state step loop must not allocate and a whole guarded slice
# replay must allocate a constant few objects), the population table
# (sweeps identical with and without it; the byte-charged LRU type
# behind it; suites and trace populations evicted least recently used
# under one byte budget, an evicted trace population reloaded from
# disk; no digest or decode stream kept for a slice once its
# population is evicted) and the pool bound (at most seven
# configurations idle, with no M1-M6 rebuilds while one-shot M7 jobs
# pass through a server).
snapfork-smoke:
	$(GO) test -race -run 'TestWarmForkMatchesColdRerun|TestRunWithWarmSnapshotsBitIdentical|TestDecodedStepLoopDoesNotAllocate|TestStepLoopDoesNotAllocate|TestRunGuardedAllocsConstant' . && \
	$(GO) test -race -run 'TestZeroScan|TestClearDirty' ./internal/snapshot/ && \
	$(GO) test -race -run 'TestSimPoolBound|TestLRU|TestPopulationTable' ./internal/experiments/ && \
	$(GO) test -race -run 'TestSliceJobMatchesDirectRun|TestAdmissionMetricsExported' ./internal/serve/

# fabric-smoke races the distributed sweep fabric end to end: shard
# planning/merge bit-identity under random partitions, with the shards
# also computed in random RunShards batches that must match one-shard
# runs byte for byte, failure records and retries included; the
# coordinator's lease/steal protocol over the result store, including
# the worker-less local batch (one runner call, no Poll wait), a store
# that admits clean shards' cells only, and a resweep at another shard
# width that shares the store and runs nothing; the store's byte-budget
# LRU and its cover of a population across partitions; a document whose
# placement differs from its grant, refused before it reaches the store;
# parked leases (woken by a submit and by every
# requeue, bounded waits, a worker that never spins, drain releasing
# parked leases in process and over HTTP); a 3-worker HTTP sweep with a
# worker killed mid-sweep whose lease must be stolen and whose merged
# result must stay byte-identical to a single-process run; worker-less
# daemons answering M7 sweeps' M1-M6 columns from the result store; and
# the trace-population shard merge.
fabric-smoke:
	$(GO) test -race -run 'TestFabric|TestMergeShards|TestPlanShards|TestRunShards|TestResultStore|TestM7WorkerlessReusesShardCache|TestTraceShard' \
		./internal/fabric/... ./internal/serve/ ./internal/experiments/

# trace-smoke races the real-trace pipeline end to end: streaming
# ChampSim decode and SimPoint slicing of the committed fixture, the
# content-addressed disk store (ingest, dedup, persistence, corruption
# checks, bundle round-trip),
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

# workload-smoke races the population generator and the hinted lookups
# at GOMAXPROCS 1, 2 and 8 (race runs them at the host's width only):
# Suite's per-slice workers must build exactly the slices one ByName
# call each does, in order, and the program builder must stay under
# its allocation bound; the way-hinted TLBs and one-set satables must
# match a linear-scan reference model on random operation sequences.
workload-smoke:
	$(GO) test -race -cpu 1,2,8 -run 'TestSuiteMatchesPerSliceGeneration|TestCBPSuiteMatchesPerSliceGeneration|TestProgramBuilderAllocs|TestHintMatchesScanProperty' \
		./internal/workload/ ./internal/tlb/ ./internal/satable/

# bench-go runs the full Go benchmark suite (figures + throughput).
bench-go:
	$(GO) test -bench=. -benchtime=1x -run=NONE .
