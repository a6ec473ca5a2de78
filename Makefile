GO ?= go

.PHONY: all build vet test race bench-smoke bench bench-sched bench-comm bench-fault bench-serve bench-tb bench-overlap bench-lanes bench-dsteal bench-fleet serve check

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Tier-1 gate (see ROADMAP.md): full build (examples included), vet, tests.
test:
	$(GO) build ./... ./examples/... && $(GO) vet ./... && $(GO) test ./...

race:
	$(GO) test -race ./...

# Short benchmark pass over the hot-path microbenchmarks: exercises the
# zero-alloc and fast-kernel paths and task-graph construction without
# paper-scale runtimes.
bench-smoke:
	$(GO) test -run '^$$' -bench 'MsgRoundTrip|Kernel|PackBytes|UnpackBytes|BuildGraph' \
		-benchtime 100x -benchmem \
		./internal/core/ ./internal/stencil/ ./internal/grid/

# Scheduler comparison behind BENCH_2.json: shared queue vs work stealing
# on the end-to-end executor and on a pure-scheduling task storm, plus the
# bench-harness ablation table.
bench-sched:
	$(GO) test -run '^$$' -bench 'ExecutorReal|SchedulerThroughput' \
		-benchtime 20x -benchmem \
		./internal/core/ ./internal/runtime/
	$(GO) run ./cmd/stencilbench -exp sched -quick

# Halo-coalescing ablation behind BENCH_3.json: per-neighbor bundles vs
# point-to-point on both engines, plus the coalesced-path microbenchmarks.
bench-comm:
	$(GO) test -run '^$$' -bench 'BundleRoundTrip|ExecutorCoalesce' \
		-benchtime 20x -benchmem \
		./internal/runtime/ ./internal/core/
	$(GO) run ./cmd/stencilbench -exp coalesce -quick

# Fault-injection & recovery smoke behind BENCH_4.json: recovery-layer
# overhead (idle and active) on the coalesced executor, plus the
# bench-harness ablation table (bitwise-equal grids under injected faults).
bench-fault:
	$(GO) test -run '^$$' -bench 'ExecutorFault' \
		-benchtime 20x -benchmem \
		./internal/core/
	$(GO) run ./cmd/stencilbench -exp fault -quick

# Service-layer sweep behind BENCH_5.json: offered load vs throughput and
# completion-latency percentiles through the job manager, plus the
# single-job service tax vs direct castencil.Run.
bench-serve:
	$(GO) run ./cmd/stencilbench -exp serve -quick

# Temporal-blocking ablation behind BENCH_6.json: base vs CA vs wavefront
# crossover on both machines, the AutoPlan family decisions, and the
# wire-level w-fold bundle reduction — plus the fused-kernel and halo
# microbenchmarks on the wavefront path.
bench-tb:
	$(GO) test -run '^$$' -bench 'KernelWavefront|ExecutorWavefront' \
		-benchtime 20x -benchmem \
		./internal/stencil/ ./internal/core/
	$(GO) run ./cmd/stencilbench -exp tb -quick

# Inner/border split ablation behind BENCH_7.json: delayed-link speedup,
# clean-wire boundary, and real-runtime traffic parity for the overlap
# transform, plus the split-executor microbenchmark.
bench-overlap:
	$(GO) test -run '^$$' -bench 'ExecutorSplit' \
		-benchtime 1x -benchmem \
		./internal/core/
	$(GO) run ./cmd/stencilbench -exp overlap -quick

# Distributed-transport ablation behind BENCH_8.json: persistent lanes vs
# per-message connections on a 2-rank loopback mesh, plus the zero-alloc
# lane round-trip microbenchmark.
bench-lanes:
	$(GO) test -run '^$$' -bench 'LaneRoundTrip' \
		-benchtime 100x -benchmem \
		./internal/netcomm/
	$(GO) run ./cmd/stencilbench -exp lanes -quick

# Inter-node work-stealing ablation behind BENCH_9.json: simulated skewed
# makespan win, real-mesh sim==real migration parity, and the steal
# round-trip microbenchmark over a loopback lane.
bench-dsteal:
	$(GO) test -run '^$$' -bench 'StealRoundTrip' \
		-benchtime 100x -benchmem \
		./internal/netcomm/
	$(GO) run ./cmd/stencilbench -exp dsteal -quick

# Fleet-gateway sweep behind BENCH_10.json: one stencilgate over {1,2,4}
# loopback stencild backends, content-addressed cache on vs off, plus the
# execute-vs-hit repeat microbenchmark.
bench-fleet:
	$(GO) run ./cmd/stencilbench -exp fleet -quick

# Run the stencil-as-a-service daemon locally.
serve:
	$(GO) run ./cmd/stencild -listen :8421 -maxjobs 2 -queue 64

# Full measurement run behind BENCH_1.json.
bench:
	$(GO) test -run '^$$' -bench 'MsgRoundTrip|ExecutorReal' -benchmem ./internal/core/
	$(GO) test -run '^$$' -bench 'Kernel' -benchmem ./internal/stencil/
	$(GO) test -run '^$$' -bench 'PackBytes|UnpackBytes' -benchmem ./internal/grid/

check: vet test race bench-smoke
