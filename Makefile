# Development targets for the Split-CNN + HMMS reproduction.
# `make ci` is what a pre-merge check should run.

GO ?= go

.PHONY: build test race dist-race vet cross fmt ci golden trace trace-smoke report-smoke bench-kernels bench-smoke bench-check bench-run prof-forward serve-smoke train-smoke compile-smoke dist-smoke mem-smoke fuzz-smoke

# Micro-benchmarks of the hot paths: the CPU execution engine's
# (blocked GEMM, im2col, convolution forward and backward, full
# arena-backed train step — with and without step telemetry; a serving
# batch of 1 and of 8 images)
# and the planner's (the offline HMMS pipeline; program serialization,
# static memory planning and the discrete-event replay of a planned
# step on plan_imagenet's reference graph), and the serving plane's
# /v1/predict body decode (encoding/json vs serve.DecodePredict).
KERNEL_BENCH = MatMul$$|Im2Col$$|TrainStep$$|TrainStepSteplog$$|Conv2DForward$$|Conv2DBackward$$|GemmSquare|ConvIm2Col3x3$$|InterpretedForward$$|CompiledForward$$|DeviceReplay$$|HMMSPipeline$$|BuildProgram$$|PlanMemory$$|InstanceRunB1$$|InstanceRunB8$$|DecodePredict$$

# Every fuzz target, as package:Name. `go test` runs only their seeds;
# fuzz-smoke fuzzes each for a few seconds.
FUZZ_TARGETS = internal/serve:FuzzDecodePredict internal/serve:FuzzParsePixel internal/memlayout:FuzzFirstFit \
	internal/graph:FuzzCompiledPlan internal/snapshot:FuzzLoad \
	internal/tensor:FuzzConvGeometry internal/tensor:FuzzWindowBand internal/device:FuzzRun \
	internal/modelfile:FuzzModelfile internal/memobs:FuzzParsePprof

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# dist-race reruns the distributed plane (counted exchange cells,
# drain-to-zero, early rejection, worker death) under the race detector
# uncached and twice over: its failures are schedule-dependent, and
# `race` above tries each schedule once.
dist-race:
	$(GO) test -race -count=2 ./internal/dist ./internal/distserve

vet:
	$(GO) vet ./...

# cross vets the module for arm64, so the build-tagged non-amd64
# fallbacks (the portable micro-kernels' stubs) compile.
cross:
	GOARCH=arm64 $(GO) vet ./...

# fmt fails (and lists the offenders) when any file is not gofmt-clean.
fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needs to be run on:"; echo "$$out"; exit 1; \
	fi

ci: vet cross fmt build race dist-race fuzz-smoke bench-smoke bench-check serve-smoke compile-smoke report-smoke trace-smoke train-smoke dist-smoke mem-smoke bench-run

# bench-kernels measures the kernel micro-benchmarks and prints the
# results: a local guard for kernel work. The repo benchmark (bench/,
# BENCHMARK.json) is what measures end-to-end performance.
bench-kernels: build
	$(GO) test -run '^$$' -bench '$(KERNEL_BENCH)' -benchtime 2s . ./internal/tensor ./internal/serve

# prof-forward answers "where does a serving request's CPU go": it
# CPU-profiles the serving forward (BenchmarkInstanceRunB1 and B8, the
# serving workloads' model) into PROF_DIR/forward.prof, then the
# /v1/predict body decode (BenchmarkDecodePredict/onepass) into
# PROF_DIR/decode.prof, and prints the flat top of each.
PROF_DIR ?= /tmp/splitcnn-prof
prof-forward:
	mkdir -p $(PROF_DIR)
	$(GO) test -run '^$$' -bench 'InstanceRunB1$$|InstanceRunB8$$' -benchtime 3s \
		-cpuprofile $(PROF_DIR)/forward.prof -o $(PROF_DIR)/splitcnn.test .
	$(GO) tool pprof -top -nodecount 30 $(PROF_DIR)/splitcnn.test $(PROF_DIR)/forward.prof
	$(GO) test -run '^$$' -bench 'DecodePredict/onepass$$' -benchtime 3s \
		-cpuprofile $(PROF_DIR)/decode.prof -o $(PROF_DIR)/serve.test ./internal/serve
	$(GO) tool pprof -top -nodecount 20 $(PROF_DIR)/serve.test $(PROF_DIR)/decode.prof

# bench-smoke runs every kernel benchmark exactly once so CI catches
# benchmarks that no longer compile or crash, without paying for a
# full measurement.
bench-smoke:
	@$(GO) test -run '^$$' -bench '$(KERNEL_BENCH)' -benchtime 1x . ./internal/tensor ./internal/serve > /dev/null

# fuzz-smoke fuzzes every target in FUZZ_TARGETS for 5 s on 2 workers.
# Minimization is cut to one attempt: at its default, a target that
# keeps finding new coverage (FuzzRun) spends the whole budget
# minimizing.
fuzz-smoke:
	@set -e; for t in $(FUZZ_TARGETS); do \
		$(GO) test -run '^$$' -fuzz "^$${t#*:}$$" -fuzztime 5s -fuzzminimizetime 1x \
			-parallel 2 ./$${t%%:*}; \
	done

# bench-check vets and smoke-tests the repo benchmark runner. bench/ is
# a nested module that imports internal/*, and `go build ./...` never
# compiles it, so a signature change it depends on must fail here.
bench-check:
	cd bench && $(GO) vet . && $(GO) test -short .

# bench-run is the non-short benchmark smoke that bench-check skips: it
# runs every BENCHMARK.json workload through both passes on the current
# code and fails on any wrong output, failed op or missing metric.
bench-run:
	cd bench && $(GO) test -run '^TestSmoke$$' .

# serve-smoke boots the inference server on a random port, answers one
# self-issued request through the real HTTP surface, and drains. It
# needs nothing beyond the splitcnn binary (no curl).
serve-smoke:
	$(GO) run ./cmd/splitcnn serve -smoke

# compile-smoke lowers VGG-19 and ResNet-18 through graph.Compile and
# renders the slab-timeline report (serve-smoke boots the server over
# the compiled program). The subcommand itself verifies the plotted
# peak against the mapped slab size with ==.
compile-smoke:
	$(GO) run ./cmd/splitcnn compile -arch vgg19 -o /tmp/splitcnn-compile.html
	$(GO) run ./cmd/splitcnn compile -arch resnet18

# dist-smoke is the distributed-serving CI gate: a race-enabled
# four-worker loopback fleet answers over real TCP RPC + HTTP, logits
# must be bit-identical to single-process serve — including after one
# worker is killed mid-fleet (ejection + gang retry) — and /clusterz
# must show every live worker's halo exchange empty (0 requests, 0
# resident bytes) once the load has drained, before and after the kill.
dist-smoke:
	$(GO) run -race ./cmd/splitcnn router -smoke -spawn 4

# mem-smoke is the memory-observability CI gate, race-enabled: a
# compiled single-process server and a two-worker loopback fleet run
# under load while the smoke asserts /profilez serves per-op CPU
# attribution on serve, worker, and router, /metricsz carries the
# memory gauge family and both per-request footprint histograms,
# /clusterz federates the workers' heap gauges into cluster.mem.*
# rollups, and the memory timeline /profilez serves once the load
# drains is the instance's own.
mem-smoke:
	$(GO) run -race ./cmd/splitcnn serve -memsmoke

# golden regenerates the trace/metrics golden files after an intended
# change to the cost model, planner, simulator or exporters.
golden:
	$(GO) test ./internal/trace -update

# trace is a smoke run of the observability pipeline.
trace: build
	$(GO) run ./cmd/splitcnn trace -model alexnet -policy hmms -o /tmp/splitcnn-trace.json -metrics /tmp/splitcnn-metrics.json

# trace-smoke exports the discrete-event device replay of the paper-scale
# split ResNet-50 HMMS plan, one trace lane per memory stream: the
# `trace -replay` path, which fails on a malformed plan or a deadlocked
# event calendar.
trace-smoke:
	$(GO) run ./cmd/splitcnn trace -model resnet50 -batch 32 -split -replay \
		-o /tmp/splitcnn-replay-trace.json -metrics /tmp/splitcnn-replay-metrics.json

# train-smoke checks the training-observability pipeline end to end: a
# tiny 2-epoch run streams per-step telemetry with the anomaly guards
# armed (-checksteplog fails on empty or malformed JSONL; a guard trip
# exits non-zero by itself), then the training report page renders from
# the emitted stream.
train-smoke:
	$(GO) run ./cmd/splitcnn train -epochs 2 -train 128 -test 64 \
		-steplog /tmp/splitcnn-steplog.jsonl -checksteplog \
		-guards -flight /tmp/splitcnn-flight.json
	$(GO) run ./cmd/splitcnn report -train /tmp/splitcnn-steplog.jsonl \
		-o /tmp/splitcnn-train.html

# report-smoke renders the HTML/SVG memory timeline for a split VGG-19
# HMMS plan; the subcommand itself verifies the plotted device
# high-water mark against the mem.device_high_water_bytes gauge.
report-smoke:
	$(GO) run ./cmd/splitcnn report -model vgg19 -policy hmms -split -o /tmp/splitcnn-report.html
