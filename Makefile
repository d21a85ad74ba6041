# Developer entry points; CI (.github/workflows/ci.yml) runs `make ci`'s
# steps verbatim.

GO ?= go

.PHONY: build vet cross-build fmt-check test race bench bench-smoke bench-snapshot bench-harness test-fuzz cover docs-check ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# The non-Linux build: the shard wake-up (internal/engine) has a Linux
# timerfd file and a no-op fallback for every other platform, and
# nothing else compiles the fallback. Vetting for darwin/arm64 and
# windows type-checks it, tests included, without a cross toolchain.
cross-build:
	GOOS=darwin GOARCH=arm64 $(GO) vet ./...
	GOOS=windows $(GO) vet ./...

# Formatting gate: every tracked Go file, benchmark/ included (read only),
# must be gofmt-clean. Prints the offending files and fails.
fmt-check:
	@out="$$(gofmt -l $$(git ls-files '*.go'))"; \
	if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

# The packages with shared-state concurrency: the parallel experiment
# runner, the simulator, the large-N scale scenario (shared sizing
# tables), the stream-sharing layer, the fleet cluster (its router is
# CAS-booked from concurrent connection goroutines), and the
# live-serving side of the engine — the sharded wall clock's per-shard
# lock discipline, the buffer pool under serialized concurrent callers,
# the serve driver with its lock-free metrics collector, and the
# vodserver binary. Keep them race-clean; -shuffle=on randomizes test
# order so accidental inter-test state dependence surfaces too.
race:
	$(GO) test -race -shuffle=on ./internal/experiments ./internal/sim ./internal/buffer ./internal/engine ./internal/scale ./internal/share ./internal/cluster ./internal/livemetrics ./internal/serve ./cmd/vodserver

# Native fuzzing smoke: each target gets a short budget (go's -fuzz must
# match exactly one target per invocation). The seed corpora alone run
# in the plain `make test`; this target actually mutates.
test-fuzz:
	$(GO) test -run=^$$ -fuzz=FuzzCommandParse -fuzztime=10s ./internal/serve
	$(GO) test -run=^$$ -fuzz=FuzzPrefixJoin -fuzztime=10s ./internal/share
	$(GO) test -run=^$$ -fuzz=FuzzRouterAdmit -fuzztime=10s ./internal/cluster
	$(GO) test -run=^$$ -fuzz=FuzzLadderAdmit -fuzztime=10s ./internal/engine

# Per-package coverage summary, gating the sharing layer — the oracle
# test's subject — the fleet cluster, and the simulation driver (the QoE
# accounting's home) at 85%.
cover:
	$(GO) test -cover ./...
	$(GO) test -coverprofile=/tmp/share.cover ./internal/share
	$(GO) tool cover -func=/tmp/share.cover | awk '/^total:/ { gsub(/%/, "", $$3); if ($$3 + 0 < 85) { printf "internal/share coverage %s%% below the 85%% gate\n", $$3; exit 1 } else printf "internal/share coverage %s%% (gate: 85%%)\n", $$3 }'
	$(GO) test -coverprofile=/tmp/cluster.cover ./internal/cluster
	$(GO) tool cover -func=/tmp/cluster.cover | awk '/^total:/ { gsub(/%/, "", $$3); if ($$3 + 0 < 85) { printf "internal/cluster coverage %s%% below the 85%% gate\n", $$3; exit 1 } else printf "internal/cluster coverage %s%% (gate: 85%%)\n", $$3 }'
	$(GO) test -coverprofile=/tmp/sim.cover ./internal/sim
	$(GO) tool cover -func=/tmp/sim.cover | awk '/^total:/ { gsub(/%/, "", $$3); if ($$3 + 0 < 85) { printf "internal/sim coverage %s%% below the 85%% gate\n", $$3; exit 1 } else printf "internal/sim coverage %s%% (gate: 85%%)\n", $$3 }'

bench:
	$(GO) test -bench=RunExperimentParallel -run=^$$ -benchtime=1x ./internal/experiments

# The allocation gate: the cases that allocate, allocs/op against the
# committed baseline (see EXPERIMENTS.md "Benchmark trajectory").
# Race-free: -race instrumentation would distort the counts.
bench-smoke:
	$(GO) run ./cmd/bench -check BENCH_ALLOCS.json

# Rewrite the committed baseline after an intentional allocation change.
bench-snapshot:
	$(GO) run ./cmd/bench > BENCH_ALLOCS.json

# The repo benchmark (benchmark/, see BENCHMARK.json) is its own module,
# so `go build ./... && go test ./...` at the root never compiles it; this
# keeps a signature change in the packages it measures from breaking it
# unnoticed. The short untraced runs then apply the benchmark's own
# correctness checks: a workload's digest must repeat from iteration to
# iteration (the depth-700 run and the paper day), at seed 1 one
# figure-grid pass must render all five reports that have a committed
# golden byte for byte (~6 s whatever --seconds says: a pass is not cut
# short), and the live loopback must finish every session it starts on
# the wall clock with none failed. A change that makes a simulation
# irreproducible, moves a figure, or breaks the live path fails here,
# before any paired measurement.
bench-harness:
	cd benchmark && $(GO) vet . && $(GO) test .
	@for w in scale-peak paper-day figure-grid live-loopback; do \
		echo "benchmark/run.sh --workload $$w --seed 1 --seconds 2 --trace 0"; \
		bash benchmark/run.sh --workload $$w --seed 1 --seconds 2 --trace 0 | grep '"correct":true' \
			|| { echo "bench-harness: $$w did not report \"correct\":true"; exit 1; }; \
	done

# Documentation gate: every relative link and backticked repo path in
# the maintained docs must resolve, README.md's architecture inventory
# must match the package tree both ways, every vod.go export must have a
# caller and every cited one must exist, and nothing under internal/ may
# import the façade (see cmd/docscheck).
docs-check:
	$(GO) run ./cmd/docscheck

ci: vet cross-build fmt-check build test race test-fuzz bench-smoke bench-harness cover docs-check
