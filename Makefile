GO ?= go

# Fresh benchmark stream that benchjson writes and perfgate gates; CI
# uploads it per PR so perf is comparable across the PR sequence, reading
# the path via `make -s print-benchjson` instead of hardcoding it in the
# workflow. The name falls under .gitignore's BENCH_*.json rule, so local
# runs never overwrite a checked-in file.
BENCHJSON ?= BENCH_head.json

# Perf-gate knobs: the previous PR's checked-in benchmark stream, the gated
# benchmark families (pool build, snapshot cold/warm load, every verification
# path, the fused and adaptive query plans, cold and warm top-h enumeration,
# the flat vecmat/rank kernels, the remote chunk-fill protocol, and the
# incremental dataset-delta path), the tolerated slowdown, and the noise
# floor below which 1x timings are not trusted. With the baseline rolled to
# PR 9's stream, DeltaApply and DriftStream are present on both sides and
# now gate.
BENCHBASE ?= BENCH_pr9.json
GATEMATCH ?= PoolBuild|SnapshotLoad|VerifyBatch|QueryFused|QueryAdaptive|QueryEnumerate|SV2D|SVMD|Kernel|RemoteChunkFill|DeltaApply|DriftStream
GATETHRESHOLD ?= 1.25
# 2ms gates every verification benchmark tier that runs long enough to be
# stable at -benchtime 1x while skipping microsecond-scale noise.
GATEMIN ?= 2ms

.PHONY: all build test race vet fmt analyze srbench-check srbench-smoke bench bench-short benchjson perfgate print-benchjson cluster-test cover apicheck apisnapshot clean-data loc ci

all: build

## build: compile every package and command
build:
	$(GO) build ./...

## test: run the full test suite
test:
	$(GO) test ./...

## race: run the full test suite under the race detector (exercises the
## concurrent-Analyzer guarantees of the public API)
race:
	$(GO) test -race ./...

## vet: static analysis
vet:
	$(GO) vet ./...

## analyze: run the srlint determinism/concurrency analyzers (detrange,
## onceerr, lockscope, ctxflow) over the whole tree; -stats prints the
## //srlint: suppression census so justified exceptions stay visible
analyze:
	$(GO) run ./cmd/srlint -stats ./...

## srbench-check: vet and test the end-to-end benchmark module. srbench/ has
## its own go.mod (replacing stablerank with ../), so `go build ./...` and
## `go test ./...` from the root never compile it; without this target a
## facade change that breaks the benchmark would only surface in a benchmark
## run
srbench-check:
	cd srbench && $(GO) vet ./... && $(GO) test ./...

## srbench-smoke: a 3-second traced srbench run of every workload against a
## live stablerankd. A traced run checks, bit for bit, each HTTP answer against
## the in-process handler and the library, the live drift events against
## LastDrift, and LastDrift against mc.RankShift; srbench exits non-zero on
## any mismatch or failed request, and so does this target
srbench-smoke:
	@for w in verify enumerate churn regions; do \
		echo "srbench-smoke: $$w"; \
		bash srbench/run.sh --workload $$w --seed 1 --seconds 3 --trace 1 || exit 1; \
	done

## fmt: fail if any file is not gofmt-clean
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

## bench: the full paper-figure benchmark suite (slow)
bench:
	$(GO) test -bench=. -benchmem -run '^$$' .

## bench-short: one quick benchmark family as a smoke test
bench-short:
	$(GO) test -bench='BenchmarkFig10SV2D' -benchtime=1x -run '^$$' .

## benchjson: run every benchmark BENCHCOUNT times at one iteration each and
## emit test2json events to $(BENCHJSON) — the benchmark-regression artifact
## CI uploads so future PRs have a perf trajectory to compare against.
## benchgate reduces the repeats to the per-benchmark minimum, and -p 1
## serializes the package test binaries: both counter the scheduler noise
## that dominates single-iteration timings on small runners.
BENCHCOUNT ?= 3
benchjson:
	$(GO) test -p 1 -run '^$$' -bench . -benchtime 1x -count $(BENCHCOUNT) -json ./... > $(BENCHJSON)

## perfgate: fail if the fresh benchmark stream ($(BENCHJSON)) regressed
## beyond GATETHRESHOLD against the checked-in baseline ($(BENCHBASE))
perfgate: benchjson
	$(GO) run ./cmd/benchgate -baseline $(BENCHBASE) -candidate $(BENCHJSON) \
		-match '$(GATEMATCH)' -threshold $(GATETHRESHOLD) -min $(GATEMIN)

## print-benchjson: emit the benchmark artifact path (CI reads it with
## `make -s print-benchjson` so the upload step tracks BENCHJSON renames)
print-benchjson:
	@echo $(BENCHJSON)

## cluster-test: the multi-node CI lane — boots 3-node stablerankd clusters
## and the chunk-fill protocol tests under the race detector
cluster-test:
	$(GO) test -race -count=1 -run 'TestCluster' -timeout 10m ./server ./internal/cluster

## cover: run the full test suite with coverage and emit coverage.html
cover:
	$(GO) test -coverprofile=coverage.out ./...
	$(GO) tool cover -html=coverage.out -o coverage.html
	$(GO) tool cover -func=coverage.out | tail -1

## apicheck: fail when the exported API surface (root package + server)
## drifts from the checked-in API.txt snapshot, so breaking changes are an
## explicit diff in review rather than a surprise downstream. Run
## `make apisnapshot` to accept an intentional change.
apicheck:
	@$(GO) doc -all . > .api.current.txt
	@$(GO) doc -all ./server >> .api.current.txt
	@if ! diff -u API.txt .api.current.txt; then \
		echo ""; echo "apicheck: exported API changed; review the diff and run 'make apisnapshot' to accept"; \
		rm -f .api.current.txt; exit 1; fi
	@rm -f .api.current.txt
	@echo "apicheck: exported API matches API.txt"

## apisnapshot: regenerate the API.txt surface snapshot after an intentional
## API change
apisnapshot:
	$(GO) doc -all . > API.txt
	$(GO) doc -all ./server >> API.txt

## clean-data: remove local stablerankd persistence directories (the -data
## dirs created by ad-hoc runs) and coverage/bench scratch files
clean-data:
	rm -rf ./data ./*.data
	rm -f coverage.out coverage.html .api.current.txt

## loc: print the non-test Go line count that ROADMAP's size target tracks:
## every non-test .go file outside the linter (internal/lint, cmd/srlint) and
## the benchmark module (srbench/ and its .srbench/ build directory)
loc:
	@find . \( -path ./.git -o -path ./internal/lint -o -path ./cmd/srlint -o -path ./srbench -o -path ./.srbench \) -prune \
		-o -name '*.go' ! -name '*_test.go' -print | xargs cat | wc -l

## ci: everything the CI workflow's core job runs
ci: build fmt vet analyze test race apicheck srbench-check srbench-smoke
