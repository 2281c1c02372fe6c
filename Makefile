GO ?= go
FUZZTIME ?= 10s
# Where bench-json writes its snapshot; empty picks the next free
# BENCH_<n>.json (BENCH_0.json is the committed pre-observability
# baseline that overhead comparisons run against).
BENCH_OUT ?=
# Revision `make loc` reports the net change against; empty skips it.
BASE ?=

.PHONY: all build vet lint test race fuzz-smoke bench-json calibrate loc ci clean

all: build vet lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Domain static analysis: all ten analyzers (determinism, floateq,
# ctxcheck, wrapcheck, seedplumb, goleak, lockguard, atomicmix,
# wgdiscipline, hotalloc) over the whole tree, then the concurrency
# analyzers again over the in-package test files of the supervision and
# serving layers, where goroutine discipline matters as much in tests
# as in production code. Exit 1 on findings (including stale ignores),
# 2 if the tree fails to load or type-check.
lint:
	$(GO) run ./cmd/vbrlint ./...
	$(GO) run ./cmd/vbrlint -tests ./internal/fleet ./internal/server

test:
	$(GO) test ./...

# Race-detector run; the CLI smoke tests re-exec the binaries, so -short
# keeps this to the in-process packages where the detector sees
# something.
race:
	$(GO) test -race -short ./...
	$(GO) test -race -run 'TestAverageLoss|TestFig14|TestSuiteCtxCancelled|TestRun' ./internal/queue/ ./internal/experiments/ ./internal/runner/
	$(GO) test -race ./internal/fleet/

# Short fuzzing pass over the parser/decoder fuzz targets, the Ĥ
# estimator robustness targets, both spectral fGn samplers, the
# scenario-zoo cascade invariants, every stream engine over its length
# and drain buffer, vbrd's /v1/trace over raw query strings, the
# queue's zero-loss dual against the simulator, the NDJSON float
# encoder against strconv, the Eq. 13 Gaussian-axis table's range and
# order, and the Fig. 14 search-checkpoint loader against hostile
# files; one target per invocation as go test requires.
fuzz-smoke:
	$(GO) test -fuzz=FuzzDecodeSymbols -fuzztime=$(FUZZTIME) ./internal/codec/
	$(GO) test -fuzz=FuzzDecodeFrame -fuzztime=$(FUZZTIME) ./internal/codec/
	$(GO) test -fuzz=FuzzReadBinary -fuzztime=$(FUZZTIME) ./internal/trace/
	$(GO) test -fuzz=FuzzReadCSV -fuzztime=$(FUZZTIME) ./internal/trace/
	$(GO) test -fuzz=FuzzVarianceTime -fuzztime=$(FUZZTIME) ./internal/lrd/
	$(GO) test -fuzz=FuzzRS -fuzztime=$(FUZZTIME) ./internal/lrd/
	$(GO) test -fuzz=FuzzWhittle -fuzztime=$(FUZZTIME) ./internal/lrd/
	$(GO) test -fuzz=FuzzMAVAR -fuzztime=$(FUZZTIME) ./internal/lrd/
	$(GO) test -fuzz=FuzzCascade -fuzztime=$(FUZZTIME) ./internal/source/
	$(GO) test -fuzz=FuzzPaxson -fuzztime=$(FUZZTIME) ./internal/fgn/
	$(GO) test -fuzz=FuzzDaviesHarte -fuzztime=$(FUZZTIME) ./internal/fgn/
	$(GO) test -fuzz=FuzzStreamGeometry -fuzztime=$(FUZZTIME) ./internal/stream/
	$(GO) test -fuzz=FuzzTraceQuery -fuzztime=$(FUZZTIME) ./internal/server/
	$(GO) test -fuzz=FuzzZeroLoss -fuzztime=$(FUZZTIME) ./internal/queue/
	$(GO) test -fuzz=FuzzAppendShortest -fuzztime=$(FUZZTIME) ./internal/ftoa/
	$(GO) test -fuzz=FuzzNormalTable -fuzztime=$(FUZZTIME) ./internal/dist/
	$(GO) test -fuzz=FuzzLoadSearch -fuzztime=$(FUZZTIME) ./internal/checkpoint/

# Regenerate the committed estimator calibration table: run the full
# bias/variance battery (known-H fGn × lengths × 32 seeds, base seed
# 1994) and rewrite both the compiled-in Go table that EstimateAll's
# error bars read and the JSON artifact. Deterministic: a clean tree
# stays clean.
calibrate:
	$(GO) run ./cmd/vbranalyze -calibrate \
		-calibrate-json internal/lrd/calibration.json \
		-calibrate-go internal/lrd/calibration_table.go

# Pinned benchmark subset as a committed/CI JSON snapshot: the three
# fGn generators plus the paper-scale Auto-policy cold generation, the
# fluid queue, the end-to-end Fig 14 sweep, the generation-cache
# cold/warm/batch trio, the paper-scale warm Davies–Harte and Paxson
# streams, their first block (the time-to-first-byte share of
# generation) and their online Monitor, the served NDJSON request
# (stream plus wire encode), the estimator battery (batch
# MAVAR, the streaming per-observation update, the full EstimateAll
# bundle), and the per-frame hot path of every scenario-zoo model. The
# text output goes through an intermediate file so a benchmark failure
# fails the target rather than feeding benchjson an empty stream.
bench-json:
	$(GO) test -run '^$$' -bench 'Ablation_Hosking10k$$|Ablation_DaviesHarte10k$$|Paxson10k$$|Paxson171k$$|Ablation_QueueFluid$$|Fig14_QCCurves$$|ColdGenerate$$|WarmGenerate$$|BatchGenerate$$|StreamDaviesHarte171k$$|StreamPaxson171k$$|StreamFirstBlock$$|MonitorAdd$$|TraceNDJSON$$|MAVAR$$|OnlineMAVARAdd$$|EstimateAll$$|SourceNext$$' -benchmem -count=3 . > bench.out
	@out="$(BENCH_OUT)"; \
	if [ -z "$$out" ]; then i=0; while [ -e BENCH_$$i.json ]; do i=$$((i+1)); done; out=BENCH_$$i.json; fi; \
	$(GO) run ./cmd/benchjson -o "$$out" bench.out && echo "wrote $$out"
	@rm -f bench.out

# Non-test Go line count of module vbr — the LoC figure every change
# reports — without the separately built _perfbench module and testdata
# fixtures; with BASE=<rev>, also the count at that revision and the net
# change. The working tree is counted, untracked files included.
LOC_FILES = -- '*.go' ':(exclude)*_test.go' ':(exclude)_perfbench' ':(exclude)*/testdata/*'
loc:
	@sum() { awk -F: '{s += $$NF} END {print s+0}'; }; \
	c=$$(git grep --untracked -c '' $(LOC_FILES)) && now=$$(echo "$$c" | sum) && \
	echo "non-test Go LoC: $$now" && \
	if [ -n "$(BASE)" ]; then \
		c=$$(git grep -c '' $(BASE) $(LOC_FILES)) && base=$$(echo "$$c" | sum) && \
		echo "at $(BASE): $$base (net $$((now - base)))"; \
	fi

ci: build vet lint test race fuzz-smoke

clean:
	$(GO) clean ./...
