GO ?= go

.PHONY: check fmt vet build test bench bench-smoke experiments fuzz-smoke

## check: everything CI runs — formatting, vet, build, race-enabled tests
## (the CLIs' determinism harness among them), one iteration of the cheap
## benchmarks, and a short fuzz pass over the config parsers and the memo
check: fmt vet build test bench-smoke fuzz-smoke

# fuzz-smoke: a few seconds of coverage-guided fuzzing per target, in list
# order, stopping at the first failure. Seeds alone run in the normal test
# pass; this also explores. Go minimizes each new interesting input for up
# to 60 s by default and runs no other input meanwhile, so one find used to
# end a target's exploration for the rest of its budget; FUZZMINIMIZETIME
# bounds each minimization. Each entry is package:target, the package under
# internal/:
#   obs/monitor:FuzzParseSLOs         the SLO spec parser
#   obs/monitor:FuzzStoreReset        a time-series store that Reset emptied,
#                                     its rings reused, against a fresh store
#                                     fed the same samples
#   pyparser:FuzzParse                the Python parser: no panic, print
#                                     round-trips, a lexing error wins
#   pyruntime:FuzzSnapshotReplay      the import memo: an imported library
#                                     observes byte-for-byte the same without
#                                     the memo, while it records, and when it
#                                     replays
#   pyruntime:FuzzSnapshotCrossModule the same for an app over a package, its
#                                     submodule and a second library that
#                                     import and write into each other, after
#                                     a primer app filled the cache
#   pyruntime:FuzzNamespace           fresh, presized and replayed namespaces
#                                     against an ordered-map model
#   obs/query:FuzzParseQuery          the mql parser
#   obs/query:FuzzRangeSweep          a range query's one ascending sweep, bit
#                                     for bit, against evaluating each of its
#                                     boundaries alone
#   chaos:FuzzParseIncidents          the incident spec parser
#   trace:FuzzSourceSeed              trace.Source against math/rand's
#                                     generator
#   trace:FuzzSourceReseed            a trace.Source reseeded after any number
#                                     of draws, inside its lazy register fill
#                                     or past it, against math/rand's generator
#   trace:FuzzThinningSqueeze         the arrival thinning's squeeze test
#                                     against its math.Sin comparison
#   stats:FuzzHistBucket              the histogram's bucket table against its
#                                     log form
FUZZTIME ?= 5s
FUZZMINIMIZETIME = 250ms
FUZZ_TARGETS = obs/monitor:FuzzParseSLOs obs/monitor:FuzzStoreReset \
	pyparser:FuzzParse pyruntime:FuzzSnapshotReplay \
	pyruntime:FuzzSnapshotCrossModule pyruntime:FuzzNamespace \
	obs/query:FuzzParseQuery obs/query:FuzzRangeSweep chaos:FuzzParseIncidents \
	trace:FuzzSourceSeed trace:FuzzSourceReseed trace:FuzzThinningSqueeze \
	stats:FuzzHistBucket
fuzz-smoke:
	@for t in $(FUZZ_TARGETS); do \
		echo "fuzz-smoke: $$t"; \
		$(GO) test -fuzz "$${t#*:}" -fuzztime $(FUZZTIME) -fuzzminimizetime $(FUZZMINIMIZETIME) \
			-run xxx "./internal/$${t%%:*}" || exit 1; \
	done

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...
	cd cmd/bench && $(GO) vet ./...

build:
	$(GO) build ./...

# test: every package under -race, then the nested cmd/bench module, which
# the root go test never reaches (its smoke, tamper and sync tests).
test:
	$(GO) test -race ./...
	cd cmd/bench && $(GO) test ./...

# bench: the committed benchmark record. Runs cmd/bench (cmd/bench/run.sh)
# once per workload that BENCHMARK.json names, with the benchmark's own
# defaults (seed 1, 10 s), and writes BENCH_<date>.json: a JSON list with
# one object per workload holding its name, the seed, the machine line and
# the result line (the run's last line of standard output). Each run's full
# report stays in .bench_build/. It refuses to overwrite an existing record:
# name another with BENCH_OUT=<file>.
BENCH_OUT ?= BENCH_$(shell date +%Y-%m-%d).json
BENCH_WORKLOADS = $(shell awk '/"workloads"/ {w = 1} w && /\]/ {w = 0} \
	w && /"name"/ {gsub(/[",]/, "", $$2); print $$2}' BENCHMARK.json)
bench:
	@test -n "$(BENCH_WORKLOADS)" || { echo "bench: no workloads found in BENCHMARK.json"; exit 1; }
	@test ! -e $(BENCH_OUT) || { echo "bench: $(BENCH_OUT) exists; set BENCH_OUT to write another record"; exit 1; }
	@set -e; mkdir -p .bench_build; sep='['; : > $(BENCH_OUT).tmp; \
	for w in $(BENCH_WORKLOADS); do \
		bash cmd/bench/run.sh --workload $$w --trace 0 > .bench_build/$$w.out; \
		machine=$$(grep -m 1 '^machine:' .bench_build/$$w.out | sed 's/[\\"]/\\&/g'); \
		printf '%s\n  {"workload": "%s", "seed": 1, "machine": "%s",\n   "result": %s}' \
			"$$sep" $$w "$$machine" "$$(tail -n 1 .bench_build/$$w.out)" >> $(BENCH_OUT).tmp; \
		sep=','; echo "bench: $$w done"; \
	done; printf '\n]\n' >> $(BENCH_OUT).tmp; mv $(BENCH_OUT).tmp $(BENCH_OUT)
	@echo "benchmark record written to $(BENCH_OUT)"

# bench-smoke: one fast iteration of the cheap benchmarks.
bench-smoke:
	$(GO) test -short -bench . -benchtime 1x -run xxx .

experiments:
	$(GO) run ./cmd/experiments
