GO ?= go

.PHONY: check fmt vet build test bench bench-smoke experiments monitor-smoke rollout-smoke fleet-smoke query-smoke chaos-smoke fuzz-smoke

## check: everything CI would run — formatting, vet, build, race-enabled
## tests, and a short fuzz pass over the config parsers and the import memo
check: fmt vet build test fuzz-smoke

# fuzz-smoke: a few seconds of coverage-guided fuzzing on the parsers that
# take operator-written specs (SLOs, canary stages), on the import memo
# (an imported library must observe byte-for-byte the same without the memo,
# while it records, and when it replays), and on the two fast paths that must
# equal their definitions (trace.Source against math/rand's generator, the
# histogram's bucket table against its log form). Seeds alone run in the
# normal test pass; this also explores.
FUZZTIME ?= 5s
fuzz-smoke:
	$(GO) test -fuzz FuzzParseSLOs -fuzztime $(FUZZTIME) -run xxx ./internal/obs/monitor
	$(GO) test -fuzz FuzzParseStages -fuzztime $(FUZZTIME) -run xxx ./internal/rollout
	$(GO) test -fuzz FuzzSnapshotReplay -fuzztime $(FUZZTIME) -run xxx ./internal/pyruntime
	$(GO) test -fuzz FuzzParseQuery -fuzztime $(FUZZTIME) -run xxx ./internal/obs/query
	$(GO) test -fuzz FuzzParseIncidents -fuzztime $(FUZZTIME) -run xxx ./internal/chaos
	$(GO) test -fuzz FuzzSourceSeed -fuzztime $(FUZZTIME) -run xxx ./internal/trace
	$(GO) test -fuzz FuzzHistBucket -fuzztime $(FUZZTIME) -run xxx ./internal/stats

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...

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

# bench-smoke: one fast iteration of the cheap benchmarks (CI).
bench-smoke:
	$(GO) test -short -bench . -benchtime 1x -run xxx .

# monitor-smoke: golden-output check of the monitored replay — the same
# seeded driver must render byte-identically across two fresh processes,
# and the telemetry exporters must produce the same artifact bytes.
MONITOR_SMOKE_DIR ?= monitor-smoke-out
monitor-smoke:
	@mkdir -p $(MONITOR_SMOKE_DIR)
	$(GO) run ./cmd/experiments -trace $(MONITOR_SMOKE_DIR)/trace.json \
		-metrics $(MONITOR_SMOKE_DIR)/metrics.json \
		-flame $(MONITOR_SMOKE_DIR)/flame.folded \
		-openmetrics $(MONITOR_SMOKE_DIR)/openmetrics.txt \
		monitor > $(MONITOR_SMOKE_DIR)/monitor.txt
	$(GO) run ./cmd/experiments -trace $(MONITOR_SMOKE_DIR)/trace2.json \
		-metrics $(MONITOR_SMOKE_DIR)/metrics2.json \
		-flame $(MONITOR_SMOKE_DIR)/flame2.folded \
		-openmetrics $(MONITOR_SMOKE_DIR)/openmetrics2.txt \
		monitor > $(MONITOR_SMOKE_DIR)/monitor2.txt
	cmp $(MONITOR_SMOKE_DIR)/monitor.txt $(MONITOR_SMOKE_DIR)/monitor2.txt
	cmp $(MONITOR_SMOKE_DIR)/trace.json $(MONITOR_SMOKE_DIR)/trace2.json
	cmp $(MONITOR_SMOKE_DIR)/metrics.json $(MONITOR_SMOKE_DIR)/metrics2.json
	cmp $(MONITOR_SMOKE_DIR)/flame.folded $(MONITOR_SMOKE_DIR)/flame2.folded
	cmp $(MONITOR_SMOKE_DIR)/openmetrics.txt $(MONITOR_SMOKE_DIR)/openmetrics2.txt
	@echo "monitor-smoke: byte-identical across runs"

# rollout-smoke: golden-output check of the closed-loop deployment replay —
# canary events, breaker transitions, heal timings, cost table, and the
# rollout OpenMetrics exposition must be byte-identical across two fresh
# processes.
ROLLOUT_SMOKE_DIR ?= rollout-smoke-out
rollout-smoke:
	@mkdir -p $(ROLLOUT_SMOKE_DIR)
	$(GO) run ./cmd/experiments rollout > $(ROLLOUT_SMOKE_DIR)/rollout.txt
	$(GO) run ./cmd/experiments rollout > $(ROLLOUT_SMOKE_DIR)/rollout2.txt
	cmp $(ROLLOUT_SMOKE_DIR)/rollout.txt $(ROLLOUT_SMOKE_DIR)/rollout2.txt
	@echo "rollout-smoke: byte-identical across runs"

# fleet-smoke: worker-count determinism of the sharded fleet replay — the
# same synthetic fleet day must produce byte-identical report, OpenMetrics
# exposition, and flamegraph at 1 and 4 worker shards (the engine's core
# contract; see DESIGN.md §13).
FLEET_SMOKE_DIR ?= fleet-smoke-out
fleet-smoke:
	@mkdir -p $(FLEET_SMOKE_DIR)
	$(GO) run ./cmd/lambdatrim -fleet -fleet-functions 3000 -fleet-workers 1 \
		-openmetrics $(FLEET_SMOKE_DIR)/openmetrics-w1.txt \
		-flame $(FLEET_SMOKE_DIR)/flame-w1.folded > $(FLEET_SMOKE_DIR)/fleet-w1.txt
	$(GO) run ./cmd/lambdatrim -fleet -fleet-functions 3000 -fleet-workers 4 \
		-openmetrics $(FLEET_SMOKE_DIR)/openmetrics-w4.txt \
		-flame $(FLEET_SMOKE_DIR)/flame-w4.folded > $(FLEET_SMOKE_DIR)/fleet-w4.txt
	cmp $(FLEET_SMOKE_DIR)/fleet-w1.txt $(FLEET_SMOKE_DIR)/fleet-w4.txt
	cmp $(FLEET_SMOKE_DIR)/openmetrics-w1.txt $(FLEET_SMOKE_DIR)/openmetrics-w4.txt
	cmp $(FLEET_SMOKE_DIR)/flame-w1.folded $(FLEET_SMOKE_DIR)/flame-w4.folded
	@echo "fleet-smoke: byte-identical across worker shards"

# query-smoke: worker-count determinism of the query surface — a canned
# query set (selectors, rules, label matchers, ratios, a range query) and
# the exemplar-annotated exposition must produce byte-identical JSON and
# OpenMetrics at 1 and 4 worker shards (see DESIGN.md §14).
QUERY_SMOKE_DIR ?= query-smoke-out
QUERY_SMOKE_RULES = fleet:cost_usd:sum5m = sum(cost.usd[5m]); fleet:req:rate5m = rate(req.total[5m])
query-smoke:
	@mkdir -p $(QUERY_SMOKE_DIR)
	$(GO) run ./cmd/lambdatrim -fleet-functions 3000 -fleet-workers 1 \
		-rules '$(QUERY_SMOKE_RULES)' \
		-query 'cost.usd / req.total' \
		-query 'sum(cost.usd{phase="init"}[24h]) / sum(cost.usd[24h])' \
		-query 'rate(req.total{arm="debloated"}[6h])' \
		-query 'fleet:cost_usd:sum5m' \
		-query 'max(fleet:req:rate5m[24h])' \
		-openmetrics $(QUERY_SMOKE_DIR)/openmetrics-w1.txt > $(QUERY_SMOKE_DIR)/query-w1.json
	$(GO) run ./cmd/lambdatrim -fleet-functions 3000 -fleet-workers 4 \
		-rules '$(QUERY_SMOKE_RULES)' \
		-query 'cost.usd / req.total' \
		-query 'sum(cost.usd{phase="init"}[24h]) / sum(cost.usd[24h])' \
		-query 'rate(req.total{arm="debloated"}[6h])' \
		-query 'fleet:cost_usd:sum5m' \
		-query 'max(fleet:req:rate5m[24h])' \
		-openmetrics $(QUERY_SMOKE_DIR)/openmetrics-w4.txt > $(QUERY_SMOKE_DIR)/query-w4.json
	$(GO) run ./cmd/lambdatrim -fleet-functions 3000 -fleet-workers 1 \
		-rules '$(QUERY_SMOKE_RULES)' -query 'fleet:req:rate5m' \
		-query-step 4h > $(QUERY_SMOKE_DIR)/range-w1.json
	$(GO) run ./cmd/lambdatrim -fleet-functions 3000 -fleet-workers 4 \
		-rules '$(QUERY_SMOKE_RULES)' -query 'fleet:req:rate5m' \
		-query-step 4h > $(QUERY_SMOKE_DIR)/range-w4.json
	cmp $(QUERY_SMOKE_DIR)/query-w1.json $(QUERY_SMOKE_DIR)/query-w4.json
	cmp $(QUERY_SMOKE_DIR)/range-w1.json $(QUERY_SMOKE_DIR)/range-w4.json
	cmp $(QUERY_SMOKE_DIR)/openmetrics-w1.txt $(QUERY_SMOKE_DIR)/openmetrics-w4.txt
	grep -q 'span_id="' $(QUERY_SMOKE_DIR)/openmetrics-w1.txt
	@echo "query-smoke: byte-identical across worker shards"

# chaos-smoke: worker-count determinism of the chaos replay — the canonical
# incident day over a 4-arm fleet must produce byte-identical report,
# resilience scorecard, and OpenMetrics exposition at 1 and 4 worker shards,
# and the availability SLO must actually page during the incidents (the
# alert log is part of the report, so the cmp covers it; see DESIGN.md §15).
CHAOS_SMOKE_DIR ?= chaos-smoke-out
chaos-smoke:
	@mkdir -p $(CHAOS_SMOKE_DIR)
	$(GO) run ./cmd/lambdatrim -chaos default -fleet-functions 3000 -fleet-workers 1 \
		-scorecard $(CHAOS_SMOKE_DIR)/scorecard-w1.txt \
		-openmetrics $(CHAOS_SMOKE_DIR)/openmetrics-w1.txt > $(CHAOS_SMOKE_DIR)/chaos-w1.txt
	$(GO) run ./cmd/lambdatrim -chaos default -fleet-functions 3000 -fleet-workers 4 \
		-scorecard $(CHAOS_SMOKE_DIR)/scorecard-w4.txt \
		-openmetrics $(CHAOS_SMOKE_DIR)/openmetrics-w4.txt > $(CHAOS_SMOKE_DIR)/chaos-w4.txt
	cmp $(CHAOS_SMOKE_DIR)/chaos-w1.txt $(CHAOS_SMOKE_DIR)/chaos-w4.txt
	cmp $(CHAOS_SMOKE_DIR)/scorecard-w1.txt $(CHAOS_SMOKE_DIR)/scorecard-w4.txt
	cmp $(CHAOS_SMOKE_DIR)/openmetrics-w1.txt $(CHAOS_SMOKE_DIR)/openmetrics-w4.txt
	grep -q 'FIRING' $(CHAOS_SMOKE_DIR)/chaos-w1.txt
	grep -q 'resilience scorecard' $(CHAOS_SMOKE_DIR)/chaos-w1.txt
	@echo "chaos-smoke: byte-identical across worker shards"

experiments:
	$(GO) run ./cmd/experiments
