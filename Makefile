GO ?= go

# Concurrency-bearing packages exercised under the race detector: the
# ordered pool every detection pass shares, the chunked analysis fold,
# the pipelined generation→ingest sink, the parallel snapshot
# encode/decode, the
# fault injector (atomic call counters shared across goroutines), the
# explorer store/server (writer vs. scraper interleavings), and the
# metrics registry (atomic counters incremented from every pipeline
# stage while /metrics snapshots them), the quality sentinel (one
# mutex guarding ledger + drift state fed from poll and analysis paths
# while /qualityz evaluates concurrently), and the out-of-core query
# engine (detection mapped onto the decode pool, folds on one
# goroutine), and the incremental stream engine (concurrent Offer vs.
# the pool's detect workers vs. its ordered fold), and the
# collection fleet (lease table hammered by concurrent replicas, TTL
# expiry racing renewals, checkpoint posts fenced by epoch), and the SLO
# engine (Tick vs. /sloz State vs. HealthSource under worker fan-out), and
# the detail set (concurrent readers of views while Put appends).
RACE_PKGS = ./internal/parallel ./internal/report ./internal/collector ./internal/workload ./internal/snapshot ./internal/faults ./internal/explorer ./internal/obs ./internal/quality ./internal/query ./internal/stream ./internal/fleet ./internal/slo ./internal/jito

.PHONY: verify build fmt test vet race bench bench-json bench-stream bench-latency chaos fuzz metrics-smoke fleet trace-smoke load-smoke

# verify is the extended tier-1 gate (see ROADMAP.md): build, gofmt
# cleanliness, tests, static checks, and the race suite over the
# concurrent packages.
verify: build fmt test vet race

build:
	$(GO) build ./...

fmt:
	test -z "$$(gofmt -l .)"

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race $(RACE_PKGS)

# chaos is the resilience gate: every chaos-tagged test under the race
# detector (fault taxonomy, wire-level middleware, worker-count
# determinism, 10%-fault integrity, the collector's connection
# lifecycle: keep-alive, redial, close and framings, and the stream and
# query engines' bit-identity under chaos-fed and chaos-collected
# data), then a seeded end-to-end soak of
# the full pipeline under a 10% fault rate.
chaos:
	$(GO) test -race -count=1 -run 'Chaos|Fault|Resilien|Breaker|Backfill|Outage|Pending|Timeout|Conn' . ./internal/faults ./internal/collector ./internal/stream ./internal/query
	$(GO) run ./cmd/jitosim -days 10 -scale 20000 -fault-rate 0.1 -chaos-seed 7 -fig headline

# fuzz runs each of the eleven native fuzz targets briefly: the
# fixed-width base58 paths against the generic reference, and the
# explorer wire codec's decoders against encoding/json (accept/reject,
# decoded values, fault class; a recent page or a detail request
# decoded into a PageBuffer left dirty by another body equal to a fresh
# decode), and the recent-page handler's query strings (raw queries and
# encoded limit/before values: the status and page url.ParseQuery and
# Get imply, never a panic), and the snapshot reader (Scan
# with and without Map, and Read: never a panic, only ErrCorrupt, a
# second scan on recycled decode memory equal to the first, and a loaded
# detail set equal to the batches' details taken in scan order, the last
# write winning), and the W3C traceparent parser (an accepted header
# carries exactly the IDs and sampled bit it decoded to), and the fleet
# /leasez operations (arbitrary POST bodies: never a panic, only
# 200/400/404/409), and jito.DetailSet (arbitrary Put/Adopt/Get/Len/
# iterate sequences over repeated signatures, adopted runs repeating
# earlier signatures and their own at aligned and unaligned starts, half
# of them with the hash narrowed to four buckets so collision chains are
# long, against a plain map), and the collector's HTTP/1.1 response reader (arbitrary response
# bytes against net/http's ReadResponse plus io.ReadAll: equal status
# and body where both accept, alike fault classes where both refuse,
# never a panic, memory within the header and body caps), and the
# stream engine (a sparse or a dense study's feed delivered under an arbitrary plan of
# per-event delays within the watermark lag and duplicate deliveries,
# at 1 or 4 workers: Results equal to the batch pass over the same
# deliveries, nothing dropped late, the collector's duplicate count).
# Its inputs cost a whole study pass each, so minimizing a new input
# is capped at 1s; uncapped, minimization would take the whole run.
# Seed corpora are encoder output of generated records plus
# ChaosHandler-style truncations and byte flips, the limit/before test
# cases and raw queries with semicolons, repeated keys, empty values and
# valid and invalid escapes, a small snapshot with its truncations and a file holding one
# signature twice, the traceparent round-trip cases, the /leasez request
# bodies of the HTTP tests, short DetailSet op sequences (adopts among
# them), explorer responses framed by Content-Length, chunked and
# EOF with their ChaosHandler-style truncations and byte flips, and
# delivery plans with no faults, the chaos-feed test's own plan, every
# event one slot late and every event duplicated, and on the dense feed
# alternate events late at lag 2 and lag 16 and a mixed plan at lag 16.
fuzz:
	$(GO) test -run=NONE -fuzz='^FuzzBase58Fixed$$' -fuzztime=10s -parallel=2 ./internal/base58
	$(GO) test -run=NONE -fuzz='^FuzzDecodeRecent$$' -fuzztime=10s -parallel=2 ./internal/explorer
	$(GO) test -run=NONE -fuzz='^FuzzDecodeDetailRequest$$' -fuzztime=10s -parallel=2 ./internal/explorer
	$(GO) test -run=NONE -fuzz='^FuzzDecodeDetailResponse$$' -fuzztime=10s -parallel=2 ./internal/explorer
	$(GO) test -run=NONE -fuzz='^FuzzRecentQuery$$' -fuzztime=10s -parallel=2 ./internal/explorer
	$(GO) test -run=NONE -fuzz='^FuzzScan$$' -fuzztime=10s -parallel=2 ./internal/snapshot
	$(GO) test -run=NONE -fuzz='^FuzzTraceparent$$' -fuzztime=10s -parallel=2 ./internal/obs
	$(GO) test -run=NONE -fuzz='^FuzzLeasezOps$$' -fuzztime=10s -parallel=2 ./internal/fleet
	$(GO) test -run=NONE -fuzz='^FuzzDetailSet$$' -fuzztime=10s -parallel=2 ./internal/jito
	$(GO) test -run=NONE -fuzz='^FuzzReadResponse$$' -fuzztime=10s -parallel=2 ./internal/collector
	$(GO) test -run=NONE -fuzz='^FuzzStreamMatchesBatch$$' -fuzztime=10s -fuzzminimizetime=1s -parallel=2 ./internal/stream

# bench smoke-runs every benchmark once — cheap proof that each figure,
# table and pipeline benchmark still executes; use -benchtime=default
# runs for real measurements.
bench:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# bench-json writes the BENCH_*.json files (benchmark name → ns/op,
# B/op, allocs/op, MB/s) at default benchtimes. The observability-overhead
# benchmarks (registry hot path plus instrumented-vs-plain analysis) land
# in BENCH_obs.json. `make bench` is the smoke pass over every benchmark;
# whole-pipeline measurement is perfbench (BENCHMARK.json).
bench-json:
	$(GO) test -run=NONE -bench='Obs|InstrumentedAnalyze|AnalyzeParallel$$' -benchmem . ./internal/obs | $(GO) run ./cmd/benchjson > BENCH_obs.json
	$(GO) test -run=NONE -bench=Quality -benchmem ./internal/quality | $(GO) run ./cmd/benchjson > BENCH_quality.json
	$(GO) test -run=NONE -bench=Query -benchmem ./internal/query | $(GO) run ./cmd/benchjson > BENCH_query.json
	$(GO) test -run=NONE -bench=Stream -benchmem ./internal/stream | $(GO) run ./cmd/benchjson > BENCH_stream.json
	$(GO) test -run=NONE -bench=Fleet -benchmem ./internal/fleet | $(GO) run ./cmd/benchjson > BENCH_fleet.json
	$(GO) test -run=NONE -bench='Trace|InstrumentedAnalyze|TracedAnalyze' -benchmem . ./internal/obs | $(GO) run ./cmd/benchjson > BENCH_trace.json
	$(GO) test -run=NONE -bench=SLO -benchmem ./internal/slo | $(GO) run ./cmd/benchjson > BENCH_slo.json
	$(GO) run ./cmd/loadgen -self -clients 32 -qps 200 -qps-max 1500 -steps 4 -step-dur 3s -bench-out BENCH_serve.json

# bench-latency smoke-runs the incremental-detection benchmarks once —
# quick proof that the streamed path and the batch baseline still
# execute and report their latency percentiles.
bench-latency:
	$(GO) test -run=NONE -bench=Stream -benchtime=1x ./internal/stream

# bench-stream smoke-runs the out-of-core query benchmarks once:
# streaming full scan, day-range pruned scan, and the resident baseline
# over the same synthetic four-month container.
bench-stream:
	$(GO) test -run=NONE -bench=Query -benchtime=1x ./internal/query

# fleet is the distributed-collection gate: lease/fencing/chaos/merge
# tests under the race detector, then a real multi-process run — four
# collect -fleet replicas against a chaos explorerd, one killed with
# SIGKILL mid-run, survivors finishing its partitions, and the merged
# snapshot compared byte-for-byte against a clean single-replica
# baseline (see scripts/fleet_smoke.sh).
fleet:
	$(GO) test -race -count=1 -run 'Fleet|Lease|Merge|Plan' ./internal/fleet
	sh scripts/fleet_smoke.sh

# trace-smoke is the distributed-tracing gate: the tracer/propagation
# tests under the race detector, then a real two-process run — collect
# polling a chaos explorerd with traceparent propagation, both flight
# recorders validated by metricscheck -tracez-url, injected faults
# attributed to the traces that suffered them, and histogram exemplars
# linking /metrics tails to trace IDs (see scripts/trace_smoke.sh).
trace-smoke:
	$(GO) test -race -count=1 -run 'Trace|Span|Exemplar' ./internal/obs ./internal/fleet
	sh scripts/trace_smoke.sh

# metrics-smoke starts explorerd, validates its /metrics exposition, then
# runs a short collect with -metrics-addr and validates the collector's
# live and end-of-run metrics, plus both processes' /qualityz verdict
# documents, /sloz SLO documents and /healthz probes (see
# scripts/metrics_smoke.sh).
metrics-smoke:
	sh scripts/metrics_smoke.sh

# load-smoke is the service-level gate: the SLO engine tests under the
# race detector, then a real run — explorerd with second-scale SLO
# windows under a steady loadgen fleet, /sloz walked through
# all-ok -> fast-burn -> recovered by toggling the fault rate over
# /chaosz (with /healthz 503ing during the burn), then a QPS ramp that
# writes BENCH_serve.json with per-step p50/p99 and the max sustainable
# QPS (see scripts/load_smoke.sh).
load-smoke:
	$(GO) test -race -count=1 -run 'SLO|Burn|Health|Sloz|Budget' ./internal/slo ./internal/obs
	sh scripts/load_smoke.sh
