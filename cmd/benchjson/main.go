// Command benchjson converts `go test -bench` text output on stdin into
// a JSON object on stdout mapping each benchmark name to its metrics
// (ns/op, B/op, allocs/op, MB/s when present). Custom units emitted via
// b.ReportMetric — e.g. the streaming-query shards/s, peak-RSS-bytes and
// pruned-frac, or the incremental detector's events/s and p50-ms/p99-ms
// latency percentiles — land under "extra" keyed by unit. The `make
// bench-json` target pipes per-subsystem benchmarks through it into
// files like BENCH_stream.json. For a smoke pass over every benchmark
// use `make bench`; whole-pipeline measurement is perfbench
// (BENCHMARK.json).
//
// Usage:
//
//	go test -run=NONE -bench=. -benchmem ./... | benchjson > BENCH.json
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// metrics is one benchmark's parsed result line.
type metrics struct {
	NsPerOp     float64  `json:"ns_op"`
	BytesPerOp  *int64   `json:"b_op,omitempty"`
	AllocsPerOp *int64   `json:"allocs_op,omitempty"`
	MBPerSec    *float64 `json:"mb_s,omitempty"`
	Iterations  int64    `json:"iterations"`

	// Extra holds custom b.ReportMetric pairs keyed by their unit.
	Extra map[string]float64 `json:"extra,omitempty"`
}

func main() {
	out := make(map[string]metrics)
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		name, m, ok := parseLine(sc.Text())
		if ok {
			out[name] = m
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// parseLine recognizes lines like
//
//	BenchmarkFoo/sub-8   100  12345 ns/op  67.8 MB/s  910 B/op  11 allocs/op
//
// and returns the name (GOMAXPROCS suffix kept — it is part of the
// benchmark's identity) with every recognized metric pair.
func parseLine(line string) (string, metrics, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return "", metrics{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return "", metrics{}, false
	}
	m := metrics{Iterations: iters}
	seenNs := false
	for i := 2; i+1 < len(fields); i += 2 {
		val, unit := fields[i], fields[i+1]
		switch unit {
		case "ns/op":
			if m.NsPerOp, err = strconv.ParseFloat(val, 64); err != nil {
				return "", metrics{}, false
			}
			seenNs = true
		case "B/op":
			if v, err := strconv.ParseInt(val, 10, 64); err == nil {
				m.BytesPerOp = &v
			}
		case "allocs/op":
			if v, err := strconv.ParseInt(val, 10, 64); err == nil {
				m.AllocsPerOp = &v
			}
		case "MB/s":
			if v, err := strconv.ParseFloat(val, 64); err == nil {
				m.MBPerSec = &v
			}
		default:
			if v, err := strconv.ParseFloat(val, 64); err == nil {
				if m.Extra == nil {
					m.Extra = make(map[string]float64)
				}
				m.Extra[unit] = v
			}
		}
	}
	if !seenNs {
		return "", metrics{}, false
	}
	return fields[0], m, true
}
