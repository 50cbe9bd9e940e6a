// Command perfbench is the repository benchmark: three seeded workloads
// driven through the program's public entry points, each printing one
// JSON result line whose metrics are named in BENCHMARK.json.
//
//	perfbench --workload study-http|serve-mixed|reanalyze --seed N
//	          --seconds S --trace 0|1 [--schedule-seed M]
//
// With --trace 0 the run measures the end-to-end metrics with no spans
// recorded; with --trace 1 it alternates untraced and traced passes and
// reports the per-layer metrics, the blocking-path breakdown and the
// tracing overhead. See NOTES.md for what each workload exercises.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

// config is one benchmark invocation.
type config struct {
	workload     string
	seed         int64
	scheduleSeed int64
	seconds      float64
	trace        bool
	tiny         bool   // self-test sizes: every phase shrunk to a fraction of a second
	explorerd    string // path of the built cmd/explorerd binary (serve-mixed)
	workdir      string // working directory for snapshots, inside the checkout
	sabotage     bool   // corrupt one expectation so the checks must fail
}

// result accumulates one run's output. e2e and layer hold metric values
// by name; units come from BENCHMARK.json.
type result struct {
	attempted int
	failed    int
	e2e       map[string]float64
	layer     map[string]float64
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// check counts one correctness-checked operation.
func (r *result) check(ok bool) {
	r.attempted++
	if !ok {
		r.failed++
	}
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(cfg config, res *result) error{
	"study-http":  runStudyHTTP,
	"serve-mixed": runServeMixed,
	"reanalyze":   runReanalyze,
}

// spec is the subset of BENCHMARK.json the harness reads: metric names
// and units, so the result line and the declaration cannot drift apart.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "study-http, serve-mixed or reanalyze")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: the study the program generates")
	flag.Int64Var(&cfg.scheduleSeed, "schedule-seed", 0, "serve-mixed request schedule seed (0 = the workload seed)")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&cfg.explorerd, "explorerd", ".bench_build/explorerd", "built cmd/explorerd binary")
	flag.StringVar(&cfg.workdir, "workdir", ".bench_build/work", "working directory for snapshots")
	flag.Parse()
	cfg.trace = traceFlag == 1
	if cfg.scheduleSeed == 0 {
		cfg.scheduleSeed = cfg.seed
	}

	line, err := run(cfg, "BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// run executes one workload and assembles its result line: every
// end-to-end metric (trace off) or every per-layer metric (trace on) the
// spec declares. An end-to-end metric the workload did not measure is an
// error; a per-layer metric of a layer the workload never enters reads 0.
func run(cfg config, specPath string) (*resultLine, error) {
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return nil, fmt.Errorf("reading spec: %w", err)
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		return nil, fmt.Errorf("parsing spec %s: %w", specPath, err)
	}
	drive, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.workdir, cfg.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	cfg.workdir = dir

	res := newResult()
	if err := drive(cfg, res); err != nil {
		return nil, err
	}
	if res.attempted == 0 {
		return nil, errors.New("no operation was attempted")
	}
	line := &resultLine{
		Correct:   res.failed == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   map[string]metricOut{},
	}
	if cfg.trace {
		res.layer["error_ratio"] = float64(res.failed) / float64(res.attempted)
		for _, m := range sp.PerLayer {
			line.Metrics[m.Name] = metricOut{Value: res.layer[m.Name], Unit: m.Unit}
		}
		return line, nil
	}
	for _, m := range sp.EndToEnd {
		v, ok := res.e2e[m.Name]
		if !ok {
			return nil, fmt.Errorf("workload %s did not measure %s", cfg.workload, m.Name)
		}
		line.Metrics[m.Name] = metricOut{Value: v, Unit: m.Unit}
	}
	return line, nil
}

// workPath names a file in the run's working directory.
func workPath(cfg config, name string) string { return filepath.Join(cfg.workdir, name) }
