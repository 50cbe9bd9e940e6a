// Command jitosim runs the full reproduction pipeline — synthetic
// workload, collection, detection, analysis — and prints every figure and
// the headline table.
//
// Usage:
//
//	jitosim [-days 120] [-scale 2000] [-seed 1] [-workers 0] [-http] [-csv out.csv] [-fig all]
//	        [-fault-rate 0.1 -chaos-seed 7] [-metrics-addr 127.0.0.1:9100] [-summary]
//
// -metrics-addr serves GET /metrics, GET /statusz, GET /qualityz, GET
// /sloz (the SLO engine's error-budget verdicts over the collection
// objectives) and GET /healthz (503 when the quality verdict is
// critical or an SLO objective is in fast burn) while the pipeline runs
// (-pprof adds net/http/pprof on the same listener). -summary prints
// the full metrics registry, the data-quality verdict table and the SLO
// table at exit; a chaos run (-fault-rate) prints them unconditionally
// — the table replaces the hand-built chaos summary line, which now
// falls out of the registry for free.
package main

import (
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"jitomev"
	"jitomev/internal/obs"
	"jitomev/internal/quality"
	"jitomev/internal/report"
	"jitomev/internal/slo"
	"jitomev/internal/snapshot"
	"jitomev/internal/workload"
)

func main() {
	var (
		days      = flag.Int("days", 120, "study length in days (paper window: 120)")
		scale     = flag.Int("scale", 2000, "volume divisor vs paper scale (14.8M bundles/day)")
		seed      = flag.Int64("seed", 1, "deterministic seed")
		useHTTP   = flag.Bool("http", false, "collect over a real loopback HTTP explorer API")
		csvPath   = flag.String("csv", "", "also write per-day series CSV to this path")
		fig       = flag.String("fig", "all", "what to print: headline|1|2|3|4|rejections|ablation|tradeoff|all")
		solUSD    = flag.Float64("solusd", 242, "SOL to USD conversion rate")
		extended  = flag.Bool("extended", false, "also scan length-4/5 bundles for disguised sandwiches")
		backfill  = flag.Int("backfill", 0, "backfill pages on broken overlap (0 = paper behaviour)")
		saveData  = flag.String("savedata", "", "persist the collected dataset to this path")
		blockscan = flag.Bool("blockscan", false, "also run the pre-bundle block-scan baseline")
		workers   = flag.Int("workers", 0, "pipeline workers: 0 = all cores, 1 = serial reference path")
		faultRate = flag.Float64("fault-rate", 0, "per-call fault probability on the collection path (0 = off)")
		chaosSeed = flag.Int64("chaos-seed", 0, "seed for the deterministic fault schedule")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile to this path")
		memProf   = flag.String("memprofile", "", "write a heap profile to this path (taken after the run)")
		streamDet = flag.Bool("stream-detect", false, "also run the incremental streaming detector over the live feed")
		metrics   = flag.String("metrics-addr", "", "serve /metrics and /statusz on this address during the run")
		withPprof = flag.Bool("pprof", false, "with -metrics-addr, also mount net/http/pprof under /debug/pprof/")
		summary   = flag.Bool("summary", false, "print the metrics registry as a table at exit")
		traceRate = flag.Float64("trace-sample", 1, "trace head-sampling rate (negative = tracing off)")
		traceCap  = flag.Int("trace-cap", 256, "flight-recorder capacity in traces")
		sloUnit   = flag.Duration("slo-unit", 0, "SLO alert-window unit (0 = production 1h windows)")
		sloTick   = flag.Duration("slo-tick", time.Second, "SLO engine evaluation interval")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "jitosim:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "jitosim:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	reg := obs.NewRegistry()
	// The tracer shares the chaos seed, so a chaos replay reproduces its
	// trace IDs too; /tracez rides the -metrics-addr mux.
	obs.NewTracer(reg, obs.TraceConfig{
		Service:    "jitosim",
		Seed:       uint64(*chaosSeed),
		SampleRate: *traceRate,
		Capacity:   *traceCap,
	})
	q := quality.New(quality.Config{}, reg)
	// The SLO engine watches the pipeline's collection objectives while
	// it runs; /sloz serves the live verdicts, the end-of-run table
	// prints beside the metrics summary.
	sloEng := slo.New(reg, slo.Config{}, slo.CollectorObjectives(*sloUnit)...)
	sloEng.Tick()
	defer sloEng.Start(*sloTick)()
	if *metrics != "" {
		eps := []obs.Endpoint{
			{Path: "/qualityz", Handler: q.QualityHandler()},
			{Path: "/healthz", Handler: obs.HealthHandler(q.HealthSource(), sloEng.HealthSource())},
		}
		eps = append(eps, sloEng.OpsEndpoints()...)
		srv := &http.Server{
			Addr:              *metrics,
			Handler:           obs.NewOpsMux(reg, *withPprof, eps...),
			ReadHeaderTimeout: 10 * time.Second,
		}
		go func() {
			if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintln(os.Stderr, "jitosim: metrics:", err)
			}
		}()
		fmt.Printf("metrics on http://%s/metrics (statusz: /statusz, qualityz: /qualityz, sloz: /sloz, healthz: /healthz)\n", *metrics)
	}

	start := time.Now()
	out, err := jitomev.Run(jitomev.Config{
		Workload:          workload.Params{Seed: *seed, Days: *days, Scale: *scale},
		UseHTTP:           *useHTTP,
		SOLPriceUSD:       *solUSD,
		RunAblation:       true,
		ExtendedDetection: *extended,
		BackfillPages:     *backfill,
		RunBlockScan:      *blockscan,
		Workers:           *workers,
		FaultRate:         *faultRate,
		ChaosSeed:         *chaosSeed,
		StreamDetect:      *streamDet,
		Obs:               reg,
		Quality:           q,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "jitosim:", err)
		os.Exit(1)
	}
	if *memProf != "" {
		// Snapshot the heap right after the pipeline, before rendering.
		f, err := os.Create(*memProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "jitosim:", err)
			os.Exit(1)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "jitosim:", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "jitosim:", err)
			os.Exit(1)
		}
	}
	r := out.Results
	p := out.Study.P

	fmt.Printf("study: %d days at 1/%d scale, seed %d — %d bundles collected (%.1f%% coverage, %.1f%% poll overlap) in %v\n\n",
		p.Days, p.Scale, p.Seed, r.TotalBundles, 100*out.CoverageRate, 100*r.OverlapRate, time.Since(start).Round(time.Millisecond))

	if out.Chaos != nil {
		// The injected/survived breakdown the one-line chaos summary used
		// to hand-build now lives on the registry (printed at exit).
		fmt.Printf("chaos: seed %d rate %.0f%% — %d faults injected over %d calls, %d details pending\n\n",
			*chaosSeed, 100**faultRate, out.Chaos.Stats().Total(), out.Chaos.Calls(), out.PendingDetails)
	}

	show := func(name string) bool { return *fig == "all" || *fig == name }
	if show("headline") {
		report.RenderHeadline(os.Stdout, r, p.Scale)
		fmt.Println()
	}
	if show("1") {
		report.RenderFigure1(os.Stdout, r, p.InOutage)
		fmt.Println()
	}
	if show("2") {
		report.RenderFigure2(os.Stdout, r, p.InOutage)
		fmt.Println()
	}
	if show("3") {
		report.RenderFigure3(os.Stdout, r, 25)
		fmt.Println()
	}
	if show("4") {
		report.RenderFigure4(os.Stdout, r)
		fmt.Println()
	}
	if show("rejections") {
		report.RenderRejections(os.Stdout, r)
		fmt.Println()
	}
	if show("ablation") {
		report.RenderAblation(os.Stdout, out.Ablation)
		fmt.Println()
	}
	if show("tradeoff") {
		report.RenderTradeoff(os.Stdout, report.ComputeTradeoff(r))
		fmt.Println()
	}
	if *extended {
		report.RenderExtended(os.Stdout, r)
		fmt.Println()
	}
	if *streamDet {
		fmt.Println("== Streaming detection ==")
		out.StreamSummary.Write(os.Stdout)
		if sr := out.StreamResults; sr != nil {
			fmt.Printf("  full-feed results: %d sandwiches from %d bundles (batch collected view: %d from %d)\n",
				sr.Sandwiches, sr.TotalBundles, r.Sandwiches, r.TotalBundles)
		}
		fmt.Println()
	}
	if *blockscan {
		fmt.Printf("== Block-scan baseline (no bundle boundaries) ==\nflagged %d sandwich-shaped triples vs %d bundle-aware detections\n\n",
			out.BlockScanFlags, r.Sandwiches)
	}

	if *saveData != "" {
		n, err := snapshot.WriteFileAtomic(*saveData, out.Collector.Data.Save)
		if err != nil {
			fmt.Fprintln(os.Stderr, "jitosim:", err)
			os.Exit(1)
		}
		fmt.Printf("saved dataset to %s (%d bytes)\n", *saveData, n)
	}

	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "jitosim:", err)
			os.Exit(1)
		}
		report.WriteCSV(f, r, p.InOutage)
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "jitosim:", err)
			os.Exit(1)
		}
		fmt.Println("wrote", *csvPath)
	}

	if *summary || out.Chaos != nil {
		fmt.Println("== Run metrics ==")
		out.Obs.WriteSummary(os.Stdout)
		fmt.Println("\n== Data quality ==")
		out.Quality.WriteReport(os.Stdout)
		// One more tick so the SLO verdict covers the whole run.
		sloEng.Tick()
		_ = sloEng.WriteSummary(os.Stdout)
	}
}
