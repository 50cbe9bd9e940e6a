// Command report regenerates a single figure or table from a deterministic
// study. Because studies are fully determined by (seed, days, scale), the
// dataset never needs to be persisted: the same flags always regenerate
// the same figure.
//
// With -load the command analyzes a saved snapshot instead; -stream
// routes that through the out-of-core engine (internal/query), which
// scans the snapshot shard-at-a-time under bounded memory. -days then
// restricts the query to a study-day range, pruning out-of-range shards
// without decoding them.
//
// Usage:
//
//	report -fig 3 [-days 60] [-scale 5000] [-seed 1] [-points 25]
//	report -fig table1
//	report -fig headline -load data.snap -stream [-days 30:59]
//	report -fig headline -cpuprofile cpu.out -memprofile mem.out
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"jitomev"
	"jitomev/internal/collector"
	"jitomev/internal/core"
	"jitomev/internal/query"
	"jitomev/internal/report"
	streamdet "jitomev/internal/stream"
	"jitomev/internal/workload"
)

func main() {
	var (
		fig     = flag.String("fig", "headline", "headline|1|2|3|4|rejections|ablation|csv|table1")
		days    = flag.String("days", "60", "study length in days; with -load, a day filter: N (first N days) or lo:hi (inclusive)")
		scale   = flag.Int("scale", 5_000, "volume divisor vs paper scale")
		seed    = flag.Int64("seed", 1, "deterministic seed")
		points  = flag.Int("points", 25, "CDF points for figure 3")
		load    = flag.String("load", "", "analyze a saved dataset instead of regenerating")
		stream  = flag.Bool("stream", false, "with -load: out-of-core streaming analysis (bounded memory)")
		replay  = flag.Bool("replay", false, "with -load: replay the dataset through the incremental detector (prints latency percentiles)")
		workers = flag.Int("workers", 0, "analysis workers: 0 = all cores, 1 = serial reference path")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile to this path")
		memProf = flag.String("memprofile", "", "write a heap profile to this path (taken after the run)")
	)
	flag.Parse()
	daysSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "days" {
			daysSet = true
		}
	})

	// Profile setup strictly precedes the analysis timer below, so the
	// reported wall time (and any benchmark built on it) measures
	// analysis only, never profile file creation.
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
		defer pprof.StopCPUProfile()
	}
	run(fig, days, scale, seed, points, load, stream, replay, workers, daysSet)
	if *memProf != "" {
		f, err := os.Create(*memProf)
		if err != nil {
			fail(err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "report:", err)
	os.Exit(1)
}

// parseDays understands the two -days forms: a plain integer (study
// length, or "first N days" as a -load filter) and an inclusive lo:hi
// day range (a -load filter only).
func parseDays(s string) (length int, rng *query.DayRange, err error) {
	if lo, hi, ok := strings.Cut(s, ":"); ok {
		r := &query.DayRange{}
		if r.Lo, err = strconv.Atoi(lo); err != nil {
			return 0, nil, fmt.Errorf("bad -days range %q: %v", s, err)
		}
		if r.Hi, err = strconv.Atoi(hi); err != nil {
			return 0, nil, fmt.Errorf("bad -days range %q: %v", s, err)
		}
		if r.Lo > r.Hi {
			return 0, nil, fmt.Errorf("bad -days range %q: reversed (lo %d > hi %d; want lo:hi inclusive)", s, r.Lo, r.Hi)
		}
		return 0, r, nil
	}
	if length, err = strconv.Atoi(s); err != nil || length <= 0 {
		return 0, nil, fmt.Errorf("bad -days %q: want a positive integer or lo:hi", s)
	}
	return length, nil, nil
}

func run(fig, days *string, scale *int, seed *int64, points *int, load *string, stream, replay *bool, workers *int, daysSet bool) {
	if *fig == "table1" {
		report.RenderTable1(os.Stdout)
		return
	}

	length, rng, err := parseDays(*days)
	if err != nil {
		fmt.Fprintln(os.Stderr, "report:", err)
		os.Exit(2)
	}

	if *load != "" {
		if rng == nil && daysSet {
			// -days N with -load: the first N study days.
			rng = &query.DayRange{Lo: 0, Hi: length - 1}
		}
		renderFromFile(*load, *fig, *points, *workers, *stream, *replay, rng)
		return
	}
	if *replay {
		fmt.Fprintln(os.Stderr, "report: -replay requires -load (a saved dataset to replay)")
		os.Exit(2)
	}
	if rng != nil {
		fmt.Fprintln(os.Stderr, "report: -days lo:hi is a -load filter; regeneration takes a plain length")
		os.Exit(2)
	}

	out, err := jitomev.Run(jitomev.Config{
		Workload:    workload.Params{Seed: *seed, Days: length, Scale: *scale},
		RunAblation: *fig == "ablation",
		Workers:     *workers,
	})
	if err != nil {
		fail(err)
	}
	r, p := out.Results, out.Study.P

	switch *fig {
	case "headline":
		report.RenderHeadline(os.Stdout, r, p.Scale)
	case "1":
		report.RenderFigure1(os.Stdout, r, p.InOutage)
	case "2":
		report.RenderFigure2(os.Stdout, r, p.InOutage)
	case "3":
		report.RenderFigure3(os.Stdout, r, *points)
	case "4":
		report.RenderFigure4(os.Stdout, r)
	case "rejections":
		report.RenderRejections(os.Stdout, r)
	case "ablation":
		report.RenderAblation(os.Stdout, out.Ablation)
	case "csv":
		report.WriteCSV(os.Stdout, r, p.InOutage)
	default:
		fmt.Fprintf(os.Stderr, "report: unknown -fig %q\n", *fig)
		os.Exit(2)
	}
}

// renderFromFile analyzes a saved dataset and renders the requested
// figure. Outage shading is unavailable (the saved dataset does not
// carry the workload's outage calendar); gaps still show as missing
// days. rng, when non-nil, restricts the analysis to that day range via
// the streaming engine.
func renderFromFile(path, fig string, points, workers int, stream, replay bool, rng *query.DayRange) {
	var r *report.Results
	if replay {
		if rng != nil {
			fmt.Fprintln(os.Stderr, "report: -replay replays the whole dataset; drop the -days filter")
			os.Exit(2)
		}
		r = replayFromFile(path, workers)
	} else if stream || rng != nil {
		// The timer starts after flag and profile setup: wall time below
		// is the query alone.
		start := time.Now()
		res, st, err := query.RunFile(path, query.Options{Workers: workers, Days: rng})
		if err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "report: streamed: %d shards scanned, %d pruned (%.0f%%), %.1f MiB decoded, %.1f MiB skipped, peak heap %.1f MiB, %s\n",
			st.ShardsScanned, st.ShardsPruned, 100*st.PrunedFraction(),
			float64(st.BytesDecoded)/(1<<20), float64(st.BytesSkipped)/(1<<20),
			float64(st.PeakHeapBytes)/(1<<20), time.Since(start).Round(time.Millisecond))
		r = res
	} else {
		f, err := os.Open(path)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		data, err := collector.LoadDatasetWorkers(f, 1024, workers)
		if err != nil {
			fail(err)
		}
		r = report.AnalyzeN(data, core.NewDefaultDetector(), 0, workers)
	}
	switch fig {
	case "headline":
		report.RenderHeadline(os.Stdout, r, 1)
	case "1":
		report.RenderFigure1(os.Stdout, r, nil)
	case "2":
		report.RenderFigure2(os.Stdout, r, nil)
	case "3":
		report.RenderFigure3(os.Stdout, r, points)
	case "4":
		report.RenderFigure4(os.Stdout, r)
	case "rejections":
		report.RenderRejections(os.Stdout, r)
	case "csv":
		report.WriteCSV(os.Stdout, r, nil)
	default:
		fmt.Fprintf(os.Stderr, "report: -fig %q unsupported with -load\n", fig)
		os.Exit(2)
	}
}

// replayFromFile pushes a saved dataset through the incremental
// detection engine in canonical order — the verdicts are bit-identical
// to the batch pass — and reports the stream's per-stage latency on
// stderr, leaving stdout to the figure.
func replayFromFile(path string, workers int) *report.Results {
	f, err := os.Open(path)
	if err != nil {
		fail(err)
	}
	defer f.Close()
	data, err := collector.LoadDatasetWorkers(f, 1024, workers)
	if err != nil {
		fail(err)
	}
	eng := streamdet.New(streamdet.Config{
		Workers:  workers,
		Extended: len(data.Long) > 0,
		Clock:    data.Clock,
	})
	start := time.Now()
	streamdet.Replay(eng, data)
	r := eng.Finish()
	elapsed := time.Since(start)
	s := eng.Summary()
	s.Write(os.Stderr)
	rate := float64(s.Events) / elapsed.Seconds()
	fmt.Fprintf(os.Stderr, "  replayed %d events in %s (%.0f events/s)\n", s.Events, elapsed.Round(time.Millisecond), rate)
	return r
}
