package jitomev

// One benchmark per table and figure in the paper's evaluation, per the
// experiment index in DESIGN.md. Each benchmark regenerates its artifact:
// the shared study pipeline runs once in setup (it is itself benchmarked
// by BenchmarkFullPipeline), and the timed loop covers the analysis and
// rendering that produce the table or figure.
//
// Run with: go test -bench=. -benchmem

import (
	"io"
	"sync"
	"testing"

	"jitomev/internal/collector"
	"jitomev/internal/core"
	"jitomev/internal/explorer"
	"jitomev/internal/obs"
	"jitomev/internal/report"
	"jitomev/internal/workload"
)

var (
	benchOnce    sync.Once
	benchOutcome *Outcome
)

// benchPipeline runs one shared 20-day study for the figure benchmarks.
func benchPipeline(b *testing.B) *Outcome {
	b.Helper()
	benchOnce.Do(func() {
		out, err := Run(Config{
			Workload:    workload.Params{Seed: 1, Days: 20, Scale: 10_000},
			RunAblation: false,
		})
		if err != nil {
			panic(err)
		}
		benchOutcome = out
	})
	return benchOutcome
}

// BenchmarkTable1ExampleSandwich regenerates Table 1: the canonical
// sandwich executed through pool, bank, block engine and detector.
func BenchmarkTable1ExampleSandwich(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		report.RenderTable1(io.Discard)
	}
}

// BenchmarkFigure1BundlesPerDay regenerates Figure 1: bundles per day by
// bundle length, with outage gaps.
func BenchmarkFigure1BundlesPerDay(b *testing.B) {
	out := benchPipeline(b)
	det := core.NewDefaultDetector()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := report.Analyze(out.Collector.Data, det, 0)
		report.RenderFigure1(io.Discard, r, out.Study.P.InOutage)
	}
}

// BenchmarkFigure2AttacksAndDefense regenerates Figure 2 (top): attacks
// and defensive bundles per day.
func BenchmarkFigure2AttacksAndDefense(b *testing.B) {
	out := benchPipeline(b)
	det := core.NewDefaultDetector()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := report.Analyze(out.Collector.Data, det, 0)
		report.RenderFigure2(io.Discard, r, out.Study.P.InOutage)
	}
}

// BenchmarkFigure2Losses regenerates Figure 2 (bottom): per-day victim
// losses and attacker gains in SOL (the quantification pass alone).
func BenchmarkFigure2Losses(b *testing.B) {
	out := benchPipeline(b)
	det := core.NewDefaultDetector()
	data := out.Collector.Data
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var loss, gain float64
		for j := range data.Len3 {
			rec := &data.Len3[j]
			details, ok := data.DetailsFor(rec)
			if !ok {
				continue
			}
			if v := det.Detect(rec, details); v.Sandwich && v.HasSOL {
				loss += v.VictimLossLamports
				gain += v.AttackerGainLamports
			}
		}
		if loss <= 0 || gain <= 0 {
			b.Fatal("quantification produced nothing")
		}
	}
}

// BenchmarkFigure3LossCDF regenerates Figure 3: the CDF of USD lost per
// sandwiched transaction.
func BenchmarkFigure3LossCDF(b *testing.B) {
	out := benchPipeline(b)
	det := core.NewDefaultDetector()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := report.Analyze(out.Collector.Data, det, 0)
		report.RenderFigure3(io.Discard, r, 25)
	}
}

// BenchmarkFigure4TipCDF regenerates Figure 4: tip CDFs for length-1,
// length-3 and sandwich bundles.
func BenchmarkFigure4TipCDF(b *testing.B) {
	out := benchPipeline(b)
	det := core.NewDefaultDetector()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := report.Analyze(out.Collector.Data, det, 0)
		report.RenderFigure4(io.Discard, r)
	}
}

// BenchmarkHeadlineStats regenerates the headline table (H1–H15).
func BenchmarkHeadlineStats(b *testing.B) {
	out := benchPipeline(b)
	det := core.NewDefaultDetector()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := report.Analyze(out.Collector.Data, det, 0)
		r.OverlapRate = out.Collector.OverlapRate()
		report.RenderHeadline(io.Discard, r, out.Study.P.Scale)
	}
}

// BenchmarkAnalyzeSerial runs the single-core reference analysis pass
// (Workers=1) over the 20-day Scale=10,000 bench study — the baseline
// BenchmarkAnalyzeParallel is measured against.
func BenchmarkAnalyzeSerial(b *testing.B) {
	out := benchPipeline(b)
	det := core.NewDefaultDetector()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := report.AnalyzeN(out.Collector.Data, det, 0, 1)
		if r.Sandwiches == 0 {
			b.Fatal("analysis found nothing")
		}
	}
}

// BenchmarkAnalyzeParallel shards the same pass across GOMAXPROCS
// workers; results are bit-identical to the serial pass (asserted by
// TestAnalyzeDeterministicAcrossWorkers), only faster on multicore.
func BenchmarkAnalyzeParallel(b *testing.B) {
	out := benchPipeline(b)
	det := core.NewDefaultDetector()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := report.AnalyzeN(out.Collector.Data, det, 0, 0)
		if r.Sandwiches == 0 {
			b.Fatal("analysis found nothing")
		}
	}
}

// BenchmarkInstrumentedAnalyze is BenchmarkAnalyzeParallel with a live
// metrics registry attached: the delta against the uninstrumented run is
// the whole-pipeline cost of the observability layer (per-metric cost is
// BenchmarkObsCounter in internal/obs).
func BenchmarkInstrumentedAnalyze(b *testing.B) {
	out := benchPipeline(b)
	det := core.NewDefaultDetector()
	reg := obs.NewRegistry()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := report.AnalyzeObs(out.Collector.Data, det, 0, 0, reg)
		if r.Sandwiches == 0 {
			b.Fatal("analysis found nothing")
		}
	}
}

// BenchmarkTracedAnalyze is BenchmarkInstrumentedAnalyze with the
// distributed tracer attached to the registry: AnalyzeObs roots a
// "report.analyze" trace with per-stage child spans on every pass. The
// delta against BenchmarkInstrumentedAnalyze is the whole-pipeline cost
// of tracing an instrumented run (acceptance: ≤5%); per-span cost is
// BenchmarkTraceSampled in internal/obs.
func BenchmarkTracedAnalyze(b *testing.B) {
	out := benchPipeline(b)
	det := core.NewDefaultDetector()
	reg := obs.NewRegistry()
	obs.NewTracer(reg, obs.TraceConfig{Service: "bench", Seed: 1, SampleRate: 1, Capacity: 64})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := report.AnalyzeObs(out.Collector.Data, det, 0, 0, reg)
		if r.Sandwiches == 0 {
			b.Fatal("analysis found nothing")
		}
	}
}

// BenchmarkStudyRunPipelined times generation with ingest pipelined
// behind block production (Workers>1 path of jitomev.Run); compare with
// BenchmarkStudyRunSync for the overlap won on multicore hardware.
func BenchmarkStudyRunPipelined(b *testing.B) {
	benchStudyRun(b, true)
}

// BenchmarkStudyRunSync is the synchronous generation→ingest baseline.
func BenchmarkStudyRunSync(b *testing.B) {
	benchStudyRun(b, false)
}

func benchStudyRun(b *testing.B, pipelined bool) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		st := workload.New(workload.Params{Seed: int64(i + 1), Days: 3, Scale: 20_000})
		store := explorer.NewStore()
		coll := collector.New(collector.Config{}, st.P.Clock(), &collector.Direct{Store: store})
		sink := &collector.PollingSink{Store: store, Collector: coll, InOutage: st.P.InOutage}
		if pipelined {
			st.RunPipelined(sink, 0)
		} else {
			st.Run(sink)
		}
		if coll.Data.Collected == 0 {
			b.Fatal("empty study")
		}
	}
}

// BenchmarkOverlapValidation regenerates the §3.1 completeness check: a
// full polling pass (paged reads, dedup, successive-page overlap) over a
// pre-generated explorer store.
func BenchmarkOverlapValidation(b *testing.B) {
	st := workload.New(workload.Params{Seed: 2, Days: 2, Scale: 20_000})
	store := explorer.NewStore()
	st.Run(store)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := collector.New(collector.Config{PageLimit: 50},
			st.P.Clock(), &collector.Direct{Store: store})
		// Poll repeatedly like the live sink would; the store is static,
		// so after the first poll all pages overlap fully.
		for p := 0; p < 20; p++ {
			if err := c.Poll(); err != nil {
				b.Fatal(err)
			}
		}
		if c.OverlapRate() == 0 {
			b.Fatal("no overlap measured")
		}
	}
}

// BenchmarkDetectorAblation regenerates the full-vs-naive detector
// comparison against ground truth.
func BenchmarkDetectorAblation(b *testing.B) {
	out := benchPipeline(b)
	det := core.NewDefaultDetector()
	truth := truthAdapter{out.Study.GT}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ab := report.Ablate(out.Collector.Data, det, truth)
		report.RenderAblation(io.Discard, ab)
	}
}

// BenchmarkFullPipeline times the entire reproduction end to end:
// generation, collection, detail fetch, detection, analysis.
func BenchmarkFullPipeline(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out, err := Run(Config{
			Workload: workload.Params{Seed: int64(i + 1), Days: 3, Scale: 20_000},
		})
		if err != nil {
			b.Fatal(err)
		}
		if out.Results.TotalBundles == 0 {
			b.Fatal("empty study")
		}
	}
}

// BenchmarkFullPipelineHTTP is the same pipeline with collection over real
// loopback HTTP — the faithful (and slower) transport.
func BenchmarkFullPipelineHTTP(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out, err := Run(Config{
			Workload: workload.Params{Seed: int64(i + 1), Days: 3, Scale: 20_000},
			UseHTTP:  true,
		})
		if err != nil {
			b.Fatal(err)
		}
		if out.Results.TotalBundles == 0 {
			b.Fatal("empty study")
		}
	}
}
