package stream_test

import (
	"testing"

	"jitomev/internal/collector"
	"jitomev/internal/core"
	"jitomev/internal/report"
	"jitomev/internal/stream"
)

// runStreamBench drives the captured study feed through the incremental
// engine at full speed and reports the per-event detection latency
// percentiles alongside throughput. The p50/p99 are the engine's own
// ingest→verdict measurements: with the feed arriving as fast as Offer
// accepts it, they bound the processing latency a live tap would add on
// top of slot time.
func runStreamBench(b *testing.B, cross stream.CrossConfig) {
	fx := buildFeed(b)
	b.ResetTimer()
	var last stream.Summary
	for i := 0; i < b.N; i++ {
		eng := stream.New(stream.Config{Extended: true, Clock: fx.clock, Cross: cross})
		for _, ev := range fx.events {
			eng.Offer(ev)
		}
		if r := eng.Finish(); r == nil {
			b.Fatal("Finish returned nil Results")
		}
		last = eng.Summary()
	}
	b.ReportMetric(float64(last.Events)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
	b.ReportMetric(float64(last.DetectP50.Nanoseconds())/1e6, "p50-ms")
	b.ReportMetric(float64(last.DetectP99.Nanoseconds())/1e6, "p99-ms")
}

// BenchmarkStreamDetect is the batch-comparable configuration: the
// in-block fold alone, the same verdicts AnalyzeN computes. Its events/s
// against BenchmarkStreamBatchBaseline is the throughput acceptance
// ratio.
func BenchmarkStreamDetect(b *testing.B) {
	runStreamBench(b, stream.CrossConfig{})
}

// BenchmarkStreamDetectCross adds the cross-block candidate stage — work
// the batch path cannot do at all (every trade of every bundle flows
// through the tracker), priced separately so the in-block comparison
// stays apples-to-apples.
func BenchmarkStreamDetectCross(b *testing.B) {
	runStreamBench(b, stream.CrossConfig{WindowSlots: 4})
}

// BenchmarkStreamBatchBaseline is the comparison point: the batch path
// doing the same end-to-end work over the same feed — ingest every
// record into a dataset, retain details, then one AnalyzeN pass.
// events/s here is the bar the streamed path's throughput is measured
// against (acceptance: within 20%).
func BenchmarkStreamBatchBaseline(b *testing.B) {
	fx := buildFeed(b)
	det := core.NewDefaultDetector()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data := collector.NewDataset(fx.clock, 1024)
		data.RetainLengths(4, 5)
		for _, ev := range fx.events {
			data.Ingest(ev.Rec)
			switch ev.Rec.NumTxs() {
			case 3, 4, 5:
				for _, d := range ev.Details {
					data.Details.Put(d)
				}
			}
		}
		if r := report.AnalyzeN(data, det, 0, 0); r == nil {
			b.Fatal("AnalyzeN returned nil")
		}
	}
	b.ReportMetric(float64(len(fx.events))*float64(b.N)/b.Elapsed().Seconds(), "events/s")
}
