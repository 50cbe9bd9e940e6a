// Package report turns a collected dataset into the paper's results: the
// headline statistics (H1–H15 in DESIGN.md), the per-day series behind
// Figures 1 and 2, and the distributions behind Figures 3 and 4 — plus
// text renderers that print them as aligned tables and CSV.
package report

import (
	"jitomev/internal/collector"
	"jitomev/internal/core"
	"jitomev/internal/jito"
	"jitomev/internal/obs"
	"jitomev/internal/parallel"
	"jitomev/internal/stats"
)

// Results holds every statistic the reproduction reports.
type Results struct {
	// Dataset scope.
	Days           int
	TotalBundles   uint64
	TotalTxs       uint64
	DuplicateRate  float64
	OverlapRate    float64
	PollCount      uint64
	DetailRequests uint64

	// Sandwiching (§4.1 / Figures 2–3).
	Len3Bundles     uint64
	Len3WithDetails uint64
	Sandwiches      uint64
	SandwichesNoSOL uint64 // detected but excluded from $ quantification
	VictimLossSOL   float64
	AttackerGainSOL float64
	SandwichShare   float64 // of all collected bundles (paper: 0.038%)

	// Defensive bundling (§4.2 / Figure 4).
	Defense core.DefenseStats

	// Rejections by criterion, for the methodology table.
	Rejections map[core.Criterion]uint64

	// Per-day series (Figures 1–2). Indexed by study day.
	BundlesByDay  map[int]*collector.DayAgg
	AttacksByDay  *stats.TimeSeries
	LossSOLByDay  *stats.TimeSeries
	GainSOLByDay  *stats.TimeSeries
	DefenseByDay  *stats.TimeSeries
	CollectedDays []int

	// Distributions (Figures 3–4).
	LossUSD      *stats.ECDF         // per-victim USD loss, SOL-leg sandwiches
	TipsLen1     *stats.LogHistogram // all length-1 bundles
	TipsLen3     *stats.LogHistogram // all length-3 bundles
	TipsSandwich *stats.ECDF         // detected sandwich bundles

	// SOLPriceUSD used for dollar conversions.
	SOLPriceUSD float64

	// Verdicts retains every positive verdict for downstream inspection.
	Verdicts []core.Verdict

	// Extended detection over retained length-4/5 bundles. Zero under the
	// paper's length-3-only collection economy; populated when the study
	// widens detail collection to quantify the paper's lower-bound gap.
	LongBundlesScanned  uint64
	DisguisedSandwiches uint64
	DisguisedVerdicts   []core.Verdict
}

// Analyze runs the detector over a collected dataset and computes every
// reported statistic, running detection on every core.
// solPriceUSD ≤ 0 selects the paper's $242 rate. Equivalent to
// AnalyzeN(data, det, solPriceUSD, 0).
func Analyze(data *collector.Dataset, det *core.Detector, solPriceUSD float64) *Results {
	return AnalyzeN(data, det, solPriceUSD, 0)
}

// verdictEst sizes the sandwich-verdict preallocation from the length-3
// population: sandwiches are a small share of length-3 bundles (the paper
// measured ~1–2%), so 1/16 of the population plus slack avoids regrowth
// in practice without over-reserving at large scales.
func verdictEst(n int) int { return n/16 + 8 }

// hit is one positive verdict with its study day, recorded by a detection
// chunk in index order and replayed by the ordered fold.
type hit struct {
	v   core.Verdict
	day int
}

// AnalyzeN is Analyze with an explicit worker count: 0 selects
// GOMAXPROCS, 1 runs the whole pass on the calling goroutine, and any
// other count runs detection on that many workers. data.Len3 and
// data.Long are cut into fixed-size chunks whatever the count.
// Detection — the hot, pure per-bundle work — runs per chunk; every
// statistic that cares about order (verdict ordering, float
// accumulation into totals, time series and ECDF samples) is folded
// chunk by chunk in record order, so the Results are identical at every
// worker count, bit for bit.
func AnalyzeN(data *collector.Dataset, det *core.Detector, solPriceUSD float64, workers int) *Results {
	return AnalyzeObs(data, det, solPriceUSD, workers, nil)
}

// AnalyzeObs is AnalyzeN publishing the detection pass onto reg (nil =
// uninstrumented): per-criterion rejection counters
// (detect_rejections_total{criterion=…}), sandwich/disguised tallies,
// and pipeline spans timing the length-3 and extended stages. All
// counter values are deterministic at any worker count — the folds
// replay record order — so they sit in the deterministic snapshot; only
// the stage durations are volatile.
func AnalyzeObs(data *collector.Dataset, det *core.Detector, solPriceUSD float64, workers int, reg *obs.Registry) *Results {
	workers = parallel.Workers(workers)
	a := NewAccumulator(det, solPriceUSD, Scope{
		Clock:       data.Clock,
		Days:        data.Days,
		TipsLen1:    data.TipsLen1,
		TipsLen3:    data.TipsLen3,
		Collected:   data.Collected,
		Duplicates:  data.Duplicates,
		Len3Bundles: uint64(len(data.Len3)),
	})

	// When a tracer rides the registry, the whole pass is one trace with
	// per-stage child spans — the overhead budget BENCH_trace.json
	// guards (unsampled: a single atomic add and hash per stage).
	tr := reg.TracerAttached().StartTrace("report.analyze")
	tr.Annotatef("len3:%d long:%d workers:%d", len(data.Len3), len(data.Long), workers)

	sp := tr.StartChild("analyze_len3")
	span := reg.StartSpan("analyze_len3")
	span.AddItems(len(data.Len3))
	inChunks(reg, "analyze_len3", workers, data.Len3, func(recs []jito.BundleRecord) Len3Partial {
		return a.DetectLen3(recs, datasetSource(data, recs))
	}, a.FoldLen3)
	span.End()
	sp.End()

	// Extended pass over retained longer bundles: recover disguised
	// sandwiches the length-3 methodology misses by construction.
	sp = tr.StartChild("analyze_extended")
	span = reg.StartSpan("analyze_extended")
	span.AddItems(len(data.Long))
	inChunks(reg, "analyze_extended", workers, data.Long, func(recs []jito.BundleRecord) LongPartial {
		return a.DetectLong(recs, datasetSource(data, recs))
	}, a.FoldLong)
	span.End()
	sp.End()

	sp = tr.StartChild("finish")
	res := a.Finish(reg)
	sp.End()
	tr.Annotatef("sandwiches:%d", res.Sandwiches)
	tr.End()
	return res
}

// detectChunk is how many records one pool item carries. The cut is
// fixed, never derived from the worker count, so the fold sequence is
// the same at every count.
const detectChunk = 1024

// inChunks runs detect over recs chunk by chunk on a pool of workers
// and hands every result to fold in record order on one goroutine.
func inChunks[P any](reg *obs.Registry, stage string, workers int, recs []jito.BundleRecord, detect func([]jito.BundleRecord) P, fold func(P)) {
	p := parallel.NewOrderedObs(reg, stage, workers, detect, fold)
	for lo := 0; lo < len(recs); lo += detectChunk {
		p.Submit(recs[lo:min(lo+detectChunk, len(recs))])
	}
	p.Close()
}

// datasetSource adapts a resident dataset's detail set to the fold's
// DetailSource over the given record slice: a read-only view when the
// record's details are consecutive in the set, a copy into scratch
// otherwise.
func datasetSource(data *collector.Dataset, recs []jito.BundleRecord) DetailSource {
	return func(i int, scratch []jito.TxDetail) ([]jito.TxDetail, bool) {
		return data.Details.Aligned(scratch, recs[i].TxIDs)
	}
}

// DisguisedLossUSD sums the victim losses of disguised (length>3)
// sandwiches — value the paper's lower bound leaves on the table.
func (r *Results) DisguisedLossUSD() float64 {
	var sum float64
	for _, v := range r.DisguisedVerdicts {
		sum += v.VictimLossLamports / 1e9 * r.SOLPriceUSD
	}
	return sum
}

// VictimLossUSD converts the aggregate loss to dollars.
func (r *Results) VictimLossUSD() float64 { return r.VictimLossSOL * r.SOLPriceUSD }

// AttackerGainUSD converts the aggregate gain to dollars.
func (r *Results) AttackerGainUSD() float64 { return r.AttackerGainSOL * r.SOLPriceUSD }

// DefensiveSpendUSD converts the defensive tip spend to dollars.
func (r *Results) DefensiveSpendUSD() float64 {
	return stats.LamportsToUSD(float64(r.Defense.DefensiveSpendLamports), r.SOLPriceUSD)
}

// NoSOLShare is the fraction of sandwiches without a SOL leg (paper: 28%).
func (r *Results) NoSOLShare() float64 {
	if r.Sandwiches == 0 {
		return 0
	}
	return float64(r.SandwichesNoSOL) / float64(r.Sandwiches)
}

// AblationResult compares the full detector against the naive baseline on
// ground-truth-labeled data.
type AblationResult struct {
	Full  core.Confusion
	Naive core.Confusion
}

// Truther resolves ground-truth sandwich labels; satisfied by
// *workload.GroundTruth via a tiny adapter to avoid a package cycle.
type Truther interface {
	IsSandwich(id jito.BundleID) bool
}

// Ablate runs both detectors over the dataset and scores them against
// ground truth, on every core. Only length-3 bundles with
// fetched details participate (both detectors see identical inputs).
// Equivalent to AblateN(data, det, truth, 0).
func Ablate(data *collector.Dataset, det *core.Detector, truth Truther) AblationResult {
	return AblateN(data, det, truth, 0)
}

// AblateN is Ablate with an explicit worker count (0 = GOMAXPROCS,
// 1 = the calling goroutine only). Confusion counts are integers, so
// the tally is identical at any worker count. truth must be safe for
// concurrent reads (both ground-truth implementations are read-only
// after the study runs).
func AblateN(data *collector.Dataset, det *core.Detector, truth Truther, workers int) AblationResult {
	var ab AblationResult
	inChunks(nil, "", workers, data.Len3, func(recs []jito.BundleRecord) AblationResult {
		var part AblationResult
		var scratch []jito.TxDetail
		for i := range recs {
			rec := &recs[i]
			var ok bool
			scratch, ok = data.AppendDetails(scratch[:0], rec)
			if !ok {
				continue
			}
			actual := truth.IsSandwich(rec.ID)
			part.Full.Observe(det.Detect(rec, scratch).Sandwich, actual)
			part.Naive.Observe(core.DetectNaive(rec, scratch).Sandwich, actual)
		}
		return part
	}, func(part AblationResult) {
		ab.Full.Merge(part.Full)
		ab.Naive.Merge(part.Naive)
	})
	return ab
}
