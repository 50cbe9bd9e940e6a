package report

import (
	"sort"
	"sync"

	"jitomev/internal/collector"
	"jitomev/internal/core"
	"jitomev/internal/jito"
	"jitomev/internal/obs"
	"jitomev/internal/solana"
	"jitomev/internal/stats"
)

// This file holds the detection fold shared by the in-memory analysis
// (AnalyzeObs) and the out-of-core streaming engine (internal/query).
// Both drive the same Accumulator: detection — the pure per-bundle work —
// runs in Detect* calls that are safe to issue concurrently over disjoint
// record ranges, while every order-sensitive statistic (verdict ordering,
// float accumulation, time-series and ECDF samples) is folded by Fold*
// calls issued on one goroutine in record index order. Feeding the same
// records through in the same order therefore yields bit-identical
// Results whether they came from a resident Dataset or from decoded
// snapshot shards.

// DetailSource resolves record i's aligned transaction details,
// reporting whether every member's detail is present — the
// all-or-nothing contract of collector.Dataset.AppendDetails and
// snapshot.Batch.AppendDetails. The index is relative to the record
// slice handed to the same Detect call. A source either appends the
// details to scratch or returns a read-only view it does not own (a
// jito.DetailSet view, or a stream event's own slice); the fold reads
// the result and never writes through it. On false, the returned slice
// is unspecified and must not be interpreted.
type DetailSource func(i int, scratch []jito.TxDetail) ([]jito.TxDetail, bool)

// scratchPool holds the fold's own detail buffers. Each Detect call
// takes one, offers it emptied to every src call, and never adopts what
// src returns: a read-only view must not become the next call's scratch,
// where an appending source would write into the set it came from. The
// capacity covers the longest bundle, so appending sources never grow
// it, and the pool spares a call that only sees views an allocation.
var scratchPool = sync.Pool{New: func() any {
	s := make([]jito.TxDetail, 0, jito.MaxBundleTxs+1)
	return &s
}}

func getScratch() *[]jito.TxDetail { return scratchPool.Get().(*[]jito.TxDetail) }

// putScratch clears buf before it goes back, so the pool pins no token
// deltas.
func putScratch(buf *[]jito.TxDetail) {
	clear((*buf)[:cap(*buf)])
	scratchPool.Put(buf)
}

// Scope seeds an Accumulator with the dataset-level aggregates that need
// no detection pass: collection scalars, the per-day aggregates, and the
// tip histograms. A streaming reader obtains all of these from a
// snapshot's header sections before any shard is decoded.
type Scope struct {
	Clock              solana.Clock
	Days               map[int]*collector.DayAgg
	TipsLen1, TipsLen3 *stats.LogHistogram
	Collected          uint64
	Duplicates         uint64
	Len3Bundles        uint64 // length-3 records in scope (sizes preallocations)
}

// Accumulator folds detection output into Results. Construct with
// NewAccumulator, feed DetectLen3/DetectLong partials to FoldLen3/
// FoldLong in record index order, then call Finish exactly once.
// Detect* methods only read the detector and clock and may run
// concurrently; Fold* and Finish must stay on a single goroutine.
type Accumulator struct {
	r          *Results
	det        *core.Detector
	clock      solana.Clock
	rejections [core.NumCriteria]uint64

	lossUSD      []float64
	sandwichTips []float64

	restricted bool
	dayLo      int
	dayHi      int
}

// NewAccumulator builds the Results skeleton from sc and returns the
// accumulator that will fill in the detection-derived statistics.
// solPriceUSD ≤ 0 selects the paper's rate.
func NewAccumulator(det *core.Detector, solPriceUSD float64, sc Scope) *Accumulator {
	a := NewLiveAccumulator(det, solPriceUSD, sc.Clock)
	// Size the verdict buffers from the known length-3 population —
	// a capacity-only improvement over the live path's lazy growth.
	est := verdictEst(int(sc.Len3Bundles))
	a.r.Verdicts = make([]core.Verdict, 0, est)
	a.lossUSD = make([]float64, 0, est)
	a.sandwichTips = make([]float64, 0, est)
	a.SeedScope(sc)
	return a
}

// NewLiveAccumulator builds an accumulator whose Scope is not known yet —
// the shape of an incremental feed, where collection aggregates are still
// accumulating while detection folds run. The clock must be supplied up
// front (Detect* maps slots to study days); everything else arrives via
// SeedScope, which must be called exactly once before Finish. Fold order
// and scope seeding touch disjoint Results fields, so an accumulator
// built this way produces bit-identical Results to NewAccumulator over
// the same records and the same final Scope.
func NewLiveAccumulator(det *core.Detector, solPriceUSD float64, clock solana.Clock) *Accumulator {
	if solPriceUSD <= 0 {
		solPriceUSD = stats.SOLPriceUSD
	}
	est := verdictEst(0)
	r := &Results{
		AttacksByDay: stats.NewTimeSeries(),
		LossSOLByDay: stats.NewTimeSeries(),
		GainSOLByDay: stats.NewTimeSeries(),
		DefenseByDay: stats.NewTimeSeries(),
		SOLPriceUSD:  solPriceUSD,
		Verdicts:     make([]core.Verdict, 0, est),
	}
	return &Accumulator{
		r:            r,
		det:          det,
		clock:        clock,
		lossUSD:      make([]float64, 0, est),
		sandwichTips: make([]float64, 0, est),
	}
}

// SeedScope folds the dataset-level aggregates into the results. Called
// by NewAccumulator at construction; a live accumulator calls it once the
// feed has completed, any time before Finish. The fields it writes are
// disjoint from everything Fold* touches, so its ordering relative to the
// folds cannot perturb the output.
func (a *Accumulator) SeedScope(sc Scope) {
	r := a.r
	r.TotalBundles = sc.Collected
	r.Len3Bundles = sc.Len3Bundles
	r.BundlesByDay = sc.Days
	r.CollectedDays = sortedDays(sc.Days)
	r.TipsLen1 = sc.TipsLen1
	r.TipsLen3 = sc.TipsLen3
	if sc.Duplicates+sc.Collected > 0 {
		r.DuplicateRate = float64(sc.Duplicates) / float64(sc.Duplicates+sc.Collected)
	}
	for day, agg := range sc.Days {
		r.TotalTxs += agg.Txs
		r.Defense.SingleTxBundles += agg.DefensiveCount + agg.PriorityCount
		r.Defense.Defensive += agg.DefensiveCount
		r.Defense.Priority += agg.PriorityCount
		r.Defense.DefensiveSpendLamports += agg.DefensiveSpend
		r.DefenseByDay.Add(day, float64(agg.DefensiveCount))
	}
	if len(r.CollectedDays) > 0 {
		r.Days = r.CollectedDays[len(r.CollectedDays)-1] + 1
	}
}

// Clock returns the chain clock the accumulator maps slots to study
// days with.
func (a *Accumulator) Clock() solana.Clock { return a.clock }

// Restrict limits detection to records whose study day falls in
// [lo, hi]; out-of-range records are skipped before their details are
// resolved, exactly as if they were absent from the dataset. Must be set
// before any Detect call. The caller is responsible for restricting the
// Scope (days map, histograms, totals) to the same range.
func (a *Accumulator) Restrict(lo, hi int) {
	a.restricted, a.dayLo, a.dayHi = true, lo, hi
}

// inRange reports whether a record's slot survives the day restriction.
func (a *Accumulator) inRange(slot solana.Slot) bool {
	if !a.restricted {
		return true
	}
	d := a.clock.DayOf(slot)
	return d >= a.dayLo && d <= a.dayHi
}

// Len3Partial is the pure detection output over one contiguous run of
// length-3 records: order-free counters plus the positive verdicts in
// record index order, ready for an ordered fold.
type Len3Partial struct {
	withDetails uint64
	rejections  [core.NumCriteria]uint64
	hits        []hit
}

// DetectLen3 runs sandwich detection over recs, resolving details
// through src. Pure with respect to the accumulator: safe to call
// concurrently over disjoint ranges.
func (a *Accumulator) DetectLen3(recs []jito.BundleRecord, src DetailSource) Len3Partial {
	var p Len3Partial
	buf := getScratch()
	defer putScratch(buf)
	for i := range recs {
		rec := &recs[i]
		if !a.inRange(rec.Slot) {
			continue
		}
		dets, ok := src(i, (*buf)[:0])
		if !ok {
			continue
		}
		p.withDetails++
		v := a.det.Detect(rec, dets)
		if !v.Sandwich {
			p.rejections[v.Failed]++
			continue
		}
		p.hits = append(p.hits, hit{v: v, day: a.clock.DayOf(rec.Slot)})
	}
	return p
}

// Hits reports how many positive verdicts the partial carries — what an
// incremental caller surfaces as its per-slot verdict count without
// waiting for Finish.
func (p *Len3Partial) Hits() int { return len(p.hits) }

// WithDetails reports how many records in the partial had complete
// details and therefore reached the detector.
func (p *Len3Partial) WithDetails() uint64 { return p.withDetails }

// FoldLen3 folds one partial into the results. Call in record index
// order on a single goroutine.
func (a *Accumulator) FoldLen3(p Len3Partial) {
	a.r.Len3WithDetails += p.withDetails
	for c, n := range p.rejections {
		a.rejections[c] += n
	}
	for _, h := range p.hits {
		a.record(h.v, h.day)
	}
}

// LongPartial is the extended-detection output over one contiguous run
// of retained length-4/5 records.
type LongPartial struct {
	scanned  uint64
	verdicts []core.Verdict
}

// DetectLong runs extended detection over recs. Pure like DetectLen3.
func (a *Accumulator) DetectLong(recs []jito.BundleRecord, src DetailSource) LongPartial {
	var p LongPartial
	buf := getScratch()
	defer putScratch(buf)
	for i := range recs {
		rec := &recs[i]
		if !a.inRange(rec.Slot) {
			continue
		}
		dets, ok := src(i, (*buf)[:0])
		if !ok {
			continue
		}
		p.scanned++
		ev := a.det.DetectExtended(rec, dets)
		p.verdicts = append(p.verdicts, ev.Sandwiches...)
	}
	return p
}

// Hits reports how many disguised-sandwich verdicts the partial carries.
func (p *LongPartial) Hits() int { return len(p.verdicts) }

// FoldLong folds one extended partial, in record index order.
func (a *Accumulator) FoldLong(p LongPartial) {
	a.r.LongBundlesScanned += p.scanned
	for _, v := range p.verdicts {
		a.r.DisguisedSandwiches++
		a.r.DisguisedVerdicts = append(a.r.DisguisedVerdicts, v)
	}
}

// record folds one positive verdict into the results. Called in record
// index order, which pins verdict ordering and float accumulation order
// to the serial reference exactly.
func (a *Accumulator) record(v core.Verdict, day int) {
	r := a.r
	r.Sandwiches++
	r.Verdicts = append(r.Verdicts, v)
	r.AttacksByDay.Add(day, 1)
	a.sandwichTips = append(a.sandwichTips, float64(v.TipLamports))
	if !v.HasSOL {
		r.SandwichesNoSOL++
		return
	}
	lossSOL := v.VictimLossLamports / 1e9
	gainSOL := v.AttackerGainLamports / 1e9
	r.VictimLossSOL += lossSOL
	r.AttackerGainSOL += gainSOL
	r.LossSOLByDay.Add(day, lossSOL)
	r.GainSOLByDay.Add(day, gainSOL)
	a.lossUSD = append(a.lossUSD, lossSOL*r.SOLPriceUSD)
}

// Finish seals the accumulator: exports the rejection tally, publishes
// the detection counters onto reg (nil = uninstrumented), and builds the
// derived statistics. Call exactly once, after every fold.
func (a *Accumulator) Finish(reg *obs.Registry) *Results {
	r := a.r
	// Export the fixed-size rejection tally as the map the boundary (and
	// renderers) expect; the serial map never held zero-count entries, so
	// only observed criteria cross over.
	r.Rejections = make(map[core.Criterion]uint64, core.NumCriteria)
	for c, n := range a.rejections {
		if n > 0 {
			r.Rejections[core.Criterion(c)] = n
		}
	}
	if reg != nil {
		reg.Help("detect_rejections_total", "Length-3 bundles rejected by the detector, by first failed criterion.")
		for c := core.Criterion(1); c < core.Criterion(core.NumCriteria); c++ {
			reg.Counter("detect_rejections_total", "criterion", c.String()).Add(a.rejections[c])
		}
		reg.Counter("detect_len3_with_details_total").Add(r.Len3WithDetails)
		reg.Counter("detect_sandwiches_total").Add(r.Sandwiches)
		reg.Counter("detect_sandwiches_no_sol_total").Add(r.SandwichesNoSOL)
		reg.Counter("detect_disguised_sandwiches_total").Add(r.DisguisedSandwiches)
		reg.Counter("detect_long_bundles_scanned_total").Add(r.LongBundlesScanned)
	}
	if r.TotalBundles > 0 {
		r.SandwichShare = float64(r.Sandwiches) / float64(r.TotalBundles)
	}
	r.LossUSD = stats.NewECDF(a.lossUSD)
	r.TipsSandwich = stats.NewECDF(a.sandwichTips)
	return r
}

// sortedDays returns the keys of a day-aggregate map, ascending — the
// same set collector.Dataset.SortedDays reports.
func sortedDays(days map[int]*collector.DayAgg) []int {
	out := make([]int, 0, len(days))
	for d := range days {
		out = append(out, d)
	}
	sort.Ints(out)
	return out
}
