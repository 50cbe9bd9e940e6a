// Package stream is the incremental sandwich-detection engine: it
// consumes bundles as they land — from the live block-engine feed, the
// collector's growing dataset, or a replayed snapshot — and emits
// verdicts with sub-slot latency instead of waiting for a completed day.
//
// The engine is a slot-ordered ingest front over the same detection fold
// batch analysis uses (report.Accumulator):
//
//   - Offer accepts bundle events in any arrival order and buffers them
//     by slot. A watermark trails the highest slot seen by LagSlots;
//     slots at or below it are sealed — their events sorted into
//     canonical (Seq, ID) order and handed to the detection pool.
//     Arrivals behind the watermark are dropped and counted
//     (stream_events_late_total), never silently absorbed.
//   - Each sealed slot is one item on a parallel.Ordered pool: detection
//     — the pure per-bundle work — runs on the pool's workers, and the
//     fold replays FoldLen3/FoldLong in seal order, which is slot order,
//     on one goroutine. At Workers 1 both run inline in the Offer,
//     Advance or Finish call that seals the slot. Over a feed delivered
//     in canonical order (or any scramble the lag absorbs), the fold
//     sequence is exactly the batch pass's record index order, so Finish
//     returns Results bit-identical to report.AnalyzeN at every Workers
//     setting.
//   - Collection-level aggregates (per-day counts, tip histograms,
//     dedup) accumulate from the feed itself, mirroring
//     collector.Dataset.Ingest; a replay of an already-collected dataset
//     imports the dataset's own scope via SetScope instead.
//
// On top of the in-block fold sits a cross-block stage the batch path
// does not have: a bounded candidate cache keyed by (pool, signer) that
// pairs front- and back-legs across bundle and block boundaries within a
// leader-contiguity window (see cross.go).
//
// Latency is measured per stage — ingest→seal and seal→verdict
// histograms plus end-to-end detection latency — on the obs registry
// next to the stream_* counter family.
package stream

import (
	"slices"
	"sort"
	"sync"
	"time"

	"jitomev/internal/collector"
	"jitomev/internal/core"
	"jitomev/internal/jito"
	"jitomev/internal/obs"
	"jitomev/internal/parallel"
	"jitomev/internal/report"
	"jitomev/internal/solana"
	"jitomev/internal/stats"
)

// Config configures an Engine. The zero value is usable: all cores, a
// 2-slot watermark lag, length-3 detection only, cross-block disabled.
type Config struct {
	// Workers bounds the detection pool (0 = all cores). At 1,
	// detection and fold run inline in the Offer, Advance or Finish call
	// that seals a slot, on the caller's goroutine. Verdicts are
	// bit-identical at every setting.
	Workers int

	// LagSlots is the watermark's allowed lateness: slot s seals once an
	// event from slot > s+LagSlots arrives. Arrivals delayed by up to
	// LagSlots-1 slots are absorbed losslessly; anything later is
	// dropped and counted. 0 selects 2.
	LagSlots solana.Slot

	// DedupSlots is how many slots behind the watermark delivered bundle
	// ids are remembered for duplicate suppression. 0 selects 64.
	DedupSlots solana.Slot

	// Extended also detects disguised sandwiches in length-4/5 events,
	// matching a batch pass with extended detection enabled.
	Extended bool

	// Clock maps slots to study days; pass the workload's (live) or the
	// dataset's (replay).
	Clock solana.Clock

	// Detector overrides the criteria (nil = paper defaults).
	Detector *core.Detector

	// SOLPriceUSD for dollar conversions; ≤ 0 selects the paper's rate.
	SOLPriceUSD float64

	// Cross enables the cross-block candidate stage when
	// Cross.WindowSlots > 0.
	Cross CrossConfig

	// Reg receives the stream_* counter family and the latency
	// histograms (nil = a private registry, so Summary always works).
	Reg *obs.Registry
}

// Event is one delivered bundle: the record plus its aligned transaction
// details (nil or incomplete when the feed does not carry them — the
// record still counts toward collection aggregates, exactly like a
// dataset record whose details were never fetched). The engine only
// reads Details, possibly after Offer returns, so the slice may be a
// read-only view into a jito.DetailSet but must not be modified before
// Finish. Arrived stamps delivery time for the latency histograms; zero
// means "now".
type Event struct {
	Rec     jito.BundleRecord
	Details []jito.TxDetail
	Arrived time.Time

	// Span optionally carries an enclosing trace context: when sampled,
	// the engine parents its per-event trace there instead of rooting a
	// fresh one, so a feed's own traces show the seal/fold hops.
	Span obs.SpanCtx

	// tr is the per-event trace, engine-owned from Offer to fold. Only
	// latency-sampled events (Arrived set) carry one, so the tracing
	// cost rides the existing sampling stride.
	tr *obs.Trace
}

// detectLatencyBuckets resolve microseconds through one slot time
// (400 ms) and beyond, in seconds.
var detectLatencyBuckets = []float64{
	1e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.2, 0.4, 1,
}

// slotJob is one sealed slot in flight: events in canonical order and
// the detection partials filled on the pool. Jobs are pooled — most
// slots carry a single bundle, and per-slot allocation would dominate
// the hot path.
type slotJob struct {
	slot     solana.Slot
	sealedAt time.Time
	events   []Event

	recs3 []jito.BundleRecord
	dets3 [][]jito.TxDetail
	recsL []jito.BundleRecord
	detsL [][]jito.TxDetail

	len3 report.Len3Partial
	long report.LongPartial
}

var jobPool = sync.Pool{New: func() any { return new(slotJob) }}

// reset clears a job for reuse, keeping its slice capacity.
func (j *slotJob) reset() {
	// Cleared, not just truncated: a pooled job must not pin the records'
	// TxID arrays or the detail-set chunks its events viewed.
	clear(j.events)
	clear(j.recs3)
	clear(j.recsL)
	clear(j.dets3)
	clear(j.detsL)
	j.events = j.events[:0]
	j.recs3, j.recsL = j.recs3[:0], j.recsL[:0]
	j.dets3, j.detsL = j.dets3[:0], j.detsL[:0]
	j.len3, j.long = report.Len3Partial{}, report.LongPartial{}
	j.sealedAt = time.Time{}
}

// retiredSlot remembers a sealed slot's bundle ids until they age out of
// the dedup window. The first id is inline — most slots carry a single
// bundle, and a slice here would be one allocation per sealed slot.
type retiredSlot struct {
	slot solana.Slot
	id   jito.BundleID
	more []jito.BundleID // ids beyond the first, rare
}

// Engine is the incremental detector. Construct with New; Offer events
// from any goroutine; Finish exactly once after the feed completes.
type Engine struct {
	cfg    Config
	reg    *obs.Registry
	tracer *obs.Tracer

	mu       sync.Mutex
	finished bool

	acc   *report.Accumulator
	cross *crossTracker

	// Ingest front state (guarded by mu). order and retired are
	// front-popped queues with an explicit head index — popping by
	// reslicing would burn the front capacity and force a reallocation
	// every few appends.
	head       solana.Slot
	headSet    bool
	sealedTo   solana.Slot
	hasSealed  bool
	pending    map[solana.Slot]*slotJob
	order      []solana.Slot // pending slots, ascending from ordHead
	ordHead    int
	ids        map[jito.BundleID]struct{}
	retired    []retiredSlot // dedup history, live from retHead
	retHead    int
	sampleTick uint64 // latency-sampling cursor

	// Live scope accumulation, mirroring collector.Dataset.Ingest.
	days       map[int]*collector.DayAgg
	tips1      *stats.LogHistogram
	tips3      *stats.LogHistogram
	collected  uint64
	duplicates uint64
	len3Count  uint64
	scope      *report.Scope // imported via SetScope; nil = live scope

	// pool detects sealed slots and folds them in seal order.
	pool *parallel.Ordered[*slotJob, *slotJob]

	// Fold tallies (read after Finish).
	verdicts  uint64
	disguised uint64

	cEvents, cLate, cDup, cSealed      *obs.Counter
	cVerdicts, cDisguised              *obs.Counter
	hIngestSeal, hSealVerdict, hDetect *obs.Histogram
}

// New builds an engine; any goroutines its pool starts exit in Finish.
func New(cfg Config) *Engine {
	if cfg.LagSlots <= 0 {
		cfg.LagSlots = 2
	}
	if cfg.DedupSlots <= 0 {
		cfg.DedupSlots = 64
	}
	if cfg.Detector == nil {
		cfg.Detector = core.NewDefaultDetector()
	}
	cfg.Workers = parallel.Workers(cfg.Workers)
	reg := cfg.Reg
	if reg == nil {
		reg = obs.NewRegistry()
	}

	e := &Engine{
		cfg:     cfg,
		reg:     reg,
		tracer:  reg.TracerAttached(),
		acc:     report.NewLiveAccumulator(cfg.Detector, cfg.SOLPriceUSD, cfg.Clock),
		pending: make(map[solana.Slot]*slotJob),
		ids:     make(map[jito.BundleID]struct{}),
		days:    make(map[int]*collector.DayAgg),
		tips1:   stats.NewTipHistogram(),
		tips3:   stats.NewTipHistogram(),
	}
	e.pool = parallel.NewOrdered(cfg.Workers, e.detect, e.fold)

	reg.Help("stream_events_total", "Bundle events offered to the streaming detector.")
	reg.Help("stream_events_late_total", "Events dropped for arriving behind the sealed watermark.")
	reg.Help("stream_duplicates_total", "Events suppressed as duplicate deliveries.")
	reg.Help("stream_slots_sealed_total", "Slots sealed and handed to the detection pool.")
	reg.Help("stream_verdicts_total", "Sandwich verdicts emitted by the in-block streaming fold.")
	reg.Help("stream_disguised_verdicts_total", "Disguised (length-4/5) verdicts emitted by the streaming fold.")
	reg.Help("stream_ingest_to_seal_seconds", "Per-event latency from delivery to slot seal.")
	reg.Help("stream_seal_to_verdict_seconds", "Per-slot latency from seal to folded verdicts.")
	reg.Help("stream_detect_latency_seconds", "Per-event end-to-end latency from delivery to folded verdict.")
	reg.Volatile("stream_ingest_to_seal_seconds")
	reg.Volatile("stream_seal_to_verdict_seconds")
	reg.Volatile("stream_detect_latency_seconds")
	e.cEvents = reg.Counter("stream_events_total")
	e.cLate = reg.Counter("stream_events_late_total")
	e.cDup = reg.Counter("stream_duplicates_total")
	e.cSealed = reg.Counter("stream_slots_sealed_total")
	e.cVerdicts = reg.Counter("stream_verdicts_total")
	e.cDisguised = reg.Counter("stream_disguised_verdicts_total")
	e.hIngestSeal = reg.Histogram("stream_ingest_to_seal_seconds", detectLatencyBuckets)
	e.hSealVerdict = reg.Histogram("stream_seal_to_verdict_seconds", detectLatencyBuckets)
	e.hDetect = reg.Histogram("stream_detect_latency_seconds", detectLatencyBuckets)

	if cfg.Cross.WindowSlots > 0 {
		e.cross = newCrossTracker(cfg.Cross, reg)
	}
	return e
}

// detect runs the pure per-slot detection on the pool; the partials land
// in the job. A slot with nothing to detect keeps zero partials, which
// fold as exact no-ops.
func (e *Engine) detect(job *slotJob) *slotJob {
	if len(job.recs3) > 0 || len(job.recsL) > 0 {
		job.len3 = e.acc.DetectLen3(job.recs3, alignedSource(job.dets3))
		job.long = e.acc.DetectLong(job.recsL, alignedSource(job.detsL))
	}
	return job
}

// Obs returns the registry the engine records onto.
func (e *Engine) Obs() *obs.Registry { return e.reg }

// latencySampleStride is the 1-in-N latency sampling rate: only every
// Nth event (with no caller-provided arrival stamp) pays for a clock
// read and histogram observes. The percentiles stay representative; the
// measurement stops being the hot path's dominant cost. Power of two.
const latencySampleStride = 8

// Offer delivers one event. Safe for concurrent use; events for sealed
// slots are dropped and counted, duplicate bundle ids are suppressed.
// Offering to a finished engine is a no-op (counted as late).
//
// When ev.Arrived is zero, arrival is stamped here — on a sampled
// subset of events (see latencySampleStride); a caller-provided stamp
// always feeds the latency histograms.
func (e *Engine) Offer(ev Event) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.finished || (e.hasSealed && ev.Rec.Slot <= e.sealedTo) {
		e.cLate.Inc()
		return
	}
	if ev.Arrived.IsZero() {
		if e.sampleTick++; e.sampleTick&(latencySampleStride-1) == 0 {
			ev.Arrived = time.Now()
		}
	}
	if _, dup := e.ids[ev.Rec.ID]; dup {
		e.duplicates++
		e.cDup.Inc()
		return
	}
	e.ids[ev.Rec.ID] = struct{}{}
	e.cEvents.Inc()
	if !ev.Arrived.IsZero() && e.tracer != nil {
		// Per-event traces ride the latency-sampling stride: the sampled
		// subset that pays for a clock read also carries the trace whose
		// seal_wait/fold spans explain where that latency went.
		if ev.Span.Sampled() {
			ev.tr = ev.Span.StartChild("stream.event")
		} else {
			ev.tr = e.tracer.StartTrace("stream.event")
		}
		ev.tr.Annotatef("slot:%d seq:%d", ev.Rec.Slot, ev.Rec.Seq)
	}

	slot := ev.Rec.Slot
	job, ok := e.pending[slot]
	if !ok {
		job = jobPool.Get().(*slotJob)
		job.slot = slot
		e.pending[slot] = job
		live := e.order[e.ordHead:]
		i := sort.Search(len(live), func(i int) bool { return live[i] >= slot })
		e.order = append(e.order, 0)
		live = e.order[e.ordHead:]
		copy(live[i+1:], live[i:])
		live[i] = slot
	}
	job.events = append(job.events, ev)

	e.ingestScope(&ev.Rec)

	if !e.headSet || slot > e.head {
		e.head, e.headSet = slot, true
		e.advanceWatermark()
	}
}

// advanceWatermark seals through head-LagSlots (slots are unsigned; a
// head still inside the lag seals nothing). Caller holds mu.
func (e *Engine) advanceWatermark() {
	if e.head >= e.cfg.LagSlots {
		e.sealThrough(e.head - e.cfg.LagSlots)
	}
}

// Advance pushes the watermark from an external slot clock — a live feed
// signalling "chain time reached head with no bundle in between", so
// quiet stretches still seal promptly.
func (e *Engine) Advance(head solana.Slot) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.finished {
		return
	}
	if !e.headSet || head > e.head {
		e.head, e.headSet = head, true
		e.advanceWatermark()
	}
}

// ingestScope mirrors collector.Dataset.Ingest's aggregation (sans
// record retention): per-day counts, defensive/priority split, tip
// histograms. Skipped entirely once SetScope imported an external scope.
func (e *Engine) ingestScope(rec *jito.BundleRecord) {
	if e.scope != nil {
		return
	}
	e.collected++
	n := rec.NumTxs()
	day := e.cfg.Clock.DayOf(rec.Slot)
	agg, ok := e.days[day]
	if !ok {
		agg = &collector.DayAgg{}
		e.days[day] = agg
	}
	agg.Bundles++
	agg.Txs += uint64(n)
	if n <= jito.MaxBundleTxs {
		agg.ByLength[n]++
	}
	switch n {
	case 1:
		e.tips1.Add(float64(rec.TipLamps))
		if rec.Tip() <= solana.DefensiveTipCeiling {
			agg.DefensiveCount++
			agg.DefensiveSpend += rec.TipLamps
		} else {
			agg.PriorityCount++
		}
	case 3:
		e.tips3.Add(float64(rec.TipLamps))
		e.len3Count++
	}
}

// SetScope imports an externally computed Scope — a replayed dataset's
// own aggregates — overriding everything the feed accumulated. Call any
// time before Finish.
func (e *Engine) SetScope(sc report.Scope) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.scope = &sc
}

// sealThrough seals every pending slot ≤ w, ascending, and expires dedup
// state that aged out. Caller holds mu.
func (e *Engine) sealThrough(w solana.Slot) {
	if e.hasSealed && w <= e.sealedTo {
		return
	}
	if e.ordHead < len(e.order) && e.order[e.ordHead] <= w {
		now := time.Now()
		for e.ordHead < len(e.order) && e.order[e.ordHead] <= w {
			slot := e.order[e.ordHead]
			e.ordHead++
			e.seal(e.pending[slot], now)
			delete(e.pending, slot)
		}
		if e.ordHead == len(e.order) {
			e.order, e.ordHead = e.order[:0], 0
		}
	}
	e.sealedTo, e.hasSealed = w, true
	e.expireDedup(w)
}

// seal fixes a slot's canonical order and submits it to the pool for
// detection and the ordered fold. Caller holds mu; Submit blocks while
// the pool's window is full — that backpressure, not an unbounded
// queue, bounds the engine's memory.
func (e *Engine) seal(job *slotJob, now time.Time) {
	job.sealedAt = now
	evs := job.events
	if len(evs) > 1 {
		// One slot: the canonical order reduces to (Seq, ID).
		slices.SortStableFunc(evs, func(a, b Event) int { return compareCanonical(&a.Rec, &b.Rec) })
	}

	ret := retiredSlot{slot: job.slot, id: evs[0].Rec.ID}
	for i := range evs {
		if i > 0 {
			ret.more = append(ret.more, evs[i].Rec.ID)
		}
		if !evs[i].Arrived.IsZero() {
			e.hIngestSeal.Observe(now.Sub(evs[i].Arrived).Seconds())
			// Retroactive: the ingest→seal wait is only a span once the
			// seal fixes its end.
			evs[i].tr.Ctx().RecordSpan("seal_wait", evs[i].Arrived, now, false)
		}
		rec := &evs[i].Rec
		det := evs[i].Details
		if len(det) != rec.NumTxs() {
			det = nil // incomplete: the detector never sees it
		}
		switch n := rec.NumTxs(); {
		case n == 3:
			job.recs3 = append(job.recs3, *rec)
			job.dets3 = append(job.dets3, det)
		case e.cfg.Extended && (n == 4 || n == 5):
			job.recsL = append(job.recsL, *rec)
			job.detsL = append(job.detsL, det)
		}
	}
	e.retired = append(e.retired, ret)

	// A slot with nothing to detect — the common case, most bundles are
	// single-transaction tips — and no cross stage to feed skips the
	// pool and retires here: its zero partials would fold as exact
	// no-ops, so the fast path is bit-identical.
	if len(job.recs3) == 0 && len(job.recsL) == 0 && e.cross == nil {
		e.cSealed.Inc()
		sampled := false
		for i := range evs {
			if !evs[i].Arrived.IsZero() {
				sampled = true
				e.hDetect.ObserveExemplar(now.Sub(evs[i].Arrived).Seconds(),
					evs[i].tr.TraceID())
				evs[i].tr.End()
			}
		}
		if sampled {
			e.hSealVerdict.Observe(0)
		}
		job.reset()
		jobPool.Put(job)
		return
	}
	e.pool.Submit(job)
}

// expireDedup forgets bundle ids of slots DedupSlots behind the
// watermark. Caller holds mu.
func (e *Engine) expireDedup(w solana.Slot) {
	if w < e.cfg.DedupSlots {
		return
	}
	cutoff := w - e.cfg.DedupSlots
	for e.retHead < len(e.retired) && e.retired[e.retHead].slot < cutoff {
		rs := &e.retired[e.retHead]
		delete(e.ids, rs.id)
		for _, id := range rs.more {
			delete(e.ids, id)
		}
		rs.more = nil
		e.retHead++
	}
	// Compact once the dead prefix dominates, so the backing array stays
	// proportional to the dedup window instead of the whole run.
	if e.retHead > 64 && 2*e.retHead > len(e.retired) {
		n := copy(e.retired, e.retired[e.retHead:])
		e.retired, e.retHead = e.retired[:n], 0
	}
}

// alignedSource adapts per-record detail slices to the fold's
// DetailSource contract (nil = details unavailable). It hands each
// event's slice through as a read-only view — the fold never writes
// through it — rather than copying it into scratch.
func alignedSource(dets [][]jito.TxDetail) report.DetailSource {
	return func(i int, _ []jito.TxDetail) ([]jito.TxDetail, bool) {
		return dets[i], dets[i] != nil
	}
}

// fold replays one sealed slot's order-sensitive folds. The pool calls
// it in seal order on one goroutine, so the fold sequence is independent
// of scheduling.
func (e *Engine) fold(job *slotJob) {
	e.acc.FoldLen3(job.len3)
	e.acc.FoldLong(job.long)
	if e.cross != nil {
		e.cross.processSlot(job)
	}
	e.verdicts += uint64(job.len3.Hits())
	e.disguised += uint64(job.long.Hits())
	e.cVerdicts.Add(uint64(job.len3.Hits()))
	e.cDisguised.Add(uint64(job.long.Hits()))
	e.cSealed.Inc()
	// The clock is read only for a slot carrying a latency-sampled event.
	var now time.Time
	for i := range job.events {
		ev := &job.events[i]
		if ev.Arrived.IsZero() {
			continue
		}
		if now.IsZero() {
			now = time.Now()
		}
		ev.tr.Ctx().RecordSpan("fold", job.sealedAt, now, false)
		e.hDetect.ObserveExemplar(now.Sub(ev.Arrived).Seconds(), ev.tr.TraceID())
		ev.tr.End()
	}
	if !now.IsZero() {
		e.hSealVerdict.Observe(now.Sub(job.sealedAt).Seconds())
	}
	job.reset()
	jobPool.Put(job)
}

// Finish seals every pending slot, drains the fold, seeds the scope and
// returns the completed Results — bit-identical to report.AnalyzeN over
// the same records in canonical order. Call exactly once.
func (e *Engine) Finish() *report.Results {
	e.mu.Lock()
	if e.finished {
		e.mu.Unlock()
		panic("stream: Finish called twice")
	}
	if e.ordHead < len(e.order) {
		now := time.Now()
		for e.ordHead < len(e.order) {
			slot := e.order[e.ordHead]
			e.ordHead++
			e.seal(e.pending[slot], now)
			delete(e.pending, slot)
		}
	}
	if e.headSet {
		e.sealedTo, e.hasSealed = e.head, true
	}
	e.finished = true
	e.mu.Unlock()

	e.pool.Close()
	sc := e.liveScope()
	if e.scope != nil {
		sc = *e.scope
	}
	e.acc.SeedScope(sc)
	// The batch pass publishes the detect_* counters when it runs on the
	// same registry; the stream publishes only its own family (the fold
	// already counted verdicts) to keep shared-registry runs additive.
	return e.acc.Finish(nil)
}

// liveScope packages the feed-accumulated aggregates.
func (e *Engine) liveScope() report.Scope {
	return report.Scope{
		Clock:       e.cfg.Clock,
		Days:        e.days,
		TipsLen1:    e.tips1,
		TipsLen3:    e.tips3,
		Collected:   e.collected,
		Duplicates:  e.duplicates,
		Len3Bundles: e.len3Count,
	}
}

// CrossVerdicts returns the cross-block verdicts in emission order.
// Valid after Finish.
func (e *Engine) CrossVerdicts() []CrossVerdict {
	if e.cross == nil {
		return nil
	}
	return e.cross.verdicts
}

// Summary snapshots the engine's counters and latency percentiles.
// Valid after Finish.
type Summary struct {
	Events      uint64
	Late        uint64
	Duplicates  uint64
	SlotsSealed uint64
	Verdicts    uint64
	Disguised   uint64

	CrossCandidates     uint64
	CrossVerdicts       uint64
	CrossEvictWindow    uint64
	CrossEvictCapacity  uint64
	CrossCacheHighWater int // bytes

	IngestToSealP50, IngestToSealP99   time.Duration
	SealToVerdictP50, SealToVerdictP99 time.Duration
	DetectP50, DetectP99               time.Duration
}

// Summary reads the engine's end-of-run summary.
func (e *Engine) Summary() Summary {
	s := Summary{
		Events:      e.cEvents.Value(),
		Late:        e.cLate.Value(),
		Duplicates:  e.cDup.Value(),
		SlotsSealed: e.cSealed.Value(),
		Verdicts:    e.verdicts,
		Disguised:   e.disguised,

		IngestToSealP50:  seconds(e.hIngestSeal.Quantile(0.50)),
		IngestToSealP99:  seconds(e.hIngestSeal.Quantile(0.99)),
		SealToVerdictP50: seconds(e.hSealVerdict.Quantile(0.50)),
		SealToVerdictP99: seconds(e.hSealVerdict.Quantile(0.99)),
		DetectP50:        seconds(e.hDetect.Quantile(0.50)),
		DetectP99:        seconds(e.hDetect.Quantile(0.99)),
	}
	if e.cross != nil {
		s.CrossCandidates = e.cross.cCand.Value()
		s.CrossVerdicts = e.cross.cVerd.Value()
		s.CrossEvictWindow = e.cross.cEvictWindow.Value()
		s.CrossEvictCapacity = e.cross.cEvictCap.Value()
		s.CrossCacheHighWater = e.cross.highWater * candBytes
	}
	return s
}

func seconds(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}
