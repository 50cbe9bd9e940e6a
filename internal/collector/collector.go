package collector

import (
	"errors"
	"fmt"

	"jitomev/internal/explorer"
	"jitomev/internal/faults"
	"jitomev/internal/jito"
	"jitomev/internal/obs"
	"jitomev/internal/quality"
	"jitomev/internal/solana"
)

// Config shapes the collection loop after the paper's scraper.
type Config struct {
	// PageLimit is the recent-bundles page size. The paper widened the
	// endpoint from 200 to 50,000; scaled studies shrink it by the same
	// factor as the traffic so the coverage dynamics are preserved.
	PageLimit int
	// DetailBatch caps each bulk transaction-detail request (paper: 10,000).
	DetailBatch int
	// PollEverySlots is the polling cadence; 300 slots is the paper's
	// "roughly every two minutes".
	PollEverySlots solana.Slot
	// DetailLengths widens detail collection beyond the paper's
	// length-3-only economy (e.g. 4 and 5 for extended disguise
	// detection). Length 3 is always collected.
	DetailLengths []int
	// BackfillPages enables spike recovery: when a poll's page shares no
	// bundle with its predecessor (the paper's missed-bundle signal), the
	// collector pages backwards through the `before` cursor up to this
	// many extra pages to recover what scrolled past. 0 reproduces the
	// paper's behaviour (spikes are simply lost).
	BackfillPages int
	// DetailRetries bounds per-batch retry attempts in FetchDetails
	// after the first try; a batch still failing is skipped and its ids
	// stay pending for the next FetchDetails call. 0 selects 2; negative
	// disables retries.
	DetailRetries int
}

// detailRetries resolves the DetailRetries default.
func (c Config) detailRetries() int {
	if c.DetailRetries == 0 {
		return 2
	}
	if c.DetailRetries < 0 {
		return 0
	}
	return c.DetailRetries
}

// Defaults fills zero fields with the paper's values.
func (c Config) Defaults() Config {
	if c.PageLimit == 0 {
		c.PageLimit = explorer.MaxPageLimit
	}
	if c.DetailBatch == 0 {
		c.DetailBatch = explorer.MaxDetailBatch
	}
	if c.PollEverySlots == 0 {
		c.PollEverySlots = 300
	}
	return c
}

// Collector drives polling and detail fetching against a Transport,
// accumulating into a Dataset.
//
// Every tally the collector keeps — polls, overlap pairs, per-class
// faults survived, detail batch outcomes, backfill activity — lives on
// an obs.Registry rather than on bespoke struct fields, so the same
// numbers appear on /metrics, in end-of-run summaries, and in test
// assertions via Registry.Snapshot. The accessor methods below read the
// registry back; collection is sequential (one transport call at a
// time), so the counts are deterministic at any Workers setting.
type Collector struct {
	Cfg  Config
	Data *Dataset

	transport Transport

	// prevPage holds the ids returned by the previous successful poll,
	// for the paper's §3.1 completeness check: "we determine if there is
	// any overlap for the bundles returned in successive calls; if any
	// bundles appear in both, we know we have not missed any." hasPrev
	// says whether it is live. curPage is the set the next poll fills;
	// the two swap every poll, so polling allocates no fresh set.
	prevPage, curPage map[jito.BundleID]struct{}
	hasPrev           bool

	reg *obs.Registry

	// quality, when attached, receives the coverage-ledger feed: every
	// poll (successful or failed), backfill page, and detail-fetch
	// outcome. Nil is fine — all sentinel methods are nil-safe no-ops.
	quality *quality.Sentinel

	// lastDay is the study day of the newest bundle the collector has
	// seen — the day failed polls are attributed to (a failed poll
	// carries no page to date it by).
	lastDay int

	// Registry handles, bound once in NewObs so the hot loops never take
	// the registry lock.
	polls, pairs, overlapPairs, pollErrors          *obs.Counter
	faultc                                          [faults.NumClasses]*obs.Counter
	detailRequests, detailRetries                   *obs.Counter
	batchOK, batchRetried, batchSkipped             *obs.Counter
	idsRequeued                                     *obs.Counter
	backfillPolls, backfilledBundles, backfillFails *obs.Counter
	pendingGauge                                    *obs.Gauge
	overlapRatio                                    *obs.FloatGauge
}

// New builds a collector over the given transport with a private
// registry.
func New(cfg Config, clock solana.Clock, transport Transport) *Collector {
	return NewObs(cfg, clock, transport, nil)
}

// NewObs builds a collector tallying onto reg (nil selects a private
// registry, so every collector has one to publish and snapshot).
func NewObs(cfg Config, clock solana.Clock, transport Transport, reg *obs.Registry) *Collector {
	cfg = cfg.Defaults()
	data := NewDataset(clock, 4*cfg.PageLimit)
	data.RetainLengths(cfg.DetailLengths...)
	if reg == nil {
		reg = obs.NewRegistry()
	}
	c := &Collector{
		Cfg:       cfg,
		Data:      data,
		transport: transport,
		reg:       reg,
	}
	reg.Help("collector_polls_total", "Successful recent-bundles polls.")
	reg.Help("collector_overlap_pairs_total", "Successive poll pairs sharing at least one bundle (paper §3.1).")
	reg.Help("collector_faults_total", "Transport failures survived by the collection loop, by fault class.")
	reg.Help("collector_detail_batches_total", "Bulk detail batches by final outcome.")
	c.polls = reg.Counter("collector_polls_total")
	c.pairs = reg.Counter("collector_poll_pairs_total")
	c.overlapPairs = reg.Counter("collector_overlap_pairs_total")
	c.pollErrors = reg.Counter("collector_poll_errors_total")
	for class := faults.ClassTransport; class < faults.NumClasses; class++ {
		c.faultc[class] = reg.Counter("collector_faults_total", "class", class.String())
	}
	c.detailRequests = reg.Counter("collector_detail_requests_total")
	c.detailRetries = reg.Counter("collector_detail_retries_total")
	c.batchOK = reg.Counter("collector_detail_batches_total", "outcome", "ok")
	c.batchRetried = reg.Counter("collector_detail_batches_total", "outcome", "retried")
	c.batchSkipped = reg.Counter("collector_detail_batches_total", "outcome", "skipped")
	c.idsRequeued = reg.Counter("collector_detail_ids_requeued_total")
	c.backfillPolls = reg.Counter("collector_backfill_polls_total")
	c.backfilledBundles = reg.Counter("collector_backfill_bundles_total")
	c.backfillFails = reg.Counter("collector_backfill_errors_total")
	c.pendingGauge = reg.Gauge("collector_detail_pending")
	c.overlapRatio = reg.FloatGauge("collector_overlap_ratio")
	return c
}

// Obs returns the registry the collector tallies onto.
func (c *Collector) Obs() *obs.Registry { return c.reg }

// AttachQuality connects a data-quality sentinel: from here on every
// poll, backfill page and detail fetch feeds its coverage ledger.
// Attaching nil detaches.
func (c *Collector) AttachQuality(s *quality.Sentinel) { c.quality = s }

// recordFault counts one classified transport failure (nil is ignored).
func (c *Collector) recordFault(err error) {
	if class := faults.Classify(err); class != faults.ClassNone {
		c.faultc[class].Inc()
	}
}

// traceBinder is the carrier the hardened transport (and the chaos
// wrapper around it) implements: parent subsequent requests under the
// given span context. Sound here because collection is sequential.
type traceBinder interface {
	BindTrace(obs.SpanCtx)
}

// bindTrace parents subsequent transport calls under ctx, when the
// transport supports it.
func (c *Collector) bindTrace(ctx obs.SpanCtx) {
	if tb, ok := c.transport.(traceBinder); ok {
		tb.BindTrace(ctx)
	}
}

// startTrace roots one traced collector operation (nil when no tracer
// is attached or the trace is unsampled) and binds it onto the
// transport; the caller must End it and unbind.
func (c *Collector) startTrace(name string) *obs.Trace {
	tr := c.reg.TracerAttached().StartTrace(name)
	if tr != nil {
		c.bindTrace(tr.Ctx())
	}
	return tr
}

// endTrace unbinds the transport and closes the operation's root span.
func (c *Collector) endTrace(tr *obs.Trace, err error) {
	if tr != nil {
		c.bindTrace(obs.SpanCtx{})
	}
	tr.EndErr(err)
}

// Polls reports successful polls.
func (c *Collector) Polls() uint64 { return c.polls.Value() }

// Pairs reports successive-poll pairs observed (the overlap denominator).
func (c *Collector) Pairs() uint64 { return c.pairs.Value() }

// OverlapPairs reports pairs whose pages shared at least one bundle.
func (c *Collector) OverlapPairs() uint64 { return c.overlapPairs.Value() }

// Errors reports failed polls (transport-level), backfill included.
func (c *Collector) Errors() uint64 { return c.pollErrors.Value() }

// Faults snapshots the per-class tally of every transport failure seen
// by Poll, backfill and FetchDetails — the structured view of what the
// collection survived, and the denominator for arguing coverage under
// faults.
func (c *Collector) Faults() faults.Stats {
	var s faults.Stats
	for class := faults.ClassTransport; class < faults.NumClasses; class++ {
		s[class] = c.faultc[class].Value()
	}
	return s
}

// DetailRequests reports bulk detail calls made by FetchDetails.
func (c *Collector) DetailRequests() uint64 { return c.detailRequests.Value() }

// DetailRetries reports retried detail batches.
func (c *Collector) DetailRetries() uint64 { return c.detailRetries.Value() }

// DetailBatchesFailed reports batches skipped after exhausting retries
// (their ids remain pending and are re-queued by the next FetchDetails).
func (c *Collector) DetailBatchesFailed() uint64 { return c.batchSkipped.Value() }

// BackfillPolls reports spike-recovery pages fetched.
func (c *Collector) BackfillPolls() uint64 { return c.backfillPolls.Value() }

// BackfilledBundles reports bundles recovered by backfill.
func (c *Collector) BackfilledBundles() uint64 { return c.backfilledBundles.Value() }

// BackfillErrors reports backfill pages abandoned on transport failure.
func (c *Collector) BackfillErrors() uint64 { return c.backfillFails.Value() }

// OverlapRate returns the fraction of successive poll pairs whose pages
// shared at least one bundle.
func (c *Collector) OverlapRate() float64 {
	if c.Pairs() == 0 {
		return 0
	}
	return float64(c.OverlapPairs()) / float64(c.Pairs())
}

// Poll performs one recent-bundles request, updates the overlap statistic,
// and ingests the page (oldest entry first, so dataset order tracks chain
// order). When a tracer is attached to the registry the whole poll runs
// as one trace — transport request, backfill, ingest — propagated to the
// server over the wire.
func (c *Collector) Poll() error {
	tr := c.startTrace("collector.poll")
	err := c.poll(tr)
	c.endTrace(tr, err)
	return err
}

func (c *Collector) poll(tr *obs.Trace) error {
	page, err := c.transport.RecentBundles(c.Cfg.PageLimit)
	if err != nil {
		c.pollErrors.Inc()
		c.recordFault(err)
		// Refresh the gauge even on failure: through a fault storm the
		// denominator is not growing, but /statusz must keep showing the
		// live ratio rather than whatever the last success published.
		c.overlapRatio.Set(c.OverlapRate())
		c.quality.ObservePollError()
		return err
	}
	c.polls.Inc()

	if c.curPage == nil {
		c.curPage = make(map[jito.BundleID]struct{}, len(page))
	}
	cur := c.curPage
	clear(cur)
	hadPrev := c.hasPrev
	overlap := false
	for i := range page {
		cur[page[i].ID] = struct{}{}
		if hadPrev {
			if _, ok := c.prevPage[page[i].ID]; ok {
				overlap = true
			}
		}
	}
	if hadPrev {
		c.pairs.Inc()
		if overlap {
			c.overlapPairs.Inc()
		}
	}
	c.overlapRatio.Set(c.OverlapRate())
	c.prevPage, c.curPage = cur, c.prevPage
	c.hasPrev = true

	// A broken pair means bundles scrolled past between polls; with
	// backfill enabled, page backwards through the cursor until the gap
	// is closed or the page budget runs out.
	if hadPrev && !overlap && c.Cfg.BackfillPages > 0 && len(page) > 0 {
		tr.Annotate("overlap_broken")
		c.backfill(tr, page[len(page)-1].Seq)
	}

	newN, dupN := 0, 0
	for i := len(page) - 1; i >= 0; i-- {
		if c.Data.Ingest(page[i]) {
			newN++
		} else {
			dupN++
		}
	}
	if len(page) > 0 {
		// page[0] is the newest entry; its day dates the whole poll.
		c.lastDay = c.Data.Clock.DayOf(page[0].Slot)
	}
	c.quality.ObservePoll(c.lastDay, c.Cfg.PageLimit, newN, dupN, hadPrev, overlap)
	return nil
}

// backfill pages backwards from the cursor, ingesting until it reaches
// already-collected territory or exhausts the page budget. Recovered
// bundles are counted in BackfilledBundles.
func (c *Collector) backfill(tr *obs.Trace, cursor uint64) {
	sp := tr.StartChild("collector.backfill")
	recovered := 0
	defer func() {
		sp.Annotatef("recovered:%d", recovered)
		sp.End()
		if recovered > 0 {
			c.quality.ObserveBackfill(recovered)
		}
	}()
	for page := 0; page < c.Cfg.BackfillPages && cursor > 0; page++ {
		older, err := c.transport.RecentBundlesBefore(cursor, c.Cfg.PageLimit)
		if err != nil {
			sp.MarkError()
			c.pollErrors.Inc()
			c.backfillFails.Inc()
			c.recordFault(err)
			c.overlapRatio.Set(c.OverlapRate())
			c.quality.ObserveBackfillError()
			return
		}
		if len(older) == 0 {
			return
		}
		c.backfillPolls.Inc()
		closed := false
		for i := len(older) - 1; i >= 0; i-- {
			if c.Data.Ingest(older[i]) {
				c.backfilledBundles.Inc()
				recovered++
			} else {
				closed = true
			}
		}
		if closed {
			return // reached bundles we already had: gap closed
		}
		cursor = older[len(older)-1].Seq
	}
}

// ResetOverlapChain forgets the previous page, so the next poll does not
// count toward the overlap statistic. Called when collection resumes after
// an outage: a gap pair says nothing about steady-state coverage.
func (c *Collector) ResetOverlapChain() { c.hasPrev = false }

// ErrDetailShortfall marks a FetchDetails return where some batches
// failed after retries: the fetched count is partial, the failed ids are
// still pending (PendingDetails reports how many), and a later call will
// pick them up again. Callers degrade gracefully — the collected records
// and every already-fetched detail are intact.
var ErrDetailShortfall = errors.New("collector: detail shortfall")

// pendingDetailIDs lists every transaction id of a retained record whose
// detail has not been fetched yet. Recomputed from the dataset each time,
// so the pending queue survives Save/Load checkpoints for free: a resumed
// collection re-derives exactly the shortfall it left off with.
func (c *Collector) pendingDetailIDs() []solana.Signature {
	n := c.PendingDetails()
	if n == 0 {
		return nil
	}
	pending := make([]solana.Signature, 0, n)
	c.eachPending(func(id solana.Signature) { pending = append(pending, id) })
	return pending
}

// eachPending calls f with every retained member id whose detail is
// missing, in record order.
func (c *Collector) eachPending(f func(solana.Signature)) {
	for _, recs := range [][]jito.BundleRecord{c.Data.Len3, c.Data.Long} {
		for i := range recs {
			for _, id := range recs[i].TxIDs {
				if !c.Data.Details.Has(id) {
					f(id)
				}
			}
		}
	}
}

// PendingDetails counts transaction ids still awaiting details — the
// visible shortfall after a degraded FetchDetails (or before any fetch).
// It allocates nothing.
func (c *Collector) PendingDetails() int {
	n := 0
	c.eachPending(func(solana.Signature) { n++ })
	return n
}

// FetchDetails bulk-fetches transaction details for every collected
// length-3 bundle that does not have them yet, in batches of at most
// Cfg.DetailBatch ids. It returns the number of details fetched.
//
// Failure is per batch, not per call: a batch is retried up to
// Cfg.DetailRetries times, and if it still fails it is skipped — its ids
// stay pending (see PendingDetails) and the remaining batches proceed, so
// one bad batch can no longer abort the rest of the fetch or discard
// partial progress. When any batch was skipped the call returns the
// partial fetched count and an error wrapping ErrDetailShortfall.
func (c *Collector) FetchDetails() (int, error) {
	tr := c.startTrace("collector.fetch_details")
	n, err := c.fetchDetails(tr)
	c.endTrace(tr, err)
	return n, err
}

func (c *Collector) fetchDetails(tr *obs.Trace) (int, error) {
	pending := c.pendingDetailIDs()
	tr.Annotatef("pending:%d", len(pending))
	c.pendingGauge.Set(int64(len(pending)))
	retries := c.Cfg.detailRetries()
	fetched, batches, failed := 0, 0, 0
	var lastErr error
	for start := 0; start < len(pending); start += c.Cfg.DetailBatch {
		end := start + c.Cfg.DetailBatch
		if end > len(pending) {
			end = len(pending)
		}
		batches++
		var details []jito.TxDetail
		var err error
		for attempt := 0; attempt <= retries; attempt++ {
			if attempt > 0 {
				c.detailRetries.Inc()
			}
			c.detailRequests.Inc()
			details, err = c.transport.TxDetails(pending[start:end])
			if err == nil {
				if attempt > 0 {
					c.batchRetried.Inc()
				} else {
					c.batchOK.Inc()
				}
				break
			}
			c.recordFault(err)
		}
		if err != nil {
			c.batchSkipped.Inc()
			c.idsRequeued.Add(uint64(end - start))
			failed++
			lastErr = err
			continue
		}
		for i := range details {
			// Fill gaps only. A stream feeder may have handed detection a
			// view of a detail already held, so a response that repeats
			// one must not rewrite it under a reader.
			if !c.Data.Details.Has(details[i].Sig) {
				c.Data.Details.Put(details[i])
			}
		}
		fetched += len(details)
	}
	left := c.PendingDetails()
	c.pendingGauge.Set(int64(left))
	c.quality.ObserveDetails(fetched, left, uint64(failed))
	if failed > 0 {
		return fetched, fmt.Errorf("%w: %d of %d batches failed (last: %v), %d ids pending",
			ErrDetailShortfall, failed, batches, lastErr, left)
	}
	return fetched, nil
}

// PollingSink chains a study into live collection: every accepted bundle
// flows to the explorer store, and whenever chain time crosses the polling
// cadence the collector polls — unless the day is an outage, reproducing
// the grey gaps in Figures 1 and 2.
type PollingSink struct {
	Store     *explorer.Store
	Collector *Collector
	// InOutage reports whether collection is down on a study day.
	InOutage func(day int) bool

	nextPoll  solana.Slot
	wasOutage bool
}

// Accept implements the study sink.
func (p *PollingSink) Accept(day int, acc *jito.Accepted) {
	p.Store.Accept(day, acc)
	if acc.Record.Slot < p.nextPoll {
		return
	}
	p.nextPoll = acc.Record.Slot + p.Collector.Cfg.PollEverySlots
	if p.InOutage != nil && p.InOutage(day) {
		p.wasOutage = true
		return
	}
	if p.wasOutage {
		// First poll after downtime: don't let the gap pair pollute the
		// steady-state overlap statistic.
		p.Collector.ResetOverlapChain()
		p.wasOutage = false
	}
	// Poll errors surface in Collector.Errors; collection continues, as
	// the paper's scraper did across transient failures.
	_ = p.Collector.Poll()
}
