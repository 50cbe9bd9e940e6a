package quality

import "sort"

// DayWindow is one study day of the coverage ledger: every poll the
// collector attempted while the chain sat in that day, what the pages
// yielded, and — when the workload layer reports in — how many bundles
// actually landed, so per-day coverage is a measured fraction rather
// than an argument.
type DayWindow struct {
	Day int `json:"day"`

	// Poll outcomes (paper §3.1 cadence: one page every ~2 minutes).
	PollsOK     uint64 `json:"polls_ok"`
	PollsFailed uint64 `json:"polls_failed"`

	// Successive-page overlap: Pairs counts pairs whose second page fell
	// in this day, OverlapPairs those that shared a bundle, Gaps the
	// broken pairs — the paper's missed-bundle signal.
	Pairs        uint64 `json:"pairs"`
	OverlapPairs uint64 `json:"overlap_pairs"`
	Gaps         uint64 `json:"gaps"`

	// Page yield.
	NewBundles uint64 `json:"new_bundles"`
	Duplicates uint64 `json:"duplicates"`

	// Spike recovery.
	BackfillRecovered uint64 `json:"backfill_recovered"`
	BackfillErrors    uint64 `json:"backfill_errors"`

	// Generated is the ground-level denominator: bundles the workload
	// actually landed on chain that day (0 when no generation feed is
	// attached, e.g. a collector scraping a remote explorer).
	Generated uint64 `json:"generated"`
}

// add folds another window into this one (used for the totals row).
func (w *DayWindow) add(o *DayWindow) {
	w.PollsOK += o.PollsOK
	w.PollsFailed += o.PollsFailed
	w.Pairs += o.Pairs
	w.OverlapPairs += o.OverlapPairs
	w.Gaps += o.Gaps
	w.NewBundles += o.NewBundles
	w.Duplicates += o.Duplicates
	w.BackfillRecovered += o.BackfillRecovered
	w.BackfillErrors += o.BackfillErrors
	w.Generated += o.Generated
}

// Ledger is the coverage ledger: per-day windows plus the page size the
// collector polls with, from which the estimated-missed-bundles figure
// is derived. Not safe for concurrent use on its own — the Sentinel
// serializes access.
type Ledger struct {
	days      map[int]*DayWindow
	pageLimit int

	// Detail-fetch shortfall, fed by FetchDetails.
	detailsFetched uint64
	detailsPending uint64
	detailBatchErr uint64
}

// newLedger returns an empty ledger.
func newLedger() *Ledger { return &Ledger{days: make(map[int]*DayWindow)} }

// window returns day d's window, creating it on demand.
func (l *Ledger) window(d int) *DayWindow {
	w, ok := l.days[d]
	if !ok {
		w = &DayWindow{Day: d}
		l.days[d] = w
	}
	return w
}

// LedgerSummary is the aggregated, serializable view of the ledger —
// the "coverage" block of /qualityz.
type LedgerSummary struct {
	DayWindow // totals across all days (Day is meaningless here and omitted)

	PageLimit int `json:"page_limit"`

	// EstimatedMissed is the §3.1 lower-bound estimate of bundles that
	// scrolled past unseen: each broken overlap pair means more than one
	// page of bundles arrived between polls, so at least one page's worth
	// was missed; backfill-recovered bundles are credited back.
	EstimatedMissed uint64 `json:"estimated_missed"`

	// OverlapRate is OverlapPairs/Pairs (0 with no pairs).
	OverlapRate float64 `json:"overlap_rate"`
	// PollFailureRate is PollsFailed over all polls attempted.
	PollFailureRate float64 `json:"poll_failure_rate"`
	// CoverageRate is NewBundles/Generated when a generation feed is
	// attached, else 0.
	CoverageRate float64 `json:"coverage_rate"`

	Days []DayWindow `json:"days,omitempty"`
}

// AggregateLedgers folds per-replica coverage summaries into one
// fleet-wide summary: day windows sum pointwise across replicas, the
// page limit takes the largest any replica polled with, and the derived
// rates (overlap, failure, coverage, estimated-missed) are recomputed
// from the summed windows — averaging the replicas' own rates would
// weight a ten-page partition like a thousand-page one.
func AggregateLedgers(parts ...LedgerSummary) LedgerSummary {
	l := newLedger()
	for i := range parts {
		p := &parts[i]
		if p.PageLimit > l.pageLimit {
			l.pageLimit = p.PageLimit
		}
		for j := range p.Days {
			d := &p.Days[j]
			l.window(d.Day).add(d)
		}
	}
	return l.Summary()
}

// Summary aggregates the ledger. Days come out sorted ascending, so the
// result is deterministic.
func (l *Ledger) Summary() LedgerSummary {
	var s LedgerSummary
	s.PageLimit = l.pageLimit
	keys := make([]int, 0, len(l.days))
	for d := range l.days {
		keys = append(keys, d)
	}
	sort.Ints(keys)
	s.Days = make([]DayWindow, 0, len(keys))
	for _, d := range keys {
		w := l.days[d]
		s.DayWindow.add(w)
		s.Days = append(s.Days, *w)
	}
	s.Day = 0
	s.EstimatedMissed = l.estimatedMissed()
	if s.Pairs > 0 {
		s.OverlapRate = float64(s.OverlapPairs) / float64(s.Pairs)
	}
	if polls := s.PollsOK + s.PollsFailed; polls > 0 {
		s.PollFailureRate = float64(s.PollsFailed) / float64(polls)
	}
	if s.Generated > 0 {
		s.CoverageRate = float64(s.NewBundles) / float64(s.Generated)
	}
	return s
}

// estimatedMissed is LedgerSummary.EstimatedMissed, summed over the day
// windows without building a Summary: the gauge the Sentinel refreshes
// on every paired poll reads it, and Summary does too, so the two
// cannot disagree.
func (l *Ledger) estimatedMissed() uint64 {
	var gaps, recovered uint64
	for _, w := range l.days {
		gaps += w.Gaps
		recovered += w.BackfillRecovered
	}
	if missed := gaps * uint64(l.pageLimit); missed > recovered {
		return missed - recovered
	}
	return 0
}
