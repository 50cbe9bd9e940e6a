// Package quality is the measurement pipeline's data-quality sentinel:
// it consumes the raw signals the other layers already emit — poll and
// backfill outcomes from the collector, per-day landed counts from the
// workload, rejection tallies and tip medians from the analysis pass —
// and turns them into live health verdicts. The paper's headline numbers
// rest on collection invariants (successive-poll overlap ~95%, length-3
// share 2.77%, the three-orders-of-magnitude tip gap between benign and
// sandwich bundles) that can silently rot during a long scrape; the
// sentinel makes each invariant a continuously evaluated check with an
// OK/WARN/CRIT verdict and a machine-readable reason.
//
// Three moving parts:
//
//   - a coverage ledger (Ledger) tracking per-day poll coverage, overlap
//     fraction, detected page gaps and an estimated-missed-bundles
//     figure, generalizing collector.OverlapRate to paper §3.1 semantics;
//   - streaming drift detectors (EWMA + CUSUM) over the paper-anchored
//     series — pure folds over the observation sequence, so detector
//     state is bit-identical at any worker count;
//   - a verdict engine (Evaluate) mapping checks to OK/WARN/CRIT,
//     rendered as the /qualityz JSON document, the /healthz probe (which
//     flips non-200 on CRIT), and an end-of-run table beside
//     obs.WriteSummary.
//
// Like the obs layer it builds on, everything is nil-safe: methods on a
// nil *Sentinel are no-ops, so instrumented code never branches on
// "is the sentinel attached".
package quality

import (
	"sort"
	"sync"

	"jitomev/internal/obs"
)

// Paper-anchored calibration targets the default thresholds are built
// around (§3.1, §4.1, §4.2, Figure 4).
const (
	// TargetOverlapRate is the successive-poll overlap the paper
	// measured (~95%, H11).
	TargetOverlapRate = 0.95
	// TargetLen3Share is the length-3 share of all bundles (2.77%, H10).
	TargetLen3Share = 0.0277
	// TargetDefensiveShare is the defensive share of length-1 bundles
	// (>86%, H5).
	TargetDefensiveShare = 0.86
	// TargetSandwichShare is the sandwich share of all bundles
	// (0.038%, H8).
	TargetSandwichShare = 0.00038
	// TargetTipSeparation is the minimum ratio of median sandwich tip to
	// median length-3 tip (the paper measured >2,000,000 vs 1,000
	// lamports — three orders of magnitude; 100× is the floor below
	// which the Figure 4 separation story no longer holds).
	TargetTipSeparation = 100
)

// Config tunes the sentinel. Zero values select the defaults below;
// every threshold is deliberately generous — a verdict is for "the
// collection methodology is rotting", not "this run differs 10% from
// the paper".
type Config struct {
	// PollFailWarn / PollFailCrit bound the EWMA poll failure rate
	// (defaults 0.02 / 0.25): a sustained >2% failure rate warrants
	// attention, >25% means the scrape is losing pages wholesale.
	PollFailWarn float64
	PollFailCrit float64

	// OverlapWarn / OverlapCrit bound the overlap rate from below
	// (defaults 0.85 / 0.50). The paper's own figure is ~0.95; bursts
	// legitimately cost a few points.
	OverlapWarn float64
	OverlapCrit float64

	// GapRateWarn bounds the broken-pair fraction (default 0.15).
	GapRateWarn float64

	// Len3ShareBand is the acceptable half-width around TargetLen3Share
	// for WARN (default 0.015); 3× the band is CRIT.
	Len3ShareBand float64

	// DefensiveBand is the acceptable half-width around
	// TargetDefensiveShare (default 0.16).
	DefensiveBand float64

	// SandwichShareMin / SandwichShareMax bound the sandwich share
	// (defaults 2e-5 / 5e-3): an order of magnitude either side of the
	// paper's 0.038% before the drift is worth a verdict.
	SandwichShareMin float64
	SandwichShareMax float64

	// TipSepWarn / TipSepCrit bound the median-tip separation ratio
	// from below (defaults 100 / 10).
	TipSepWarn float64
	TipSepCrit float64

	// DetailWarn / DetailCrit bound detail completeness (fetched details
	// over length-3 bundles) from below (defaults 0.95 / 0.50).
	DetailWarn float64
	DetailCrit float64

	// CoverageWarn / CoverageCrit bound per-day coverage (collected over
	// generated) from below when a generation feed is attached (defaults
	// 0.50 / 0.25 — the polling economy plus outages legitimately cost a
	// lot of coverage; see EXPERIMENTS.md's 81–85% canonical figures).
	CoverageWarn float64
	CoverageCrit float64

	// MinPolls, MinPairs, MinLen3, MinSandwiches gate the corresponding
	// checks: below the floor a check reports OK with an
	// "insufficient data" reason instead of judging noise (defaults
	// 8 / 8 / 50 / 5).
	MinPolls      int
	MinPairs      int
	MinLen3       int
	MinSandwiches int
}

// Defaults fills zero fields and returns the result.
func (c Config) Defaults() Config {
	def := func(v *float64, d float64) {
		if *v == 0 {
			*v = d
		}
	}
	def(&c.PollFailWarn, 0.02)
	def(&c.PollFailCrit, 0.25)
	def(&c.OverlapWarn, 0.85)
	def(&c.OverlapCrit, 0.50)
	def(&c.GapRateWarn, 0.15)
	def(&c.Len3ShareBand, 0.015)
	def(&c.DefensiveBand, 0.16)
	def(&c.SandwichShareMin, 2e-5)
	def(&c.SandwichShareMax, 5e-3)
	def(&c.TipSepWarn, TargetTipSeparation)
	def(&c.TipSepCrit, 10)
	def(&c.DetailWarn, 0.95)
	def(&c.DetailCrit, 0.50)
	def(&c.CoverageWarn, 0.50)
	def(&c.CoverageCrit, 0.25)
	if c.MinPolls == 0 {
		c.MinPolls = 8
	}
	if c.MinPairs == 0 {
		c.MinPairs = 8
	}
	if c.MinLen3 == 0 {
		c.MinLen3 = 50
	}
	if c.MinSandwiches == 0 {
		c.MinSandwiches = 5
	}
	return c
}

// AnalysisObs is what one analysis pass feeds the sentinel: the scalar
// invariants plus the per-day series the drift detectors stream over.
// The report layer builds it from Results; the sentinel never imports
// the detector, so criterion names travel as strings.
type AnalysisObs struct {
	TotalBundles    uint64
	Len3Bundles     uint64
	Len3WithDetails uint64
	Len1Bundles     uint64
	Sandwiches      uint64

	// Rejections maps criterion name → rejected count.
	Rejections map[string]uint64

	// MedianTipLen3 / MedianTipSandwich in lamports (0 when the
	// population is empty).
	MedianTipLen3     float64
	MedianTipSandwich float64

	// DefensiveShare is the overall defensive fraction of length-1
	// bundles.
	DefensiveShare float64

	// PerDay carries the day series in ascending day order; the drift
	// detectors fold it in exactly that order.
	PerDay []DayAnalysis
}

// DayAnalysis is one day of the analysis series.
type DayAnalysis struct {
	Day            int
	Bundles        uint64
	Sandwiches     uint64
	DefensiveShare float64
}

// Sentinel is the live data-quality sentinel. Construct with New,
// attach to the collector and the analysis pass, and Evaluate (or serve
// /qualityz) at any point — mid-run values are as meaningful as
// end-of-run ones. All methods are safe for concurrent use and all are
// no-ops on a nil receiver.
type Sentinel struct {
	mu  sync.Mutex
	cfg Config
	led *Ledger

	// Streaming detectors over the collection-time series.
	pollFail    *EWMA  // per-poll failure indicator
	overlapEWMA *EWMA  // per-pair overlap indicator
	overlapCUS  *CUSUM // same series, sustained-shift detector

	// Streaming detectors over the per-day analysis series.
	sandwichRate *EWMA  // per-day sandwiches/bundles
	defenseCUS   *CUSUM // per-day defensive share

	// Per-criterion rejection-share EWMAs, keyed by criterion name —
	// multi-pass analysis (checkpointed runs) drifts these.
	rejShare map[string]*EWMA

	// Last analysis observation (zero until ObserveAnalysis).
	analysis    AnalysisObs
	analysisSet bool

	lastDay int

	// Registry handles (nil when constructed without one).
	reg        *obs.Registry
	gapCounter *obs.Counter
	missedG    *obs.Gauge
	statusG    *obs.Gauge
	checkG     map[string]*obs.Gauge
}

// New builds a sentinel with cfg (zero value = defaults), publishing
// its gap counter, estimated-missed gauge and verdict gauges onto reg
// (nil = unpublished).
func New(cfg Config, reg *obs.Registry) *Sentinel {
	s := &Sentinel{
		cfg:          cfg.Defaults(),
		led:          newLedger(),
		pollFail:     NewEWMA(0.1),
		overlapEWMA:  NewEWMA(0.05),
		overlapCUS:   NewCUSUM(TargetOverlapRate, 0.05, 5),
		sandwichRate: NewEWMA(0.2),
		defenseCUS:   NewCUSUM(TargetDefensiveShare, 0.08, 3),
		rejShare:     make(map[string]*EWMA),
		reg:          reg,
		checkG:       make(map[string]*obs.Gauge),
	}
	if reg != nil {
		reg.Help("quality_page_gaps_total", "Broken successive-poll pairs (paper §3.1 missed-bundle signal).")
		reg.Help("quality_estimated_missed_bundles", "Lower-bound estimate of bundles that scrolled past uncollected.")
		reg.Help("quality_status", "Aggregate data-quality verdict: 0 OK, 1 WARN, 2 CRIT.")
		s.gapCounter = reg.Counter("quality_page_gaps_total")
		s.missedG = reg.Gauge("quality_estimated_missed_bundles")
		s.statusG = reg.Gauge("quality_status")
	}
	return s
}

// Config reads the resolved (defaulted) configuration.
func (s *Sentinel) Config() Config {
	if s == nil {
		return Config{}.Defaults()
	}
	return s.cfg
}

// ObservePoll records one successful recent-bundles poll: the day the
// page landed in, the page size polled with, the page yield, and — when
// the poll formed a successive pair — whether the pages overlapped.
// The estimated-missed gauge moves only with a gap or a new page size,
// so only those refresh it.
func (s *Sentinel) ObservePoll(day, pageLimit, newBundles, dups int, paired, overlap bool) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lastDay = day
	missedMoved := pageLimit != s.led.pageLimit
	s.led.pageLimit = pageLimit
	w := s.led.window(day)
	w.PollsOK++
	w.NewBundles += uint64(newBundles)
	w.Duplicates += uint64(dups)
	s.pollFail.Observe(0)
	if paired {
		w.Pairs++
		x := 0.0
		if overlap {
			w.OverlapPairs++
			x = 1
		} else {
			w.Gaps++
			s.gapCounter.Inc()
			missedMoved = true
		}
		s.overlapEWMA.Observe(x)
		s.overlapCUS.Observe(x)
	}
	if missedMoved {
		s.publishMissedLocked()
	}
}

// ObservePollError records one failed poll, attributed to the last day
// the collector saw (a failed poll carries no page to date it by).
func (s *Sentinel) ObservePollError() {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.led.window(s.lastDay).PollsFailed++
	s.pollFail.Observe(1)
}

// ObserveBackfill records one backfill page's recovered bundles.
func (s *Sentinel) ObserveBackfill(recovered int) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.led.window(s.lastDay).BackfillRecovered += uint64(recovered)
	s.publishMissedLocked()
}

// ObserveBackfillError records one backfill page abandoned on a
// transport failure.
func (s *Sentinel) ObserveBackfillError() {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.led.window(s.lastDay).BackfillErrors++
}

// ObserveGenerated records ground truth for one day: how many bundles
// the workload actually landed on chain. Per-day coverage becomes a
// measured fraction once this feed is attached.
func (s *Sentinel) ObserveGenerated(day int, bundles uint64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.led.window(day).Generated += bundles
}

// ObserveDetails records one FetchDetails outcome.
func (s *Sentinel) ObserveDetails(fetched, pending int, batchesFailed uint64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.led.detailsFetched += uint64(fetched)
	s.led.detailsPending = uint64(pending)
	s.led.detailBatchErr += batchesFailed
}

// ObserveAnalysis feeds one analysis pass: scalars replace the previous
// observation, per-day series and rejection shares stream into the
// drift detectors in deterministic (day, sorted-criterion) order.
func (s *Sentinel) ObserveAnalysis(a AnalysisObs) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.analysis = a
	s.analysisSet = true
	for _, d := range a.PerDay {
		if d.Bundles > 0 {
			s.sandwichRate.Observe(float64(d.Sandwiches) / float64(d.Bundles))
		}
		s.defenseCUS.Observe(d.DefensiveShare)
	}
	if total := rejTotal(a.Rejections); total > 0 {
		for _, name := range sortedKeys(a.Rejections) {
			e, ok := s.rejShare[name]
			if !ok {
				e = NewEWMA(0.3)
				s.rejShare[name] = e
			}
			e.Observe(float64(a.Rejections[name]) / float64(total))
		}
	}
}

// publishMissedLocked refreshes the estimated-missed gauge. Caller
// holds s.mu.
func (s *Sentinel) publishMissedLocked() {
	if s.missedG == nil {
		return
	}
	s.missedG.Set(int64(s.led.estimatedMissed()))
}

// LedgerSummary snapshots the coverage ledger.
func (s *Sentinel) LedgerSummary() LedgerSummary {
	if s == nil {
		return LedgerSummary{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.led.Summary()
}

// DriftState snapshots every drift detector in a fixed, deterministic
// order — the state the worker-count determinism tests compare.
func (s *Sentinel) DriftState() []DetectorState {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.driftStateLocked()
}

func (s *Sentinel) driftStateLocked() []DetectorState {
	out := []DetectorState{
		s.pollFail.state("poll_failure_rate"),
		s.overlapEWMA.state("overlap_ewma"),
		s.overlapCUS.state("overlap_cusum"),
		s.sandwichRate.state("sandwich_rate_ewma"),
		s.defenseCUS.state("defensive_share_cusum"),
	}
	for _, name := range sortedEWMAKeys(s.rejShare) {
		out = append(out, s.rejShare[name].state("rejection_share_"+name))
	}
	return out
}

// sortedKeys returns m's keys ascending.
func sortedKeys(m map[string]uint64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sortedEWMAKeys(m map[string]*EWMA) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func rejTotal(m map[string]uint64) uint64 {
	var t uint64
	for _, n := range m {
		t += n
	}
	return t
}
