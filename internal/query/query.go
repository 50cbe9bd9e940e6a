// Package query runs the paper's analyses out-of-core: detection
// (criteria C1–C5), the Table-1 headline statistics and the per-day
// figure series are computed directly over snapshot shards — decode,
// analyze, fold, discard — so peak live memory is proportional to
// workers × shard size and independent of how many days the study
// collected. At the paper's density (≈14.8M bundles/day over four
// months) the resident dataset does not fit comfortably in memory;
// the streaming pass never materializes it.
//
// The engine leans on two layers built for it: snapshot.Scan delivers
// shards in file order with detection mapped onto the decode pool,
// and report.Accumulator folds partials in shard order, which makes the
// streamed Results bit-identical to report.AnalyzeN over the same data
// at every worker count.
//
// Planning is predicate pushdown on the per-shard metadata the encoder
// wrote: shards whose day bounds miss the requested range are skipped
// without decompression, the orphan-details section is always skipped
// (no bundle record can reference an orphan, by construction), and
// SkipExtended additionally drops the length-4/5 section for queries
// that only need the paper's length-3 economy.
package query

import (
	"fmt"
	"io"
	"os"
	"runtime"

	"jitomev/internal/core"
	"jitomev/internal/jito"
	"jitomev/internal/obs"
	"jitomev/internal/report"
	"jitomev/internal/snapshot"
)

// DayRange restricts a query to study days in [Lo, Hi], inclusive.
type DayRange struct {
	Lo, Hi int
}

// Contains reports whether day d falls in the range.
func (dr DayRange) Contains(d int) bool { return d >= dr.Lo && d <= dr.Hi }

// Options configure a query. The zero value computes the full Results
// over all days on all cores, uninstrumented.
type Options struct {
	// Workers bounds the decode/detect pool (0 = all cores, 1 = serial).
	// Results are identical at every worker count.
	Workers int

	// Days, when non-nil, restricts every statistic to records and day
	// aggregates inside the range. Shards entirely outside it are
	// pruned without decompression. The tip histograms and the
	// duplicate count have no per-day breakdown and stay global.
	Days *DayRange

	// SkipExtended drops the extended pass over retained length-4/5
	// bundles (and prunes their shards): the paper's length-3-only
	// economy. The extended statistics read zero.
	SkipExtended bool

	// SOLPriceUSD for dollar conversions; ≤ 0 selects the paper's rate.
	SOLPriceUSD float64

	// Detector overrides the detection criteria (nil = paper defaults).
	Detector *core.Detector

	// Reg optionally receives scan counters, detection counters, spans
	// and the live-heap gauge.
	Reg *obs.Registry
}

// Stats describes how a query executed — what was scanned, what the
// planner skipped, and the memory high-water of the pass.
type Stats struct {
	ShardsScanned int   // shards decompressed and decoded
	ShardsPruned  int   // shards skipped by pushdown
	BytesDecoded  int64 // uncompressed bytes that were decoded
	BytesSkipped  int64 // compressed bytes never inflated

	// PeakHeapBytes is the live-heap high-water sampled over the pass.
	PeakHeapBytes uint64
}

// PrunedFraction is the share of streaming shards pushdown eliminated.
func (s *Stats) PrunedFraction() float64 {
	if total := s.ShardsScanned + s.ShardsPruned; total > 0 {
		return float64(s.ShardsPruned) / float64(total)
	}
	return 0
}

// RunFile runs a query over the snapshot at path.
func RunFile(path string, opts Options) (*report.Results, *Stats, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, fmt.Errorf("query: %w", err)
	}
	defer f.Close()
	return Run(f, opts)
}

// Run executes the query as one bounded-memory streaming pass over the
// snapshot on r.
func Run(r io.Reader, opts Options) (*report.Results, *Stats, error) {
	// A reversed range would silently select nothing (every Contains
	// check fails and every shard prunes); refuse it loudly instead —
	// the caller swapped the bounds.
	if opts.Days != nil && opts.Days.Lo > opts.Days.Hi {
		return nil, nil, fmt.Errorf("query: reversed day range %d:%d (lo > hi; did you swap the bounds?)",
			opts.Days.Lo, opts.Days.Hi)
	}
	st := &Stats{}
	res, err := runStreaming(r, opts, st)
	return res, st, err
}

// shardResult is one shard's detection output, computed on the decode
// pool and folded in shard order.
type shardResult struct {
	len3 report.Len3Partial
	long report.LongPartial
}

// heapSampleEvery bounds how often the fold pays for a
// runtime.ReadMemStats: every 32 shards keeps the gauge honest at a
// fraction of a percent of scan time.
const heapSampleEvery = 32

// runStreaming executes the out-of-core pass.
func runStreaming(r io.Reader, opts Options, st *Stats) (*report.Results, error) {
	reg := opts.Reg
	det := opts.Detector
	if det == nil {
		det = core.NewDefaultDetector()
	}

	reg.Volatile("query_live_heap_bytes")
	reg.Help("query_live_heap_bytes", "Live heap sampled during the streaming query, bytes.")
	reg.Help("query_shards_total", "Streaming shards by section and planner outcome.")
	heapGauge := reg.Gauge("query_live_heap_bytes")
	sampleHeap := func() {
		h := liveHeap()
		if h > st.PeakHeapBytes {
			st.PeakHeapBytes = h
		}
		heapGauge.Set(int64(h))
	}

	var (
		a     *report.Accumulator
		folds int
	)

	scanOpts := snapshot.ScanOptions{
		Workers: opts.Workers,
		Reg:     reg,
		Prune: func(sec snapshot.Section, m snapshot.ShardMeta) bool {
			// Orphan details are referenced by no record — they can
			// never reach the detector.
			if sec == snapshot.SectionOrphans {
				return true
			}
			if opts.SkipExtended && sec == snapshot.SectionLong {
				return true
			}
			if opts.Days != nil && (m.MaxDay < opts.Days.Lo || m.MinDay > opts.Days.Hi) {
				return true
			}
			return false
		},
		SectionStart: func(sec snapshot.Section, _, items int) error {
			if sec == snapshot.SectionLen3 && a == nil {
				return fmt.Errorf("query: internal: prelude not delivered before shards")
			}
			return nil
		},
		Map: func(sec snapshot.Section, m snapshot.ShardMeta, b *snapshot.Batch) (any, error) {
			sr := &shardResult{}
			src := batchSource(b)
			switch sec {
			case snapshot.SectionLen3:
				sr.len3 = a.DetectLen3(b.Recs, src)
			case snapshot.SectionLong:
				sr.long = a.DetectLong(b.Recs, src)
			}
			return sr, nil
		},
	}

	span := reg.StartSpan("query_scan")
	sampleHeap()
	err := snapshot.Scan(r, scanOpts, func(sc *snapshot.Scope) error {
		a = report.NewAccumulator(det, opts.SOLPriceUSD, sc)
		if opts.Days != nil {
			a.Restrict(opts.Days.Lo, opts.Days.Hi)
		}
		return nil
	}, func(sec snapshot.Section, m snapshot.ShardMeta, _ *snapshot.Batch, mapped any) error {
		if mapped == nil { // pruned
			st.ShardsPruned++
			st.BytesSkipped += int64(m.CompLen)
			reg.Counter("query_shards_total", "section", sec.String(), "outcome", "pruned").Add(1)
			return nil
		}
		st.ShardsScanned++
		st.BytesDecoded += int64(m.RawLen)
		reg.Counter("query_shards_total", "section", sec.String(), "outcome", "scanned").Add(1)
		sr := mapped.(*shardResult)
		switch sec {
		case snapshot.SectionLen3:
			a.FoldLen3(sr.len3)
		case snapshot.SectionLong:
			a.FoldLong(sr.long)
		}
		if folds++; folds%heapSampleEvery == 0 {
			sampleHeap()
		}
		return nil
	})
	span.End()
	if err != nil {
		return nil, err
	}
	sampleHeap()
	reg.Counter("query_bytes_decoded_total").Add(uint64(st.BytesDecoded))
	reg.Counter("query_bytes_skipped_total").Add(uint64(st.BytesSkipped))

	return a.Finish(reg), nil
}

// batchSource adapts a decoded shard to the fold's DetailSource.
func batchSource(b *snapshot.Batch) report.DetailSource {
	return func(i int, scratch []jito.TxDetail) ([]jito.TxDetail, bool) {
		return b.AppendDetails(scratch, i)
	}
}

// liveHeap reads the allocator's live-byte count.
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
