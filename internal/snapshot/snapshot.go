// Package snapshot implements the dataset checkpoint format: a
// length-prefixed, versioned container of independently gzip-compressed
// shards, written and read in parallel. The paper's four-month
// collection is the asset the whole pipeline exists to protect. The
// dataset is split into fixed-size shards whose encoding is a pure
// function of the data (never of the worker count), compressed
// concurrently and concatenated in shard order, so Save and Load both
// scale with cores, output bytes are identical at every worker count,
// and peak transient memory is bounded by the compression window rather
// than the dataset.
//
// The bundle payload is laid out for out-of-core analytics: every shard
// is a self-contained streaming unit (records plus their aligned
// transaction details plus a local pubkey dictionary), and every shard
// frame carries a pushdown-metadata header (record count, min/max study
// day, bundle-length histogram) that a streaming scanner can use to
// skip the shard without even inflating it.
//
// # Container layout
//
// All multi-byte integers are little-endian when fixed-width and unsigned
// LEB128 ("uvarint") when variable; signed varints use zigzag. The file
// is the magic "jitosnp3" (8 bytes) followed by sections in a fixed
// order — meta, days, tipsLen1, tipsLen3, bundles3, bundlesLong,
// orphans — and the terminator byte 0xFF. Every section opens with
//
//	id         byte    (see section constants below)
//	shardCount uvarint
//	totalItems uvarint (sum of the per-shard item counts)
//
// followed by shardCount frames. The four header sections use the plain
// frame:
//
//	items   uvarint (entries encoded in this shard)
//	rawLen  uvarint (decompressed payload length in bytes)
//	compLen uvarint
//	blob    compLen bytes of gzip(payload)
//
// The three streaming sections use an extended frame whose header is the
// pushdown-metadata block:
//
//	items   uvarint          records (or orphan details) in this shard
//	minDay  zigzag uvarint   earliest study day touched by the shard
//	maxDay  zigzag uvarint   latest study day touched by the shard
//	byLen   uvarints         bundle-length histogram, lengths 0..5
//	                         (all zero for orphan shards)
//	rawLen  uvarint
//	compLen uvarint
//	blob    compLen bytes of gzip(payload)
//
// Sections are strictly ordered and every section is written even when
// empty (zero shards), so a cut at a section boundary is a loud error
// rather than a silently smaller dataset. An unknown or out-of-order
// section id is a decode error.
//
// # Shard payloads
//
// A bundle shard's payload is self-contained: the record columns, then a
// local pubkey dictionary (nKeys uvarint + nKeys×32 bytes, in first-use
// order), then one presence byte per (record, member transaction) pair,
// then the detail columns over exactly the present details in (record,
// member) order. Member signatures are not stored with the details — a
// detail's signature is the transaction id at its position in the owning
// record — so a scanner can decode, analyze and discard one shard at a
// time with no dataset-sized state. Details not referenced by any
// retained record land in the orphans section, signature-sorted: the
// local dictionary, a signature column (items × 64 bytes), then the
// detail columns. This preserves exact detail-set round trips: a loaded
// set holds every detail once, each record's details at consecutive
// positions. Should a signature appear twice in a file, the later one in
// scan order wins.
//
// The record columns are fixed-width, one column fully emitted before
// the next — grouping similar bytes is what lets the fast gzip level
// compress well:
//
//	seq[items]   uint64     id[items]     [32]byte
//	slot[items]  uint64     unixMs[items] int64 (as uint64 bits)
//	tip[items]   uint64     nTx[items]    byte
//	txids        concatenated [64]byte signatures, sum(nTx) of them
//
// The detail columns reference pubkeys as uvarint indices into the
// shard's local dictionary, so a signer or mint that appears in many of
// the shard's transactions is stored once:
//
//	signerIdx[items] uvarint         slot[items]  uint64
//	flags[items]     byte (bit0 failed, bit1 tipOnly)
//	tip[items]       uvarint         nDelta[items] uvarint
//	deltas           per delta: ownerIdx uvarint, mintIdx uvarint,
//	                 delta zigzag-varint
//
// The meta payload is genesis unixNano, collected, duplicates (3 ×
// uint64). The days payload is, per day in ascending order: zigzag day
// then uvarint Bundles, Txs, ByLength[0..MaxBundleTxs], DefensiveCount,
// PriorityCount, DefensiveSpend. Histogram payloads reuse
// stats.LogHistogram's binary encoding.
//
// The metadata header is what predicate pushdown reads: a day-ranged
// query drops shards whose [minDay, maxDay] misses the range, and a
// query that needs no long bundles drops every shard of that section,
// in both cases skipping the gzip inflate entirely.
//
// # Versioning policy
//
// The magic string carries the version, and there is exactly one: any
// layout change bumps the magic, and readers refuse every other magic
// as ErrCorrupt, naming what they found. Every dataset here is seeded,
// so data written under an older layout is regenerated from its seed
// rather than decoded by a retained legacy reader.
package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"jitomev/internal/jito"
	"jitomev/internal/solana"
	"jitomev/internal/stats"
)

// MagicV3 opens every snapshot: the one container format, with
// self-contained bundle shards and per-shard pushdown metadata.
const MagicV3 = "jitosnp3"

// Section identifiers, in file order.
const (
	secMeta     = 0x01
	secDays     = 0x02
	secTipsLen1 = 0x03
	secTipsLen3 = 0x04
	secEnd      = 0xFF

	secBundles3    = 0x0A // len-3 records + aligned details
	secBundlesLong = 0x0B // retained length-4/5 records + details
	secOrphans     = 0x0C // details referenced by no retained record
)

// Shard sizing: fixed constants so shard boundaries — and therefore the
// output bytes — depend only on the data, never on the worker count.
// Bundle shards carry their details inline; 4096 records keep the raw
// payload near 1 MiB, which bounds per-shard compression state while
// amortizing the frame overhead, and keep the per-shard day span tight
// (finer-grained shards prune better).
const (
	bundleShardSize = 4096
	orphanShardSize = 8192
)

// ShardMeta is the pushdown-metadata block every streaming frame
// carries: enough for a planner to decide whether a shard can be skipped
// without inflating it. Day bounds are zero-based study days (the same
// solana.Clock.DayOf the collector aggregates by); ByLength counts the
// shard's records by bundle length, with out-of-spec lengths clamped
// into the top bucket, and is all zero for orphan-detail shards.
type ShardMeta struct {
	Items  int
	MinDay int
	MaxDay int

	ByLength [jito.MaxBundleTxs + 1]uint64

	// RawLen and CompLen size the shard's payload: CompLen is what a
	// pruned scan skips, RawLen what a full scan inflates.
	RawLen  int
	CompLen int
}

// DayAgg aggregates one study day of collected bundles — the per-day
// series behind Figures 1 and 2. The canonical definition lives here so
// the persistence layer and the collector share one type without an
// import cycle; collector re-exports it under the same name.
type DayAgg struct {
	Bundles  uint64
	Txs      uint64
	ByLength [jito.MaxBundleTxs + 1]uint64

	// Defensive-bundling aggregates (paper §3.3 classification applied
	// at ingest so length-1 bundles never need to be retained).
	DefensiveCount uint64
	PriorityCount  uint64
	DefensiveSpend uint64 // lamports
}

// Scope is the collection scope: what the collector aggregates over all
// traffic, ahead of and apart from the records it retains (§3.1) — the
// chain clock, the per-day aggregates, the tip histograms of length-1
// and length-3 bundles, and the collection totals. Figures 1 and 4 and
// the dataset-scope statistics read nothing else. The dataset, the
// snapshot, a scan's prelude and a stream engine each hold one.
type Scope struct {
	Clock solana.Clock

	Days     map[int]*DayAgg
	TipsLen1 *stats.LogHistogram
	TipsLen3 *stats.LogHistogram

	// Collected counts every ingested (non-duplicate) bundle; Duplicates
	// counts deliveries already seen.
	Collected  uint64
	Duplicates uint64
}

// Prelude is the scope as a scan delivers it, ahead of the streaming
// sections; perfbench names it.
type Prelude = Scope

// NewScope returns an empty scope under clock, ready for Add.
func NewScope(clock solana.Clock) Scope {
	return Scope{
		Clock:    clock,
		Days:     make(map[int]*DayAgg),
		TipsLen1: stats.NewTipHistogram(),
		TipsLen3: stats.NewTipHistogram(),
	}
}

// Add folds one collected (non-duplicate) bundle into the scope: the
// per-day counts, the defensive/priority split of length-1 bundles
// (paper §3.3, applied here so they never need to be retained) and the
// tip histograms. It is the only writer of ByLength.
func (s *Scope) Add(rec *jito.BundleRecord) {
	s.Collected++
	n := rec.NumTxs()
	day := s.Clock.DayOf(rec.Slot)
	agg, ok := s.Days[day]
	if !ok {
		agg = &DayAgg{}
		s.Days[day] = agg
	}
	agg.Bundles++
	agg.Txs += uint64(n)
	if n <= jito.MaxBundleTxs {
		agg.ByLength[n]++
	}
	switch n {
	case 1:
		s.TipsLen1.Add(float64(rec.TipLamps))
		if rec.Tip() <= solana.DefensiveTipCeiling {
			agg.DefensiveCount++
			agg.DefensiveSpend += rec.TipLamps
		} else {
			agg.PriorityCount++
		}
	case 3:
		s.TipsLen3.Add(float64(rec.TipLamps))
	}
}

// SortedDays returns the days present, ascending (empty, never nil).
func (s *Scope) SortedDays() []int {
	days := make([]int, 0, len(s.Days))
	for d := range s.Days {
		days = append(days, d)
	}
	sort.Ints(days)
	return days
}

// Len3 counts the length-3 bundles in scope. Add counts a length-3
// bundle here exactly when the dataset retains its record, so this is
// the length-3 record count of whatever the scope covers.
func (s *Scope) Len3() uint64 {
	var n uint64
	for _, agg := range s.Days {
		n += agg.ByLength[3]
	}
	return n
}

// Restrict returns the scope cut to study days [lo, hi]: the days
// outside dropped (nil when none survive) and Collected recounted from
// the survivors. The tip histograms and Duplicates have no per-day
// breakdown and stay whole.
func (s *Scope) Restrict(lo, hi int) Scope {
	out := *s
	out.Days, out.Collected = nil, 0
	for d, agg := range s.Days {
		if d < lo || d > hi {
			continue
		}
		if out.Days == nil {
			out.Days = make(map[int]*DayAgg)
		}
		out.Days[d] = agg
		out.Collected += agg.Bundles
	}
	return out
}

// Snapshot is the persisted view of a dataset: collection results only,
// shared (not copied) with the live collector.Dataset. Transient
// machinery like the dedup window restarts fresh on load.
type Snapshot struct {
	Scope
	Len3    []jito.BundleRecord
	Long    []jito.BundleRecord
	Details *jito.DetailSet
}

// zigzag encoding for signed varints.
func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

func appendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

// ErrCorrupt is the sentinel every decode failure wraps: any malformed,
// truncated or hostile input — including a short read anywhere in the
// stream — surfaces as errors.Is(err, ErrCorrupt), so callers can
// distinguish "bad checkpoint" from I/O plumbing failures.
var ErrCorrupt = errors.New("snapshot: corrupt")

// corrupt builds the uniform decode error, wrapping ErrCorrupt.
func corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// corruptShard tags a shard-level failure with its shard index, ensuring
// exactly one ErrCorrupt wrap even when the inner error already carries
// one (payload decoders) or none (histogram codecs).
func corruptShard(idx int, err error) error {
	if errors.Is(err, ErrCorrupt) {
		return fmt.Errorf("snapshot: shard %d: %w", idx, err)
	}
	return fmt.Errorf("%w: shard %d: %v", ErrCorrupt, idx, err)
}
