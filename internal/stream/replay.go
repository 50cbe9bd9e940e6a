package stream

import (
	"bytes"
	"cmp"
	"slices"

	"jitomev/internal/collector"
	"jitomev/internal/jito"
	"jitomev/internal/report"
)

// Replay support: driving the engine from an already-collected dataset —
// `report -load -replay` over a snapshot, or the collector feeding its
// own growing dataset poll by poll. A replayed dataset carries its own
// collection aggregates, so the engine imports them (SetScope) instead of
// re-deriving scope from the record subset it replays.

// ScopeOf packages a dataset's collection aggregates as the engine's
// replay scope — the same mapping report.Analyze applies internally.
func ScopeOf(data *collector.Dataset) report.Scope {
	return report.Scope{
		Clock:       data.Clock,
		Days:        data.Days,
		TipsLen1:    data.TipsLen1,
		TipsLen3:    data.TipsLen3,
		Collected:   data.Collected,
		Duplicates:  data.Duplicates,
		Len3Bundles: uint64(len(data.Len3)),
	}
}

// Canonicalize returns a shallow copy of the dataset with its retained
// records in canonical (Slot, Seq) order — the order any watermark-sealed
// stream folds in. A dataset collected over a faulty feed may hold
// records in arrival order instead; batch results over the canonicalized
// copy are the reference a streamed run must match bit-identically.
func Canonicalize(data *collector.Dataset) *collector.Dataset {
	out := *data
	out.Len3 = canonicalOrder(data.Len3)
	out.Long = canonicalOrder(data.Long)
	return &out
}

// canonicalOrder returns a sorted copy of recs, leaving recs untouched.
func canonicalOrder(recs []jito.BundleRecord) []jito.BundleRecord {
	out := append([]jito.BundleRecord(nil), recs...)
	sortCanonical(out)
	return out
}

// sortCanonical sorts recs in place into (Slot, Seq, ID) order.
func sortCanonical(recs []jito.BundleRecord) {
	slices.SortStableFunc(recs, func(a, b jito.BundleRecord) int { return compareCanonical(&a, &b) })
}

// compareCanonical orders records by (Slot, Seq, ID). The bytewise ID
// tiebreak for equal sequence numbers is only reachable in hand-built
// feeds; the block engine assigns Seq uniquely.
func compareCanonical(a, b *jito.BundleRecord) int {
	if c := cmp.Compare(a.Slot, b.Slot); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Seq, b.Seq); c != 0 {
		return c
	}
	return bytes.Compare(a.ID[:], b.ID[:])
}

// Replay offers every retained record of the dataset to the engine in
// canonical order, with whatever details the dataset holds (incomplete
// detail sets are withheld, exactly as the batch fold skips them), and
// imports the dataset's scope. The caller still runs Finish.
//
// Events carry read-only views into data.Details wherever a record's
// details are consecutive in the set (see detailsOf), so the dataset
// must outlive the engine's Finish and must not be written meanwhile.
func Replay(e *Engine, data *collector.Dataset) {
	var long []jito.BundleRecord
	if e.cfg.Extended {
		long = data.Long
	}
	// Records are offered through a permutation sorted canonically, ties
	// broken by index into Len3 then Long: the order a stable sort of
	// the concatenated records gives, without copying one.
	n3 := len(data.Len3)
	rec := func(p int32) *jito.BundleRecord {
		if int(p) < n3 {
			return &data.Len3[p]
		}
		return &long[int(p)-n3]
	}
	perm := make([]int32, n3+len(long))
	for i := range perm {
		perm[i] = int32(i)
	}
	slices.SortFunc(perm, func(a, b int32) int {
		if c := compareCanonical(rec(a), rec(b)); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	for _, p := range perm {
		r := rec(p)
		e.Offer(Event{Rec: *r, Details: detailsOf(data, r)})
	}
	e.SetScope(ScopeOf(data))
}

// detailsOf returns rec's aligned details, or nil when any is missing:
// a read-only view into the dataset's detail set when the details sit
// consecutively there — always, for a loaded dataset, unless the record
// straddles a chunk boundary — and a fresh copy otherwise. The empty,
// non-nil dst keeps a record with no members complete rather than
// pending.
func detailsOf(data *collector.Dataset, rec *jito.BundleRecord) []jito.TxDetail {
	dets, ok := data.Details.Aligned([]jito.TxDetail{}, rec.TxIDs)
	if !ok {
		return nil
	}
	return dets
}

// Feeder incrementally replays a dataset that is still growing — the
// collector's poll loop appends to Len3/Long and fetches details between
// polls; each Feed call offers the records that have become complete
// since the last one. Records whose details never complete are flushed
// (offered without details) by Finish via FlushPending. Like Replay, it
// offers read-only views into the dataset's detail set; the set only
// appends as collection goes on, and its chunks never move, so the
// views stay valid.
type Feeder struct {
	eng  *Engine
	data *collector.Dataset

	next3, nextL int   // high-water marks into data.Len3 / data.Long
	pending3     []int // indices offered-deferred awaiting details
	pendingL     []int
}

// NewFeeder builds a feeder over the engine and the growing dataset.
func NewFeeder(eng *Engine, data *collector.Dataset) *Feeder {
	return &Feeder{eng: eng, data: data}
}

// Feed offers every newly-appended record whose details are complete
// (length-3 always requires details before offering, so the detection
// fold sees them; lengths outside the detector's reach offer
// immediately). Call after each poll + detail fetch.
func (f *Feeder) Feed() {
	f.next3, f.pending3 = f.feedRange(f.data.Len3, f.next3, f.pending3)
	if f.eng.cfg.Extended {
		f.nextL, f.pendingL = f.feedRange(f.data.Long, f.nextL, f.pendingL)
	} else {
		f.nextL = len(f.data.Long)
	}
}

func (f *Feeder) feedRange(recs []jito.BundleRecord, next int, pending []int) (int, []int) {
	keep := pending[:0]
	for _, i := range pending {
		rec := &recs[i]
		if dets := detailsOf(f.data, rec); dets != nil {
			f.eng.Offer(Event{Rec: *rec, Details: dets})
		} else {
			keep = append(keep, i)
		}
	}
	pending = keep
	for ; next < len(recs); next++ {
		rec := &recs[next]
		if dets := detailsOf(f.data, rec); dets != nil {
			f.eng.Offer(Event{Rec: *rec, Details: dets})
		} else {
			pending = append(pending, next)
		}
	}
	return next, pending
}

// FlushPending offers every record still awaiting details, without them —
// mirroring the batch fold, which scores detail-less records as
// undetectable rather than dropping them. Call once, before Finish.
func (f *Feeder) FlushPending() {
	f.Feed()
	for _, i := range f.pending3 {
		f.eng.Offer(Event{Rec: f.data.Len3[i]})
	}
	f.pending3 = f.pending3[:0]
	for _, i := range f.pendingL {
		f.eng.Offer(Event{Rec: f.data.Long[i]})
	}
	f.pendingL = f.pendingL[:0]
}
