package collector

import (
	"jitomev/internal/jito"
	"jitomev/internal/snapshot"
	"jitomev/internal/solana"
)

// DayAgg aggregates one study day of collected bundles — the per-day
// series behind Figures 1 and 2. The definition lives in the snapshot
// package (the persistence layer encodes it and cannot import the
// collector); this alias keeps collector.DayAgg the canonical name for
// every consumer.
type DayAgg = snapshot.DayAgg

// Dataset is everything the collector keeps: the collection scope
// (per-day aggregates and tip histograms for all traffic, and the
// totals), plus full records (and later, details) for length-3 bundles
// only — the same economy the paper used ("we request the detailed
// transaction information only for bundles of length three", §3.1).
type Dataset struct {
	snapshot.Scope

	Len3 []jito.BundleRecord
	// Long holds records of other retained lengths (4–5) when extended
	// detection is enabled; empty under the paper's length-3-only economy.
	Long []jito.BundleRecord
	// Details holds every fetched transaction detail (see
	// jito.DetailSet); a loaded dataset stores each record's details at
	// consecutive positions.
	Details *jito.DetailSet

	// retain selects which bundle lengths keep full records for detail
	// fetching. Length 3 is always retained.
	retain map[int]bool

	seen *dedupWindow
	// txids owns the TxIDs of every record Ingest retained.
	txids sigChunks
}

// NewDataset builds an empty dataset. windowSize bounds the dedup memory;
// it must comfortably exceed the poll page size (4× is ample, since a page
// can only overlap its immediate predecessors).
func NewDataset(clock solana.Clock, windowSize int) *Dataset {
	if windowSize < 64 {
		windowSize = 64
	}
	return &Dataset{
		Scope:   snapshot.NewScope(clock),
		Details: new(jito.DetailSet),
		retain:  map[int]bool{3: true},
		seen:    newDedupWindow(windowSize),
	}
}

// RetainLengths widens the set of bundle lengths whose full records are
// kept for detail fetching (length 3 is always kept). Call before
// ingestion starts.
func (d *Dataset) RetainLengths(lengths ...int) {
	for _, n := range lengths {
		d.retain[n] = true
	}
}

// Ingest folds one page entry into the dataset, returning false for
// duplicates (already collected via an earlier page). A record it
// retains gets its own copy of TxIDs, so rec may alias a transport's
// reused page storage (see Transport).
func (d *Dataset) Ingest(rec jito.BundleRecord) bool {
	if !d.seen.add(rec.ID) {
		d.Duplicates++
		return false
	}
	d.Scope.Add(&rec)

	// Other lengths normally only feed the aggregates. Extended detection
	// retains lengths 4–5, and a capture dataset (fleet partition
	// snapshot) retains length 1 too, so a merge can rebuild the
	// aggregates from scratch.
	switch n := rec.NumTxs(); {
	case n == 3:
		d.Len3 = append(d.Len3, d.own(rec))
	case d.retain[n]:
		d.Long = append(d.Long, d.own(rec))
	}
	return true
}

// own returns rec with TxIDs copied into the dataset's own storage.
func (d *Dataset) own(rec jito.BundleRecord) jito.BundleRecord {
	rec.TxIDs = d.txids.copy(rec.TxIDs)
	return rec
}

// sigChunks is append-only signature storage: each copy lands in the
// newest chunk, a full chunk is followed by a larger one (up to
// maxSigChunk), and no chunk ever moves, so a returned slice stays valid
// for the owner's life.
type sigChunks struct{ cur []solana.Signature }

// Chunk sizes, in signatures: 4 KiB first, 256 KiB at most.
const (
	minSigChunk = 64
	maxSigChunk = 4096
)

// copy stores ids and returns the stored window, capped so an append
// cannot reach a neighbour. A nil ids stays nil and an empty one stays
// empty.
func (c *sigChunks) copy(ids []solana.Signature) []solana.Signature {
	if len(ids) == 0 {
		if ids == nil {
			return nil
		}
		return []solana.Signature{}
	}
	if cap(c.cur)-len(c.cur) < len(ids) {
		size := min(max(2*cap(c.cur), minSigChunk), maxSigChunk)
		c.cur = make([]solana.Signature, 0, max(size, len(ids)))
	}
	start := len(c.cur)
	c.cur = append(c.cur, ids...)
	return c.cur[start:len(c.cur):len(c.cur)]
}

// DetailsFor returns the aligned detail slice for a length-3 record, and
// whether every member transaction's detail has been fetched.
func (d *Dataset) DetailsFor(rec *jito.BundleRecord) ([]jito.TxDetail, bool) {
	out, ok := d.AppendDetails(make([]jito.TxDetail, 0, len(rec.TxIDs)), rec)
	if !ok {
		return nil, false
	}
	return out, true
}

// AppendDetails appends the record's aligned details to dst and reports
// whether every member transaction's detail is present. Passing a reused
// scratch slice (dst[:0]) keeps the analysis hot loop allocation-free;
// safe to call from concurrent readers once ingestion has finished.
func (d *Dataset) AppendDetails(dst []jito.TxDetail, rec *jito.BundleRecord) ([]jito.TxDetail, bool) {
	return d.Details.AppendAligned(dst, rec.TxIDs)
}

// dedupWindow is a fixed-capacity sliding set of bundle ids: membership
// checks for recent ids, eviction of the oldest once full. Pages only ever
// overlap their immediate predecessors, so a window a few pages deep
// deduplicates exactly while using constant memory across a four-month
// collection.
type dedupWindow struct {
	set  map[jito.BundleID]struct{}
	ring []jito.BundleID
	next int
	full bool
}

func newDedupWindow(capacity int) *dedupWindow {
	return &dedupWindow{
		set:  make(map[jito.BundleID]struct{}, capacity),
		ring: make([]jito.BundleID, capacity),
	}
}

// add inserts id, evicting the oldest entry when full. It returns false if
// id was already present.
func (w *dedupWindow) add(id jito.BundleID) bool {
	if _, ok := w.set[id]; ok {
		return false
	}
	if w.full {
		delete(w.set, w.ring[w.next])
	}
	w.ring[w.next] = id
	w.set[id] = struct{}{}
	w.next++
	if w.next == len(w.ring) {
		w.next = 0
		w.full = true
	}
	return true
}

func (w *dedupWindow) len() int { return len(w.set) }
