package collector

import (
	"cmp"
	"fmt"
	"io"
	"slices"

	"jitomev/internal/jito"
	"jitomev/internal/obs"
	"jitomev/internal/snapshot"
)

// Dataset persistence: a four-month collection is too valuable to re-run
// (the paper's actual dataset took four months of wall time to gather),
// so the collector can checkpoint what it has and analysis tools can load
// it without regenerating. Save writes the sharded columnar snapshot
// format (package snapshot): parallel encode/decode, byte-identical
// output at every worker count, self-contained shards carrying pushdown
// metadata for the out-of-core query engine. Loading accepts that one
// format and refuses anything else — a truncated header, a foreign file,
// a retired layout — as snapshot.ErrCorrupt before any shard is decoded,
// which is also what makes a loaded file safe to resume into and rewrite.

// snapshotView is the persistence view of d: shared slices, maps and
// detail set, no copies. The dedup window is deliberately absent; a loaded dataset
// resumes collection with a fresh window (see LoadDataset).
func (d *Dataset) snapshotView() *snapshot.Snapshot {
	return &snapshot.Snapshot{Scope: d.Scope, Len3: d.Len3, Long: d.Long, Details: d.Details}
}

// Save writes the dataset to w in the snapshot format (see
// snapshot.Write) using every core. The dedup window is not persisted;
// a loaded dataset resumes collection with a fresh window, which can at
// worst re-ingest a page boundary's worth of duplicates (and they will
// be dropped by the record-level dedup on analysis keys).
func (d *Dataset) Save(w io.Writer) error {
	return d.SaveWorkers(w, 0)
}

// SaveWorkers is Save with an explicit worker count (0 = all cores,
// 1 = serial). The bytes written are identical for every worker count.
func (d *Dataset) SaveWorkers(w io.Writer, workers int) error {
	return d.SaveWorkersObs(w, workers, nil)
}

// SaveWorkersObs is SaveWorkers recording shard counts, byte totals and
// save duration onto reg (nil = uninstrumented).
func (d *Dataset) SaveWorkersObs(w io.Writer, workers int, reg *obs.Registry) error {
	if err := snapshot.WriteObs(w, d.snapshotView(), workers, reg); err != nil {
		return fmt.Errorf("collector: encoding dataset: %w", err)
	}
	return nil
}

// LoadDataset reads a dataset previously written by Save. windowSize
// shapes the fresh dedup window for any subsequent ingestion.
func LoadDataset(r io.Reader, windowSize int) (*Dataset, error) {
	return LoadDatasetWorkers(r, windowSize, 0)
}

// LoadDatasetWorkers is LoadDataset with an explicit worker count for
// the parallel shard decode (0 = all cores, 1 = serial).
func LoadDatasetWorkers(r io.Reader, windowSize, workers int) (*Dataset, error) {
	return LoadDatasetObs(r, windowSize, workers, nil)
}

// LoadDatasetObs is LoadDatasetWorkers recording shard counts, byte
// totals and load duration onto reg (nil = uninstrumented).
func LoadDatasetObs(r io.Reader, windowSize, workers int, reg *obs.Registry) (*Dataset, error) {
	snap, err := snapshot.ReadObs(r, workers, reg)
	if err != nil {
		return nil, fmt.Errorf("collector: decoding dataset: %w", err)
	}
	return datasetFromSnapshot(snap, windowSize), nil
}

// datasetFromSnapshot rebuilds a live dataset around the decoded state.
func datasetFromSnapshot(snap *snapshot.Snapshot, windowSize int) *Dataset {
	d := NewDataset(snap.Clock, windowSize)
	fresh := d.Scope
	d.Scope = snap.Scope
	// A resumed dataset ingests into these, so an empty snapshot's nil
	// ones give way to fresh ones.
	if d.Days == nil {
		d.Days = fresh.Days
	}
	if d.TipsLen1 == nil {
		d.TipsLen1 = fresh.TipsLen1
	}
	if d.TipsLen3 == nil {
		d.TipsLen3 = fresh.TipsLen3
	}
	d.Len3 = snap.Len3
	d.Long = snap.Long
	if snap.Details != nil {
		d.Details = snap.Details
	}
	d.reseed()
	return d
}

// reseed fills the dedup window with the most recent retained records —
// the highest sequence numbers across Len3 and Long, oldest first — so
// resumed polling does not double-count the page straddling the
// checkpoint. Each slice is in ingest order, which tracks chain order,
// so the most recent records sit in their tails; choosing among both
// tails keeps a large Long section from evicting every length-3 id.
func (d *Dataset) reseed() {
	size := len(d.seen.ring)
	tail := func(recs []jito.BundleRecord) []jito.BundleRecord {
		return recs[max(len(recs)-size, 0):]
	}
	recent := slices.Concat(tail(d.Len3), tail(d.Long))
	slices.SortFunc(recent, func(a, b jito.BundleRecord) int { return cmp.Compare(a.Seq, b.Seq) })
	for _, rec := range recent[max(len(recent)-size, 0):] {
		d.seen.add(rec.ID)
	}
}
