package collector

import (
	"bufio"
	"compress/gzip"
	"encoding/gob"
	"fmt"
	"io"
	"time"

	"jitomev/internal/jito"
	"jitomev/internal/obs"
	"jitomev/internal/snapshot"
	"jitomev/internal/solana"
	"jitomev/internal/stats"
)

// unixNano converts a persisted genesis timestamp back to time.Time.
func unixNano(ns int64) time.Time { return time.Unix(0, ns).UTC() }

// Dataset persistence: a four-month collection is too valuable to re-run
// (the paper's actual dataset took four months of wall time to gather),
// so the collector can checkpoint what it has and analysis tools can load
// it without regenerating. Save writes the sharded columnar v3 format
// (package snapshot): parallel encode/decode, byte-identical output at
// every worker count, self-contained shards carrying pushdown metadata
// for the out-of-core query engine. LoadDataset sniffs the version and
// retains the v2 and v1 (single-stream gzip+gob) formats read-only, so
// every checkpoint ever written stays loadable.

// v1SnapshotVersion guards the legacy gob layout.
const v1SnapshotVersion = 1

// datasetSnapshotV1 is the v1 persisted form of a Dataset, kept for
// decoding old checkpoints (and for benchmarking v2 against v1).
type datasetSnapshotV1 struct {
	Version  int
	Genesis  int64 // UnixNano of the chain clock genesis
	Days     map[int]*DayAgg
	TipsLen1 *stats.LogHistogram
	TipsLen3 *stats.LogHistogram
	Len3     []jito.BundleRecord
	Long     []jito.BundleRecord
	Details  map[solana.Signature]jito.TxDetail

	Collected  uint64
	Duplicates uint64
}

// snapshotView is the persistence view of d: shared slices and maps, no
// copies. The dedup window is deliberately absent; a loaded dataset
// resumes collection with a fresh window (see LoadDataset).
func (d *Dataset) snapshotView() *snapshot.Snapshot {
	return &snapshot.Snapshot{
		Genesis:    d.Clock.Genesis.UnixNano(),
		Days:       d.Days,
		TipsLen1:   d.TipsLen1,
		TipsLen3:   d.TipsLen3,
		Len3:       d.Len3,
		Long:       d.Long,
		Details:    d.Details,
		Collected:  d.Collected,
		Duplicates: d.Duplicates,
	}
}

// Save writes the dataset to w in the v3 snapshot format (see
// snapshot.Write) using every core. The dedup window is not persisted; a loaded dataset resumes
// collection with a fresh window, which can at worst re-ingest a page
// boundary's worth of duplicates (and they will be dropped by the
// record-level dedup on analysis keys).
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

// saveV1 writes the legacy gzip+gob format. Unexported: kept only so
// tests and benchmarks can produce v1 inputs (the golden fixture,
// v1→v2 equivalence, and the before/after benchmark baseline).
func (d *Dataset) saveV1(w io.Writer) error {
	zw := gzip.NewWriter(w)
	snap := datasetSnapshotV1{
		Version:    v1SnapshotVersion,
		Genesis:    d.Clock.Genesis.UnixNano(),
		Days:       d.Days,
		TipsLen1:   d.TipsLen1,
		TipsLen3:   d.TipsLen3,
		Len3:       d.Len3,
		Long:       d.Long,
		Details:    d.Details,
		Collected:  d.Collected,
		Duplicates: d.Duplicates,
	}
	if err := gob.NewEncoder(zw).Encode(&snap); err != nil {
		zw.Close()
		return fmt.Errorf("collector: encoding dataset: %w", err)
	}
	if err := zw.Close(); err != nil {
		return fmt.Errorf("collector: flushing dataset: %w", err)
	}
	return nil
}

// SniffVersion inspects a snapshot stream's leading bytes without
// consuming them and reports the container version: 1 (legacy gzip+gob),
// 2 ("jitosnp2") or 3 ("jitosnp3"). Anything else — a truncated header,
// a foreign file, damaged magic — is a descriptive error, so callers can
// refuse a bad checkpoint before any decoder touches it.
func SniffVersion(br *bufio.Reader) (int, error) {
	head, err := br.Peek(len(snapshot.Magic))
	if err != nil && len(head) < 2 {
		return 0, fmt.Errorf("truncated header: %d bytes, need at least 2", len(head))
	}
	if head[0] == 0x1f && head[1] == 0x8b {
		return 1, nil
	}
	if len(head) < len(snapshot.Magic) {
		return 0, fmt.Errorf("truncated header: %d bytes, need %d", len(head), len(snapshot.Magic))
	}
	switch string(head) {
	case snapshot.Magic:
		return 2, nil
	case snapshot.MagicV3:
		return 3, nil
	}
	return 0, fmt.Errorf("unrecognized header %q — not a dataset snapshot", head)
}

// LoadCheckpoint is the resume loader: it accepts only the current (v3)
// checkpoint format and refuses everything else with a clear, versioned
// error instead of handing a stale archive to a decoder. Resuming
// rewrites the file in place as v3, so pointing -resume at a v1/v2
// archive would silently convert it; a truncated checkpoint means the
// previous run's atomic-save discipline was bypassed. Both deserve a
// loud stop, not a best-effort decode.
func LoadCheckpoint(r io.Reader, windowSize, workers int, reg *obs.Registry) (*Dataset, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	v, err := SniffVersion(br)
	if err != nil {
		return nil, fmt.Errorf("collector: checkpoint: %w", err)
	}
	if v != 3 {
		return nil, fmt.Errorf("collector: checkpoint is a v%d snapshot; resume requires the current v3 format "+
			"(load the archive with `report -load` or start a fresh collection — resuming would rewrite it)", v)
	}
	snap, err := snapshot.ReadObs(br, workers, reg)
	if err != nil {
		return nil, fmt.Errorf("collector: decoding checkpoint: %w", err)
	}
	return datasetFromSnapshot(snap, windowSize), nil
}

// LoadDataset reads a dataset previously written by Save — either
// format; the version is sniffed from the leading bytes. windowSize
// shapes the fresh dedup window for any subsequent ingestion.
func LoadDataset(r io.Reader, windowSize int) (*Dataset, error) {
	return LoadDatasetWorkers(r, windowSize, 0)
}

// LoadDatasetWorkers is LoadDataset with an explicit worker count for
// the parallel shard decode of v2 and v3 snapshots (0 = all cores,
// 1 = serial).
func LoadDatasetWorkers(r io.Reader, windowSize, workers int) (*Dataset, error) {
	return LoadDatasetObs(r, windowSize, workers, nil)
}

// LoadDatasetObs is LoadDatasetWorkers recording shard counts, byte
// totals and load duration onto reg (nil = uninstrumented).
func LoadDatasetObs(r io.Reader, windowSize, workers int, reg *obs.Registry) (*Dataset, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	v, err := SniffVersion(br)
	if err != nil {
		return nil, fmt.Errorf("collector: opening dataset: %w", err)
	}
	var snap *snapshot.Snapshot
	if v == 1 { // gzip magic: the legacy v1 stream
		snap, err = loadV1(br)
	} else {
		snap, err = snapshot.ReadObs(br, workers, reg)
	}
	if err != nil {
		return nil, fmt.Errorf("collector: decoding dataset: %w", err)
	}
	return datasetFromSnapshot(snap, windowSize), nil
}

// loadV1 decodes the legacy single-stream gzip+gob format.
func loadV1(r io.Reader) (*snapshot.Snapshot, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, err
	}
	defer zr.Close()
	var snap datasetSnapshotV1
	if err := gob.NewDecoder(zr).Decode(&snap); err != nil {
		return nil, err
	}
	if snap.Version != v1SnapshotVersion {
		return nil, fmt.Errorf("dataset version %d, want %d", snap.Version, v1SnapshotVersion)
	}
	return &snapshot.Snapshot{
		Genesis:    snap.Genesis,
		Days:       snap.Days,
		TipsLen1:   snap.TipsLen1,
		TipsLen3:   snap.TipsLen3,
		Len3:       snap.Len3,
		Long:       snap.Long,
		Details:    snap.Details,
		Collected:  snap.Collected,
		Duplicates: snap.Duplicates,
	}, nil
}

// datasetFromSnapshot rebuilds a live dataset around the decoded state.
func datasetFromSnapshot(snap *snapshot.Snapshot, windowSize int) *Dataset {
	d := NewDataset(solana.Clock{Genesis: unixNano(snap.Genesis)}, windowSize)
	if snap.Days != nil {
		d.Days = snap.Days
	}
	if snap.TipsLen1 != nil {
		d.TipsLen1 = snap.TipsLen1
	}
	if snap.TipsLen3 != nil {
		d.TipsLen3 = snap.TipsLen3
	}
	d.Len3 = snap.Len3
	d.Long = snap.Long
	if snap.Details != nil {
		d.Details = snap.Details
	}
	d.Collected = snap.Collected
	d.Duplicates = snap.Duplicates

	// Re-seed the dedup window with the most recent records so resumed
	// polling does not double-count the page straddling the checkpoint.
	reseed := func(recs []jito.BundleRecord) {
		start := len(recs) - windowSize
		if start < 0 {
			start = 0
		}
		for _, rec := range recs[start:] {
			d.seen.add(rec.ID)
		}
	}
	reseed(d.Len3)
	reseed(d.Long)
	return d
}
