package snapshot

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"jitomev/internal/jito"
	"jitomev/internal/solana"
)

// alignedSnapshot builds a snapshot whose records actually reference
// their details — the shape real collections have and the self-contained
// v3 shards exist for. Records spread evenly across [0, days) study
// days; each member transaction carries a detail with probability
// detailFrac, and a handful of orphan details ride along.
func alignedSnapshot(seed int64, nRecords, days int, detailFrac float64) *Snapshot {
	rng := rand.New(rand.NewSource(seed))
	s := testSnapshot(seed, 0, 0)
	for i := 0; i < nRecords; i++ {
		day := i * days / nRecords
		nTx := 3
		long := i%7 == 3
		if long {
			nTx = 4 + rng.Intn(2)
		}
		rec := jito.BundleRecord{
			Seq:      uint64(i),
			Slot:     solana.DayStart(day) + solana.Slot(rng.Intn(int(solana.SlotsPerDay))),
			UnixMs:   rng.Int63(),
			TipLamps: rng.Uint64() >> uint(rng.Intn(40)),
		}
		rng.Read(rec.ID[:])
		for j := 0; j < nTx; j++ {
			sig := randSig(rng)
			rec.TxIDs = append(rec.TxIDs, sig)
			if rng.Float64() < detailFrac {
				det := randDetail(rng, 4)
				det.Sig = sig
				det.Slot = rec.Slot
				s.Details.Put(det)
			}
		}
		if long {
			s.Long = append(s.Long, rec)
		} else {
			s.Len3 = append(s.Len3, rec)
		}
	}
	for i := 0; i < nRecords/10; i++ {
		det := randDetail(rng, 4)
		s.Details.Put(det)
	}
	return s
}

// TestScanRoundTrip rebuilds a snapshot from a full streaming scan and
// checks it matches the original — prelude, records, aligned details and
// orphans alike — while every shard's metadata agrees with its contents.
func TestScanRoundTrip(t *testing.T) {
	s := alignedSnapshot(22, 3*bundleShardSize+17, 11, 0.85)
	clock := s.Clock
	var buf bytes.Buffer
	if err := Write(&buf, s, 0); err != nil {
		t.Fatal(err)
	}

	got := &Snapshot{Details: new(jito.DetailSet)}
	err := Scan(&buf, ScanOptions{Workers: 4}, func(p *Scope) error {
		got.Scope = *p
		return nil
	}, func(sec Section, m ShardMeta, b *Batch, _ any) error {
		if b == nil {
			t.Fatalf("%s: shard pruned with no Prune configured", sec)
		}
		if len(b.Recs) != 0 {
			var byLen [jito.MaxBundleTxs + 1]uint64
			minDay, maxDay := 0, 0
			for i := range b.Recs {
				byLen[len(b.Recs[i].TxIDs)]++
				d := clock.DayOf(b.Recs[i].Slot)
				if i == 0 || d < minDay {
					minDay = d
				}
				if i == 0 || d > maxDay {
					maxDay = d
				}
			}
			if m.Items != len(b.Recs) || m.ByLength != byLen ||
				m.MinDay != minDay || m.MaxDay != maxDay {
				t.Errorf("%s: metadata %+v disagrees with shard contents", sec, m)
			}
		}
		switch sec {
		case SectionLen3:
			got.Len3 = append(got.Len3, b.Recs...)
		case SectionLong:
			got.Long = append(got.Long, b.Recs...)
		}
		for _, det := range b.Details() {
			got.Details.Put(det)
		}
		// Aligned access must agree with the original dataset's
		// all-or-nothing contract (dst content is scratch when a record
		// is incomplete, so only complete records compare content).
		for i := range b.Recs {
			want, wantOK := s.Details.AppendAligned(nil, b.Recs[i].TxIDs)
			dst, ok := b.AppendDetails(nil, i)
			if ok != wantOK {
				t.Fatalf("%s: AppendDetails(%d) completeness %v, set lookup says %v", sec, i, ok, wantOK)
			}
			if ok && !reflect.DeepEqual(dst, want) {
				t.Fatalf("%s: AppendDetails(%d) diverges from set lookup", sec, i)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	snapshotsEqual(t, s, got)
}

// TestScanPruneDays exercises day-range pushdown: pruned shards must be
// delivered batchless, surviving shards must cover every record in the
// range, and the skip path must actually skip (no decode of pruned
// frames).
func TestScanPruneDays(t *testing.T) {
	const days = 12
	s := alignedSnapshot(23, 4*bundleShardSize, days, 0.8)
	var buf bytes.Buffer
	if err := Write(&buf, s, 0); err != nil {
		t.Fatal(err)
	}
	lo, hi := 4, 7
	clock := s.Clock

	pruned, scanned := 0, 0
	var kept []jito.BundleRecord
	err := Scan(&buf, ScanOptions{Workers: 3, Prune: func(sec Section, m ShardMeta) bool {
		return m.MaxDay < lo || m.MinDay > hi
	}}, nil, func(sec Section, m ShardMeta, b *Batch, _ any) error {
		if b == nil {
			pruned++
			if m.MaxDay >= lo && m.MinDay <= hi {
				t.Errorf("%s: in-range shard [%d,%d] was pruned", sec, m.MinDay, m.MaxDay)
			}
			return nil
		}
		scanned++
		if sec == SectionLen3 {
			kept = append(kept, b.Recs...)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if pruned == 0 {
		t.Fatalf("day range [%d,%d] over %d days pruned no shards (scanned %d)", lo, hi, days, scanned)
	}

	want := 0
	for i := range s.Len3 {
		if d := clock.DayOf(s.Len3[i].Slot); d >= lo && d <= hi {
			want++
		}
	}
	got := 0
	for i := range kept {
		if d := clock.DayOf(kept[i].Slot); d >= lo && d <= hi {
			got++
		}
	}
	if got != want {
		t.Errorf("surviving shards carry %d in-range len3 records, want %d", got, want)
	}
}

// TestScanRecordsOnly checks the records-only fast path leaves details
// unparsed but records intact.
func TestScanRecordsOnly(t *testing.T) {
	s := alignedSnapshot(24, bundleShardSize+100, 5, 0.9)
	var buf bytes.Buffer
	if err := Write(&buf, s, 0); err != nil {
		t.Fatal(err)
	}
	var recs int
	err := Scan(&buf, ScanOptions{
		Workers:     2,
		RecordsOnly: func(Section) bool { return true },
		// Orphan shards hold only details; prune them outright.
		Prune: func(sec Section, _ ShardMeta) bool { return sec == SectionOrphans },
	}, nil, func(sec Section, m ShardMeta, b *Batch, _ any) error {
		if b == nil {
			return nil
		}
		if b.HasDetails() {
			t.Errorf("%s: details decoded under RecordsOnly", sec)
		}
		if len(b.Details()) != 0 {
			t.Errorf("%s: %d details under RecordsOnly", sec, len(b.Details()))
		}
		recs += len(b.Recs)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := len(s.Len3) + len(s.Long); recs != want {
		t.Errorf("scanned %d records, want %d", recs, want)
	}
}

// TestScanIdenticalAcrossWorkers pins scan determinism: the fold
// sequence (sections, metadata, batch contents) must be identical at
// every worker count.
func TestScanIdenticalAcrossWorkers(t *testing.T) {
	s := alignedSnapshot(25, 2*bundleShardSize+321, 8, 0.7)
	var buf bytes.Buffer
	if err := Write(&buf, s, 0); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	type foldRec struct {
		Sec   Section
		Meta  ShardMeta
		Seqs  []uint64
		NDets int
	}
	trace := func(workers int) []foldRec {
		var out []foldRec
		err := Scan(bytes.NewReader(data), ScanOptions{Workers: workers}, nil,
			func(sec Section, m ShardMeta, b *Batch, _ any) error {
				fr := foldRec{Sec: sec, Meta: m, NDets: len(b.Details())}
				for i := range b.Recs {
					fr.Seqs = append(fr.Seqs, b.Recs[i].Seq)
				}
				out = append(out, fr)
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}

	base := trace(1)
	for _, w := range []int{4, 8} {
		if got := trace(w); !reflect.DeepEqual(base, got) {
			t.Errorf("fold sequence at workers=%d diverges from serial", w)
		}
	}
}

// TestScanRejectsOlderContainers: the streaming scan reads only the
// current container; a v2 magic in front of an otherwise valid body
// and a v1 gzip head are both ErrCorrupt before any section is seen.
func TestScanRejectsOlderContainers(t *testing.T) {
	s := testSnapshot(26, 100, 50)
	var buf bytes.Buffer
	if err := Write(&buf, s, 1); err != nil {
		t.Fatal(err)
	}
	v2 := append([]byte("jitosnp2"), buf.Bytes()[len(MagicV3):]...)
	v1 := []byte{0x1f, 0x8b, 0x08, 0, 0, 0, 0, 0, 0, 0xff}
	for name, data := range map[string][]byte{"v2": v2, "v1": v1} {
		err := Scan(bytes.NewReader(data), ScanOptions{}, nil, func(Section, ShardMeta, *Batch, any) error {
			t.Errorf("%s: scan delivered a section", name)
			return nil
		})
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s container: err = %v, want ErrCorrupt", name, err)
		}
	}
}

// TestScanAllShardsPrunedSkipsMap: when the planner prunes every shard
// (a day filter entirely outside the snapshot), Map must never run —
// the scan is pure frame-skipping — while the fold still sees every
// shard's metadata with a nil batch and a nil mapped value.
func TestScanAllShardsPrunedSkipsMap(t *testing.T) {
	s := alignedSnapshot(27, 2*bundleShardSize+55, 6, 0.8)
	var buf bytes.Buffer
	if err := Write(&buf, s, 0); err != nil {
		t.Fatal(err)
	}

	mapCalls := 0
	folds := 0
	err := Scan(&buf, ScanOptions{
		Workers: 4,
		Prune:   func(sec Section, m ShardMeta) bool { return sec != SectionOrphans },
		Map: func(sec Section, m ShardMeta, b *Batch) (any, error) {
			if sec != SectionOrphans {
				mapCalls++
			}
			return nil, nil
		},
	}, nil, func(sec Section, m ShardMeta, b *Batch, mapped any) error {
		if sec == SectionOrphans {
			return nil
		}
		folds++
		if b != nil {
			t.Errorf("%s: pruned shard delivered a batch", sec)
		}
		if mapped != nil {
			t.Errorf("%s: pruned shard delivered a mapped value", sec)
		}
		if m.Items == 0 {
			t.Errorf("%s: pruned shard lost its metadata", sec)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if mapCalls != 0 {
		t.Errorf("Map ran %d times on a fully pruned scan", mapCalls)
	}
	if folds == 0 {
		t.Error("fully pruned scan delivered no shard metadata at all")
	}
}
