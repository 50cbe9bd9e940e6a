package snapshot

import (
	"bytes"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"jitomev/internal/jito"
	"jitomev/internal/solana"
)

// recycleSnapshot lays out the shapes a reused decode arena could leak
// into: a first len-3 shard full of multi-transaction records whose
// details all carry token deltas, then a shard of 0-TxID records and
// records whose details carry no deltas (some missing outright), and a
// long section of the same mix.
func recycleSnapshot(seed int64) *Snapshot {
	rng := rand.New(rand.NewSource(seed))
	s := testSnapshot(seed, 0, 0)
	add := func(dst *[]jito.BundleRecord, nTx int, withDeltas bool, detailFrac float64) {
		rec := jito.BundleRecord{
			Seq:      uint64(len(s.Len3) + len(s.Long)),
			Slot:     solana.Slot(rng.Intn(int(solana.SlotsPerDay))),
			UnixMs:   rng.Int63(),
			TipLamps: rng.Uint64() >> 20,
		}
		rng.Read(rec.ID[:])
		for j := 0; j < nTx; j++ {
			sig := randSig(rng)
			rec.TxIDs = append(rec.TxIDs, sig)
			if rng.Float64() >= detailFrac {
				continue
			}
			det := randDetail(rng, 0)
			det.Sig, det.Slot = sig, rec.Slot
			for k := 1 + rng.Intn(4); withDeltas && k > 0; k-- {
				det.TokenDeltas = append(det.TokenDeltas, jito.TokenDelta{
					Owner: randPubkey(rng, 40), Mint: randPubkey(rng, 8), Delta: rng.Int63() - rng.Int63(),
				})
			}
			s.Details.Put(det)
		}
		*dst = append(*dst, rec)
	}
	for i := 0; i < bundleShardSize; i++ {
		add(&s.Len3, 3+rng.Intn(3), true, 1)
	}
	for i := 0; i < bundleShardSize/2; i++ {
		if i%2 == 0 {
			add(&s.Len3, 0, false, 1)
		} else {
			add(&s.Len3, 3, false, 0.8)
		}
	}
	for i := 0; i < 300; i++ {
		add(&s.Long, (i%2)*5, i%3 == 0, 0.9)
	}
	for i := 0; i < 50; i++ {
		det := randDetail(rng, i%2)
		s.Details.Put(det)
	}
	return s
}

// shardCopy is a deep copy of one scanned bundle batch.
type shardCopy struct {
	Sec     Section
	Recs    []jito.BundleRecord
	Aligned [][]jito.TxDetail // per record; nil when its details are incomplete
}

// copyBatch deep-copies b, so the copy survives the batch's memory being
// reused.
func copyBatch(sec Section, b *Batch) shardCopy {
	c := shardCopy{Sec: sec, Recs: slices.Clone(b.Recs)}
	for i := range c.Recs {
		c.Recs[i].TxIDs = slices.Clone(c.Recs[i].TxIDs)
		dets, ok := b.AppendDetails(nil, i)
		if !ok {
			c.Aligned = append(c.Aligned, nil)
			continue
		}
		for j := range dets {
			dets[j].TokenDeltas = slices.Clone(dets[j].TokenDeltas)
		}
		c.Aligned = append(c.Aligned, dets)
	}
	return c
}

// expectedShards splits a decoded snapshot's bundle sections into the
// batches a scan must deliver.
func expectedShards(s *Snapshot) []shardCopy {
	var out []shardCopy
	for _, sec := range []struct {
		sec  Section
		recs []jito.BundleRecord
	}{{SectionLen3, s.Len3}, {SectionLong, s.Long}} {
		for lo := 0; lo < len(sec.recs); lo += bundleShardSize {
			c := shardCopy{Sec: sec.sec, Recs: sec.recs[lo:min(lo+bundleShardSize, len(sec.recs))]}
			for i := range c.Recs {
				dets, ok := s.Details.AppendAligned(nil, c.Recs[i].TxIDs)
				if !ok {
					dets = nil
				}
				c.Aligned = append(c.Aligned, dets)
			}
			out = append(out, c)
		}
	}
	return out
}

// scanMapped scans data with Map deep-copying every bundle batch.
func scanMapped(t *testing.T, data []byte, workers int) []shardCopy {
	t.Helper()
	var out []shardCopy
	err := Scan(bytes.NewReader(data), ScanOptions{
		Workers: workers,
		Map: func(sec Section, _ ShardMeta, b *Batch) (any, error) {
			if sec == SectionOrphans {
				return nil, nil
			}
			return copyBatch(sec, b), nil
		},
	}, nil, func(sec Section, _ ShardMeta, _ *Batch, mapped any) error {
		if sec != SectionOrphans {
			out = append(out, mapped.(shardCopy))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRecycledDecodeMatchesFresh: scans that reuse pooled decode memory
// must deliver exactly what was written, and a loaded snapshot must
// never share memory with later scans. The reference is the written
// snapshot s itself, which no decode has touched.
func TestRecycledDecodeMatchesFresh(t *testing.T) {
	s := recycleSnapshot(61)
	other := alignedSnapshot(62, 2*bundleShardSize+99, 5, 0.9)
	encode := func(s *Snapshot) []byte {
		var buf bytes.Buffer
		if err := Write(&buf, s, 0); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	data, otherData := encode(s), encode(other)
	want := expectedShards(s)

	// Fill the pool with arenas that held other data, then load.
	scanMapped(t, otherData, 4)
	loaded, err := Read(bytes.NewReader(data), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		for pass := 0; pass < 2; pass++ {
			if got := scanMapped(t, data, workers); !reflect.DeepEqual(got, want) {
				t.Fatalf("workers=%d pass %d: Map scan diverges from the written snapshot", workers, pass)
			}
		}
		got, err := Read(bytes.NewReader(data), workers)
		if err != nil {
			t.Fatal(err)
		}
		assertSameRecords(t, s, got)
		scanMapped(t, otherData, workers)
		if _, err := Read(bytes.NewReader(otherData), workers); err != nil {
			t.Fatal(err)
		}
	}
	// The first load outlived every scan and load above.
	assertSameRecords(t, s, loaded)
}

// assertSameRecords compares records and details strictly: a nil TxIDs
// or TokenDeltas slice must stay nil.
func assertSameRecords(t *testing.T, want, got *Snapshot) {
	t.Helper()
	if !reflect.DeepEqual(want.Len3, got.Len3) || !reflect.DeepEqual(want.Long, got.Long) {
		t.Fatal("records diverge from the written snapshot")
	}
	if !sameDetails(want.Details, got.Details) {
		t.Fatal("details diverge from the written snapshot")
	}
}

// sameDetails reports whether two sets hold the same signatures with
// reflect.DeepEqual details, whatever their insertion orders.
func sameDetails(want, got *jito.DetailSet) bool {
	if want.Len() != got.Len() {
		return false
	}
	for i := 0; i < want.Len(); i++ {
		w := want.At(i)
		p := got.Index(w.Sig)
		if p < 0 || !reflect.DeepEqual(*w, *got.At(p)) {
			return false
		}
	}
	return true
}

// raceEnabled is set under the race detector (race_test.go).
var raceEnabled bool

// TestWarmScanAllocsPerShard pins the recycling: once the pools are warm,
// a Map scan allocates a fixed amount per shard, not per record.
func TestWarmScanAllocsPerShard(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	// One P from the warm-up on: an item a sync.Pool holds privately for
	// another P cannot be reached from this one, so warming on two Ps and
	// measuring on one could count buffers the warm-up already made.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	s := alignedSnapshot(63, 3*bundleShardSize+17, 7, 0.9)
	var buf bytes.Buffer
	if err := Write(&buf, s, 0); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	frames := 4 // meta, days and the two histograms are decoded per scan too
	scan := func() {
		err := Scan(bytes.NewReader(data), ScanOptions{
			Workers: 1,
			Map:     func(Section, ShardMeta, *Batch) (any, error) { return nil, nil },
		}, nil, func(Section, ShardMeta, *Batch, any) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
	}
	err := Scan(bytes.NewReader(data), ScanOptions{}, nil, func(Section, ShardMeta, *Batch, any) error {
		frames++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	scan()

	// Goroutines an earlier test left stopping may still allocate: wait
	// until their count stops falling before reading MemStats.
	settled := runtime.NumGoroutine()
	for deadline := time.Now().Add(100 * time.Millisecond); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		settled = min(settled, runtime.NumGoroutine())
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > settled && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}

	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		scan()
	}
	runtime.ReadMemStats(&after)
	objects := (after.Mallocs - before.Mallocs) / runs
	bytesPer := (after.TotalAlloc - before.TotalAlloc) / runs

	// What remains per frame is mostly compress/flate building Huffman
	// tables for each deflate block (~60 objects, ~90 KiB here), plus the
	// scan's 1 MiB read buffer. Decoding a shard's 4096 records into
	// fresh memory costs ≥ 4096 objects or ~2 KiB per record.
	const perFrameObjects, perFrameBytes, readBuf = 128, 256 << 10, 1 << 20
	records := len(s.Len3) + len(s.Long)
	if objects > uint64(perFrameObjects*frames) {
		t.Errorf("warm scan of %d frames (%d records): %d allocs, want ≤ %d",
			frames, records, objects, perFrameObjects*frames)
	}
	if bytesPer > uint64(readBuf+perFrameBytes*frames) {
		t.Errorf("warm scan of %d frames (%d records): %d bytes allocated, want ≤ %d",
			frames, records, bytesPer, readBuf+perFrameBytes*frames)
	}
}
