package snapshot

import (
	"bytes"
	"errors"
	"reflect"
	"slices"
	"testing"

	"jitomev/internal/jito"
	"jitomev/internal/solana"
)

// fuzzSeed encodes s.
func fuzzSeed(tb testing.TB, s *Snapshot) []byte {
	var buf bytes.Buffer
	if err := Write(&buf, s, 1); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// scanCopies scans data and deep-copies every batch it delivers, through
// Map when mapped is set and in the fold otherwise.
func scanCopies(data []byte, workers int, mapped bool) ([]shardCopy, error) {
	copyAny := func(sec Section, b *Batch) shardCopy {
		if sec == SectionOrphans {
			dets := slices.Clone(b.Details())
			for i := range dets {
				dets[i].TokenDeltas = slices.Clone(dets[i].TokenDeltas)
			}
			return shardCopy{Sec: sec, Aligned: [][]jito.TxDetail{dets}}
		}
		return copyBatch(sec, b)
	}
	opts := ScanOptions{Workers: workers}
	if mapped {
		opts.Map = func(sec Section, _ ShardMeta, b *Batch) (any, error) { return copyAny(sec, b), nil }
	}
	var out []shardCopy
	err := Scan(bytes.NewReader(data), opts, nil, func(sec Section, _ ShardMeta, b *Batch, m any) error {
		if mapped {
			out = append(out, m.(shardCopy))
		} else {
			out = append(out, copyAny(sec, b))
		}
		return nil
	})
	return out, err
}

// FuzzScan drives the reader over arbitrary bytes: Scan with and
// without Map, and Read. No input may panic, every rejection is
// ErrCorrupt, and an accepted input scans to identical batches twice in
// a row — the second time on recycled decode memory — and loads to the
// detail set its batches' details make in scan order. The corpus is a
// small snapshot with aligned details and token deltas (two len-3
// shards, a long shard and an orphan shard) and its truncations, an
// empty snapshot (every section present with zero shards), a file
// with one signature in a bundle shard and again in the orphan shard,
// and an empty snapshot cut off after a len3 header claiming 2^24
// shards.
func FuzzScan(f *testing.F) {
	good := fuzzSeed(f, alignedSnapshot(71, bundleShardSize+40, 3, 0.8))
	f.Add(good)
	for _, n := range []int{0, 4, len(MagicV3), len(MagicV3) + 1, 64, 512, len(good) / 3, len(good) / 2, len(good) - 9, len(good) - 1} {
		f.Add(good[:n])
	}
	f.Add(fuzzSeed(f, &Snapshot{Genesis: 42}))
	dup, _, _ := dupSigFile(f)
	f.Add(dup)
	f.Add(hostileShardCount(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		isCorrupt := func(what string, err error) bool {
			if err != nil && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s: error not wrapping ErrCorrupt: %v", what, err)
			}
			return err != nil
		}
		owned, err := scanCopies(data, 1, false)
		rejected := isCorrupt("scan", err)
		first, err := scanCopies(data, 2, true)
		if isCorrupt("mapped scan", err) != rejected {
			t.Fatalf("Map changed the verdict: %v", err)
		}
		second, err := scanCopies(data, 2, true)
		if isCorrupt("second mapped scan", err) != rejected {
			t.Fatalf("second scan changed the verdict: %v", err)
		}
		if !rejected {
			if !reflect.DeepEqual(owned, first) {
				t.Fatal("Map scan diverges from the owned-batch scan")
			}
			if !reflect.DeepEqual(first, second) {
				t.Fatal("scan on recycled memory diverges from the first")
			}
		}
		loaded, err := Read(bytes.NewReader(data), 2)
		if isCorrupt("read", err) != rejected {
			t.Fatalf("Read and Scan disagree: %v", err)
		}
		if !rejected {
			checkLoadedDetails(t, data, loaded.Details)
		}
	})
}

// checkLoadedDetails asserts that a loaded detail set equals a map built
// from every batch's Details() in scan order, the last write winning,
// and that the set's positions follow first appearance in that order.
func checkLoadedDetails(t *testing.T, data []byte, set *jito.DetailSet) {
	t.Helper()
	ref := make(map[solana.Signature]jito.TxDetail)
	var order []solana.Signature
	err := Scan(bytes.NewReader(data), ScanOptions{Workers: 1}, nil, func(_ Section, _ ShardMeta, b *Batch, _ any) error {
		for _, d := range b.Details() {
			d.TokenDeltas = slices.Clone(d.TokenDeltas)
			if _, ok := ref[d.Sig]; !ok {
				order = append(order, d.Sig)
			}
			ref[d.Sig] = d
		}
		return nil
	})
	if err != nil {
		t.Fatalf("reference scan: %v", err)
	}
	if set.Len() != len(ref) {
		t.Fatalf("loaded %d details, scan order holds %d", set.Len(), len(ref))
	}
	for p, sig := range order {
		if d := set.At(p); d.Sig != sig || !reflect.DeepEqual(*d, ref[sig]) {
			t.Fatalf("position %d: loaded %+v, want %+v", p, *d, ref[sig])
		}
	}
}
