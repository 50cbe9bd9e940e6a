package snapshot

import (
	"bufio"
	"bytes"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"jitomev/internal/jito"
	"jitomev/internal/parallel"
	"jitomev/internal/solana"
)

// hostileShardCount is an empty snapshot whose len3 section header is
// rewritten to claim 2^24 shards and 2^24 items, then cut off: 71 bytes
// that promise a section no honest writer could fit in them.
func hostileShardCount(tb testing.TB) []byte {
	tb.Helper()
	empty := fuzzSeed(tb, &Snapshot{Scope: genesisAt(42)})
	// An empty file ends with the len3, long and orphans headers (id,
	// zero shards, zero items) and the terminator.
	at := len(empty) - 10
	if empty[at] != secBundles3 {
		tb.Fatalf("byte %d is %#x, want the len3 section id", at, empty[at])
	}
	head := empty[:at]
	head = append(head, secBundles3)
	head = appendUvarint(head, 1<<24)
	return appendUvarint(head, 1<<24)
}

// manyShardFile writes n length-3 records, two per shard, with every
// member's detail present: more shards than any pool window here.
func manyShardFile(tb testing.TB, n int) []byte {
	tb.Helper()
	s := testSnapshot(17, 0, 0)
	for i := 0; i < n; i++ {
		rec := jito.BundleRecord{Seq: uint64(i), Slot: solana.Slot(100 + i)}
		for j := 0; j < 3; j++ {
			sig := solana.Signature{byte(i), byte(i >> 8), byte(j), 1}
			rec.TxIDs = append(rec.TxIDs, sig)
			s.Details.Put(jito.TxDetail{Sig: sig, Slot: rec.Slot})
		}
		s.Len3 = append(s.Len3, rec)
	}
	var buf bytes.Buffer
	bw := &writer{w: bufio.NewWriter(&buf), m: &snapObs{}}
	bw.bytes([]byte(MagicV3))
	bw.headerSections(s)
	bw.sectionV3(secBundles3, n, 2, 1, true, func(lo, hi int) ([]byte, ShardMeta, error) {
		return encodeBundleShard(s.Len3[lo:hi], s.Details, s.Clock)
	})
	bw.sectionV3(secBundlesLong, 0, 1, 1, true, nil)
	bw.sectionV3(secOrphans, 0, 1, 1, true, nil)
	bw.byte1(secEnd)
	if bw.err == nil {
		bw.err = bw.w.Flush()
	}
	if bw.err != nil {
		tb.Fatal(bw.err)
	}
	return buf.Bytes()
}

// expectGoroutines waits for the goroutine count to settle back to want:
// a pool's goroutines may still be returning when Close does.
func expectGoroutines(t *testing.T, what string, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got != want {
		t.Errorf("%s: %d goroutines left running, started with %d", what, got, want)
	}
}

// TestHostileShardCountStaysCheap: a header's shard count is only a
// claim, so the reader must not spend memory on it before the frames
// behind it are read.
func TestHostileShardCountStaysCheap(t *testing.T) {
	data := hostileShardCount(t)
	if len(data) != 71 {
		t.Fatalf("hostile file is %d bytes, want 71", len(data))
	}
	start := runtime.NumGoroutine()
	for _, tc := range []struct {
		name string
		run  func() error
	}{
		{"Scan", func() error {
			return Scan(bytes.NewReader(data), ScanOptions{Workers: 4}, nil,
				func(Section, ShardMeta, *Batch, any) error { return nil })
		}},
		{"Read", func() error {
			_, err := Read(bytes.NewReader(data), 4)
			return err
		}},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := tc.run()
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", tc.name, err)
		}
		if d := after.TotalAlloc - before.TotalAlloc; d >= 8<<20 {
			t.Errorf("%s: allocated %.1f MiB on a 71-byte file, want < 8", tc.name, float64(d)/(1<<20))
		}
		expectGoroutines(t, tc.name, start)
	}
}

// TestHostileItemClaimCapsDetailIndex: once a section's first shard has
// decoded, a full load sizes its detail index from the header's item
// claim, so a claim of 2^38 orphan details behind a single real one
// must reserve no more than maxReserve entries before the missing
// shards fail the read.
func TestHostileItemClaimCapsDetailIndex(t *testing.T) {
	empty := fuzzSeed(t, &Snapshot{Scope: genesisAt(42)})
	one := &Snapshot{Scope: genesisAt(42), Details: new(jito.DetailSet)}
	one.Details.Put(jito.TxDetail{Sig: solana.Signature{1}, Slot: 5})
	honest := fuzzSeed(t, one)
	// Both files end with the orphans header, one shard claiming one
	// item in the honest file, then its frame and the terminator.
	at := len(empty) - 4
	if !bytes.Equal(honest[:at], empty[:at]) || !bytes.Equal(honest[at:at+3], []byte{secOrphans, 1, 1}) {
		t.Fatalf("orphans header not at byte %d", at)
	}
	data := append([]byte{}, honest[:at+2]...)
	data = appendUvarint(data, 1<<38)
	data = append(data, honest[at+3:]...)

	allocated := func(fn func()) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	capped := allocated(func() { runtime.KeepAlive(make(map[uint64]int32, maxReserve)) })
	var err error
	got := allocated(func() { _, err = Read(bytes.NewReader(data), 1) })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	if got > capped+4<<20 {
		t.Errorf("allocated %.1f MiB, want at most %.1f MiB: an index of maxReserve entries and the read",
			float64(got)/(1<<20), float64(capped+4<<20)/(1<<20))
	}
}

// TestScanStopsAfterError: once a fold or Map fails, no further frame is
// read or mapped beyond those already in the pool's window, and Scan
// returns that error.
func TestScanStopsAfterError(t *testing.T) {
	const shards = 24
	data := manyShardFile(t, 2*shards)
	boom := errors.New("boom")
	start := runtime.NumGoroutine()
	for _, workers := range []int{1, 4} {
		window := parallel.NewOrdered(workers, func(int) int { return 0 }, func(int) {}).Window()
		if window >= shards {
			t.Fatalf("window %d covers all %d shards", window, shards)
		}
		for _, failIn := range []string{"fold", "Map"} {
			var maps atomic.Int64
			folds := 0
			// The failing Map is shard 0's (records 0 and 1), whichever
			// worker reaches it first, so no shard can fold before it.
			opts := ScanOptions{Workers: workers, Map: func(_ Section, _ ShardMeta, b *Batch) (any, error) {
				maps.Add(1)
				if failIn == "Map" && len(b.Recs) > 0 && b.Recs[0].Seq == 0 {
					return nil, boom
				}
				return nil, nil
			}}
			err := Scan(bytes.NewReader(data), opts, nil, func(Section, ShardMeta, *Batch, any) error {
				folds++
				if failIn == "fold" {
					return boom
				}
				return nil
			})
			if err != boom {
				t.Errorf("workers=%d %s error: Scan returned %v, want %v", workers, failIn, err, boom)
			}
			if want := map[string]int{"fold": 1, "Map": 0}[failIn]; folds != want {
				t.Errorf("workers=%d %s error: %d folds, want %d", workers, failIn, folds, want)
			}
			if n := int(maps.Load()); n < 1 || n > window {
				t.Errorf("workers=%d %s error: %d Map calls over %d shards, want 1..%d", workers, failIn, n, shards, window)
			}
			if workers == 1 && maps.Load() != 1 {
				t.Errorf("serial %s error: %d Map calls, want 1", failIn, maps.Load())
			}
			expectGoroutines(t, failIn+" error", start)
		}
	}

	// A clean scan of the same file maps every shard and leaks nothing.
	var maps atomic.Int64
	err := Scan(bytes.NewReader(data), ScanOptions{Workers: 4, Map: func(Section, ShardMeta, *Batch) (any, error) {
		maps.Add(1)
		return nil, nil
	}}, nil, func(Section, ShardMeta, *Batch, any) error { return nil })
	if err != nil || maps.Load() != shards {
		t.Errorf("clean scan: err %v, %d Map calls, want nil and %d", err, maps.Load(), shards)
	}
	expectGoroutines(t, "clean scan", start)
}
