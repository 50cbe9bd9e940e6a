package collector

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"jitomev/internal/jito"

	"jitomev/internal/core"
	"jitomev/internal/explorer"
	"jitomev/internal/snapshot"
	"jitomev/internal/solana"
	"jitomev/internal/workload"
)

func collectedDataset(t *testing.T) *Collector {
	t.Helper()
	st := workload.New(workload.Params{Seed: 6, Days: 3, Scale: 20_000,
		Outages: []workload.DayRange{}})
	store := explorer.NewStore()
	c := New(Config{PageLimit: 50}, st.P.Clock(), &Direct{Store: store})
	sink := &PollingSink{Store: store, Collector: c}
	st.Run(sink)
	if _, err := c.FetchDetails(); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestDatasetSaveLoadRoundTrip(t *testing.T) {
	c := collectedDataset(t)
	var buf bytes.Buffer
	if err := c.Data.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadDataset(&buf, 4*50)
	if err != nil {
		t.Fatal(err)
	}

	if loaded.Collected != c.Data.Collected || loaded.Duplicates != c.Data.Duplicates {
		t.Errorf("counters: %d/%d vs %d/%d",
			loaded.Collected, loaded.Duplicates, c.Data.Collected, c.Data.Duplicates)
	}
	if len(loaded.Len3) != len(c.Data.Len3) || loaded.Details.Len() != c.Data.Details.Len() {
		t.Fatalf("records: %d/%d vs %d/%d",
			len(loaded.Len3), loaded.Details.Len(), len(c.Data.Len3), c.Data.Details.Len())
	}
	if !loaded.Clock.Genesis.Equal(c.Data.Clock.Genesis) {
		t.Error("clock genesis lost")
	}

	// Detection over the loaded dataset must be identical.
	det := core.NewDefaultDetector()
	sweep := func(d *Dataset) (sandwiches int, loss float64) {
		for i := range d.Len3 {
			rec := &d.Len3[i]
			if details, ok := d.DetailsFor(rec); ok {
				if v := det.Detect(rec, details); v.Sandwich {
					sandwiches++
					loss += v.VictimLossLamports
				}
			}
		}
		return
	}
	na, la := sweep(c.Data)
	nb, lb := sweep(loaded)
	if na != nb || la != lb {
		t.Errorf("detection diverges after save/load: %d/%.0f vs %d/%.0f", na, la, nb, lb)
	}
	if c.Data.TipsLen1.Quantile(0.5) != loaded.TipsLen1.Quantile(0.5) ||
		c.Data.TipsLen3.Quantile(0.95) != loaded.TipsLen3.Quantile(0.95) {
		t.Error("tip histograms diverge after save/load")
	}
	// Per-day aggregates survive.
	for day, agg := range c.Data.Days {
		got := loaded.Days[day]
		if got == nil || got.Bundles != agg.Bundles || got.DefensiveSpend != agg.DefensiveSpend {
			t.Errorf("day %d aggregate lost", day)
		}
	}
}

func TestLoadedDatasetResumesWithoutDoubleCounting(t *testing.T) {
	c := collectedDataset(t)
	var buf bytes.Buffer
	if err := c.Data.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadDataset(&buf, 4*50)
	if err != nil {
		t.Fatal(err)
	}

	// Re-ingest the most recent length-3 record: the reseeded dedup
	// window must reject it.
	if len(loaded.Len3) == 0 {
		t.Skip("no length-3 records in sample")
	}
	last := loaded.Len3[len(loaded.Len3)-1]
	before := loaded.Collected
	if loaded.Ingest(last) {
		t.Error("checkpoint-straddling record re-ingested after load")
	}
	if loaded.Collected != before {
		t.Error("collected count changed on duplicate")
	}
}

// TestResumeKeepsLen3IdsBesideLargeLong: when the Long section alone
// fills the dedup window — extended detection, or a capture that retains
// length 1 — a resumed dataset must still recognise the length-3 records
// of the page straddling the checkpoint.
func TestResumeKeepsLen3IdsBesideLargeLong(t *testing.T) {
	const n, window = 200, 64
	d := NewDataset(solana.Clock{}, window)
	d.RetainLengths(4)
	var recs []jito.BundleRecord
	for i := 0; i < n; i++ {
		rec := jito.BundleRecord{Seq: uint64(i), Slot: solana.Slot(i), TxIDs: make([]solana.Signature, 3+i%2)}
		rec.ID[0], rec.ID[1] = byte(i), byte(i>>8)
		recs = append(recs, rec)
		d.Ingest(rec)
	}
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadDataset(&buf, window)
	if err != nil {
		t.Fatal(err)
	}
	loaded.RetainLengths(4)

	// Re-deliver the last page: every record is a duplicate.
	for _, rec := range recs[n-4:] {
		if loaded.Ingest(rec) {
			t.Errorf("record seq %d (length %d) re-ingested after resume", rec.Seq, rec.NumTxs())
		}
	}
	if loaded.Collected != n || len(loaded.Len3) != n/2 || len(loaded.Long) != n/2 {
		t.Errorf("collected %d, len3 %d, long %d; want %d, %d, %d",
			loaded.Collected, len(loaded.Len3), len(loaded.Long), n, n/2, n/2)
	}
}

func TestLoadDatasetRejectsGarbage(t *testing.T) {
	if _, err := LoadDataset(bytes.NewReader([]byte("not a gzip")), 64); err == nil {
		t.Error("garbage accepted")
	}
	// A gzip stream, the head of the retired single-stream layout.
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write([]byte("gibberish"))
	zw.Close()
	if _, err := LoadDataset(&buf, 64); err == nil {
		t.Error("gzip-wrapped garbage accepted")
	}
}

// TestLoadCheckpointRefusesNonV3 is the -resume regression test: the
// snapshot magic is the only version check, and every head that is not
// a current snapshot — a retired layout, a truncated header, foreign
// bytes, a cut body — is ErrCorrupt from the batch reader, the
// streaming scan and the dataset loader alike, never decoded (or
// panicked over). The loader's verdict is what -resume, merge and
// replica restore rely on before rewriting a checkpoint in place.
func TestLoadCheckpointRefusesNonV3(t *testing.T) {
	c := collectedDataset(t)
	var v3 bytes.Buffer
	if err := c.Data.Save(&v3); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadDatasetObs(bytes.NewReader(v3.Bytes()), 256, 1, nil); err != nil {
		t.Fatalf("current snapshot refused: %v", err)
	}

	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write([]byte("a gob stream"))
	zw.Close()
	cases := []struct {
		name  string
		data  []byte
		names string // the head the error must quote, if any
	}{
		{"v1 gzip head", gz.Bytes(), ""},
		{"v2 magic", append([]byte("jitosnp2"), v3.Bytes()[8:]...), "jitosnp2"},
		{"empty file", nil, ""},
		{"one byte", []byte{'j'}, ""},
		{"short magic", []byte("jitos"), "jitos"},
		{"foreign bytes", []byte("PK\x03\x04 definitely a zip"), "PK\x03\x04 def"},
		{"damaged magic", []byte("jitosnp9????????"), "jitosnp9"},
		{"v3 body cut in half", v3.Bytes()[:v3.Len()/2], ""},
	}
	paths := []struct {
		name string
		run  func(io.Reader) error
	}{
		{"Read", func(r io.Reader) error {
			_, err := snapshot.Read(r, 1)
			return err
		}},
		{"Scan", func(r io.Reader) error {
			return snapshot.Scan(r, snapshot.ScanOptions{Workers: 1}, nil,
				func(snapshot.Section, snapshot.ShardMeta, *snapshot.Batch, any) error { return nil })
		}},
		{"LoadDatasetObs", func(r io.Reader) error {
			_, err := LoadDatasetObs(r, 256, 1, nil)
			return err
		}},
	}
	for _, tc := range cases {
		for _, path := range paths {
			err := path.run(bytes.NewReader(tc.data))
			if !errors.Is(err, snapshot.ErrCorrupt) {
				t.Errorf("%s via %s: err = %v, want ErrCorrupt", tc.name, path.name, err)
				continue
			}
			if tc.names != "" && !strings.Contains(err.Error(), fmt.Sprintf("%q", tc.names)) {
				t.Errorf("%s via %s: error %q does not name the magic found", tc.name, path.name, err)
			}
		}
	}
}

// TestSniffVersion: the version lives in the magic alone. A v1 gzip
// head and a v2 magic are refused at the magic, with the head that was
// found quoted in the error; a v3 magic passes the gate, so a damaged
// body behind it is refused by the decoder, not as a bad magic.
func TestSniffVersion(t *testing.T) {
	for _, tc := range []struct {
		head      []byte
		gateFails bool
	}{
		{[]byte{0x1f, 0x8b, 0x08, 0, 0, 0, 0, 0}, true},
		{[]byte("jitosnp2rest"), true},
		{[]byte("jitosnp3rest"), false},
	} {
		_, err := LoadDatasetObs(bytes.NewReader(tc.head), 256, 1, nil)
		if !errors.Is(err, snapshot.ErrCorrupt) {
			t.Errorf("head %q: err = %v, want ErrCorrupt", tc.head, err)
			continue
		}
		atGate := strings.Contains(err.Error(), "bad magic")
		if atGate != tc.gateFails {
			t.Errorf("head %q: refused at the magic = %v, want %v (err %q)", tc.head, atGate, tc.gateFails, err)
		}
		if tc.gateFails && !strings.Contains(err.Error(), fmt.Sprintf("%q", tc.head[:len(snapshot.MagicV3)])) {
			t.Errorf("head %q: error %q does not name the magic found", tc.head, err)
		}
	}
	if _, err := LoadDatasetObs(bytes.NewReader(nil), 256, 1, nil); err == nil {
		t.Error("empty stream sniffed without error")
	}
}

func TestStoreRecentBefore(t *testing.T) {
	store := explorer.NewStore()
	for i := 1; i <= 10; i++ {
		store.Accept(0, fakeAccepted(i, 1, solana.Slot(i), 1_000))
	}
	// Cursor at seq 6: returns 5,4,3 for limit 3.
	got, err := store.RecentBefore(6, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0].Seq != 5 || got[2].Seq != 3 {
		t.Fatalf("RecentBefore(6,3) = %+v", seqsOf(got))
	}
	// Cursor at 1: nothing older — caught up, not an error.
	if got, err := store.RecentBefore(1, 5); err != nil || len(got) != 0 {
		t.Errorf("RecentBefore(1) returned %v, %v", seqsOf(got), err)
	}
	// Cursor 0 means from the newest.
	got, err = store.RecentBefore(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Seq != 10 {
		t.Errorf("RecentBefore(0,2) = %v", seqsOf(got))
	}
}

func seqsOf(recs []jito.BundleRecord) []uint64 {
	out := make([]uint64, len(recs))
	for i := range recs {
		out[i] = recs[i].Seq
	}
	return out
}

func TestBackfillRecoversSpike(t *testing.T) {
	run := func(backfillPages int) *Collector {
		store := explorer.NewStore()
		c := New(Config{PageLimit: 5, BackfillPages: backfillPages},
			testClock, &Direct{Store: store})
		for i := 1; i <= 5; i++ {
			store.Accept(0, fakeAccepted(i, 1, solana.Slot(i), 1_000))
		}
		c.Poll()
		// Spike: 30 bundles between polls with a 5-bundle page.
		for i := 6; i <= 35; i++ {
			store.Accept(0, fakeAccepted(i, 1, solana.Slot(i), 1_000))
		}
		c.Poll()
		return c
	}

	paper := run(0)
	if paper.Data.Collected != 10 {
		t.Fatalf("paper behaviour collected %d, want 10", paper.Data.Collected)
	}
	if paper.BackfilledBundles() != 0 {
		t.Error("backfill ran while disabled")
	}

	fixed := run(10)
	if fixed.Data.Collected != 35 {
		t.Fatalf("backfill collected %d, want all 35", fixed.Data.Collected)
	}
	if fixed.BackfilledBundles() != 25 || fixed.BackfillPolls() == 0 {
		t.Errorf("backfilled=%d polls=%d", fixed.BackfilledBundles(), fixed.BackfillPolls())
	}
	// Overlap statistic still records the broken pair — backfill repairs
	// data, not the diagnostic.
	if fixed.OverlapPairs() != 0 || fixed.Pairs() != 1 {
		t.Error("backfill should not fake the overlap statistic")
	}
}

func TestBackfillBudgetBounded(t *testing.T) {
	store := explorer.NewStore()
	c := New(Config{PageLimit: 5, BackfillPages: 2}, testClock, &Direct{Store: store})
	for i := 1; i <= 5; i++ {
		store.Accept(0, fakeAccepted(i, 1, solana.Slot(i), 1_000))
	}
	c.Poll()
	// A spike far larger than the backfill budget (2 pages = 10 bundles).
	for i := 6; i <= 105; i++ {
		store.Accept(0, fakeAccepted(i, 1, solana.Slot(i), 1_000))
	}
	c.Poll()
	// Collected: 5 + page 5 + backfill 2*5 = 20.
	if c.Data.Collected != 20 {
		t.Errorf("collected %d, want 20 under a 2-page budget", c.Data.Collected)
	}
}

func TestBackfillOverHTTP(t *testing.T) {
	store := explorer.NewStore()
	srv := httptest.NewServer(explorer.NewServer(store, 0))
	defer srv.Close()
	c := New(Config{PageLimit: 5, BackfillPages: 10}, testClock, NewHTTP(srv.URL))

	for i := 1; i <= 5; i++ {
		store.Accept(0, fakeAccepted(i, 1, solana.Slot(i), 1_000))
	}
	if err := c.Poll(); err != nil {
		t.Fatal(err)
	}
	for i := 6; i <= 25; i++ {
		store.Accept(0, fakeAccepted(i, 1, solana.Slot(i), 1_000))
	}
	if err := c.Poll(); err != nil {
		t.Fatal(err)
	}
	if c.Data.Collected != 25 {
		t.Errorf("HTTP backfill collected %d, want 25", c.Data.Collected)
	}
}

// datasetsEquivalent asserts a and b carry the same collection results.
func datasetsEquivalent(t *testing.T, want, got *Dataset) {
	t.Helper()
	if !got.Clock.Genesis.Equal(want.Clock.Genesis) {
		t.Errorf("genesis: %v vs %v", got.Clock.Genesis, want.Clock.Genesis)
	}
	if got.Collected != want.Collected || got.Duplicates != want.Duplicates {
		t.Errorf("counters: %d/%d vs %d/%d",
			got.Collected, got.Duplicates, want.Collected, want.Duplicates)
	}
	if len(got.Days) != len(want.Days) {
		t.Fatalf("days: %d vs %d", len(got.Days), len(want.Days))
	}
	for day, agg := range want.Days {
		g := got.Days[day]
		if g == nil || *g != *agg {
			t.Fatalf("day %d: %+v vs %+v", day, g, agg)
		}
	}
	wantH1, _ := want.TipsLen1.MarshalBinary()
	gotH1, _ := got.TipsLen1.MarshalBinary()
	wantH3, _ := want.TipsLen3.MarshalBinary()
	gotH3, _ := got.TipsLen3.MarshalBinary()
	if !bytes.Equal(wantH1, gotH1) || !bytes.Equal(wantH3, gotH3) {
		t.Error("tip histograms diverge")
	}
	for _, recs := range []struct {
		name      string
		want, got []jito.BundleRecord
	}{{"len3", want.Len3, got.Len3}, {"long", want.Long, got.Long}} {
		if len(recs.want) != len(recs.got) {
			t.Fatalf("%s: %d vs %d", recs.name, len(recs.got), len(recs.want))
		}
		for i := range recs.want {
			if !recs.want[i].Equal(&recs.got[i]) {
				t.Fatalf("%s[%d]: %+v vs %+v", recs.name, i, recs.got[i], recs.want[i])
			}
		}
	}
	if got.Details.Len() != want.Details.Len() {
		t.Fatalf("details: %d vs %d", got.Details.Len(), want.Details.Len())
	}
	for i := 0; i < want.Details.Len(); i++ {
		det := want.Details.At(i)
		g, ok := got.Details.Get(det.Sig)
		if !ok || !det.Equal(&g) {
			t.Fatalf("detail %x: %+v vs %+v", det.Sig[:4], g, *det)
		}
	}
}

// TestSaveByteIdenticalAcrossWorkers: checkpoint bytes are a pure
// function of the dataset, not of the machine's core count.
func TestSaveByteIdenticalAcrossWorkers(t *testing.T) {
	d := collectedDataset(t).Data
	var ref bytes.Buffer
	if err := d.SaveWorkers(&ref, 1); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 5, 0} {
		var buf bytes.Buffer
		if err := d.SaveWorkers(&buf, workers); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ref.Bytes(), buf.Bytes()) {
			t.Fatalf("workers=%d: %d bytes vs %d-byte reference, or content drift",
				workers, buf.Len(), ref.Len())
		}
	}
	// And a parallel load of those bytes round-trips.
	loaded, err := LoadDatasetWorkers(&ref, 200, 0)
	if err != nil {
		t.Fatal(err)
	}
	datasetsEquivalent(t, d, loaded)
}

// loadTestSnapshot saves a dataset of 7000 length-3 records, each with
// its three details, at one worker: two bundle shards and 21000 details.
func loadTestSnapshot(t *testing.T) (snap []byte, records int) {
	t.Helper()
	const n = 7000
	rng := rand.New(rand.NewSource(5))
	d := NewDataset(testClock, 64)
	for i := 0; i < n; i++ {
		rec := jito.BundleRecord{Seq: uint64(i), Slot: solana.Slot(10 * i), TipLamps: 1_000}
		rng.Read(rec.ID[:])
		for j := 0; j < 3; j++ {
			det := jito.TxDetail{Slot: rec.Slot, TokenDeltas: []jito.TokenDelta{{Delta: rng.Int63n(1 << 40)}}}
			rng.Read(det.Sig[:])
			rng.Read(det.Signer[:])
			rec.TxIDs = append(rec.TxIDs, det.Sig)
			d.Details.Put(det)
		}
		d.Ingest(rec)
	}
	var buf bytes.Buffer
	if err := d.SaveWorkers(&buf, 1); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), n
}

// TestLoadDatasetAllocsPerShardAndChunk pins the cost of loading details:
// a full load of more than 20k details makes a few allocations per shard
// and per detail-set chunk, far below one per detail (a signature-keyed
// map of 152-byte values made one heap object per detail).
func TestLoadDatasetAllocsPerShardAndChunk(t *testing.T) {
	snap, records := loadTestSnapshot(t)
	var loaded *Dataset
	allocs := testing.AllocsPerRun(3, func() {
		var err error
		if loaded, err = LoadDatasetWorkers(bytes.NewReader(snap), 64, 1); err != nil {
			t.Fatal(err)
		}
	})
	details := loaded.Details.Len()
	shards := (records + 4095) / 4096
	chunks := (details + 255) / 256
	t.Logf("%d details, %d shards, %d chunks: %.0f allocations per load", details, shards, chunks, allocs)
	if details != 3*records {
		t.Fatalf("loaded %d details, want %d", details, 3*records)
	}
	if limit := float64(50*shards + 4*chunks + 100); allocs > limit {
		t.Fatalf("%.0f allocations per load, want at most %.0f (%d shards, %d chunks)", allocs, limit, shards, chunks)
	}
}

// TestLoadDatasetBytes pins the heap bytes a full load allocates, from
// empty pools: each shard's details are decoded once, into the array the
// detail set keeps, and the detail index is sized once per section. The
// budget is the measured 11.1 MiB plus under 10%; copying every detail
// through Put, with the index grown step by step, allocates 13.5 MiB.
func TestLoadDatasetBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	snap, _ := loadTestSnapshot(t)
	least := uint64(math.MaxUint64)
	for i := 0; i < 3; i++ {
		runtime.GC()
		runtime.GC() // twice: the second empties the pools
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		loaded, err := LoadDatasetWorkers(bytes.NewReader(snap), 64, 1)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		runtime.KeepAlive(loaded)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	const budget = 12 << 20
	t.Logf("%.2f MiB allocated per load", float64(least)/(1<<20))
	if least > budget {
		t.Fatalf("%.2f MiB allocated per load, want at most %.2f MiB", float64(least)/(1<<20), float64(budget)/(1<<20))
	}
}
