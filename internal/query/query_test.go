package query

import (
	"bytes"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"jitomev"
	"jitomev/internal/collector"
	"jitomev/internal/core"
	"jitomev/internal/explorer"
	"jitomev/internal/jito"
	"jitomev/internal/report"
	"jitomev/internal/solana"
	"jitomev/internal/workload"
)

var studyOnce sync.Once
var studyData *collector.Dataset

// buildStudyDataset runs a seeded multi-day study through the real
// pipeline with length-4/5 retention, so the streamed dataset exercises
// records, aligned details, missing details and the extended pass.
// Built once; every consumer treats it as read-only.
func buildStudyDataset(tb testing.TB) *collector.Dataset {
	tb.Helper()
	studyOnce.Do(func() {
		st := workload.New(workload.Params{Seed: 11, Days: 9, Scale: 20_000})
		store := explorer.NewStore()
		store.RetainDetailsFor(3, 4, 5)
		coll := collector.New(collector.Config{DetailLengths: []int{4, 5}},
			st.P.Clock(), &collector.Direct{Store: store})
		sink := &collector.PollingSink{Store: store, Collector: coll, InOutage: st.P.InOutage}
		st.Run(sink)
		if _, err := coll.FetchDetails(); err != nil {
			panic(err)
		}
		studyData = coll.Data
	})
	return studyData
}

// saveV3 serializes a dataset in the streaming container.
func saveV3(tb testing.TB, data *collector.Dataset) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := data.Save(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestStreamingMatchesResident is the engine's fidelity contract: the
// out-of-core pass over a v3 snapshot must reproduce the in-memory
// analysis bit for bit, at every worker count.
func TestStreamingMatchesResident(t *testing.T) {
	data := buildStudyDataset(t)
	blob := saveV3(t, data)
	ref := report.AnalyzeN(data, core.NewDefaultDetector(), 0, 1)
	if ref.Sandwiches == 0 || len(ref.Rejections) == 0 || ref.LongBundlesScanned == 0 {
		t.Fatal("study too quiet; equivalence test is vacuous")
	}

	for _, w := range []int{1, 4, 8} {
		res, st, err := Run(bytes.NewReader(blob), Options{Workers: w})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if st.ShardsScanned == 0 {
			t.Fatalf("workers=%d: no shards scanned", w)
		}
		if !reflect.DeepEqual(ref, res) {
			t.Errorf("workers=%d: streamed Results diverge from resident pass", w)
			diffResults(t, ref, res)
		}
	}
}

// diffResults narrows a Results mismatch to the offending fields.
func diffResults(t *testing.T, ref, got *report.Results) {
	t.Helper()
	rv, gv := reflect.ValueOf(*ref), reflect.ValueOf(*got)
	for i := 0; i < rv.NumField(); i++ {
		if !reflect.DeepEqual(rv.Field(i).Interface(), gv.Field(i).Interface()) {
			t.Errorf("  field %s differs", rv.Type().Field(i).Name)
		}
	}
}

// TestStreamingMatchesResidentUnderChaos repeats the fidelity contract
// on a chaos-fed collection (10% fault rate): degraded data — missing
// details, recovered pages — must stream identically too.
func TestStreamingMatchesResidentUnderChaos(t *testing.T) {
	out, err := jitomev.Run(jitomev.Config{
		Workload:          workload.Params{Seed: 13, Days: 6, Scale: 20_000},
		ExtendedDetection: true,
		FaultRate:         0.1,
		ChaosSeed:         99,
	})
	if err != nil {
		t.Fatal(err)
	}
	data := out.Collector.Data
	blob := saveV3(t, data)
	ref := report.AnalyzeN(data, core.NewDefaultDetector(), 0, 1)

	for _, w := range []int{1, 4, 8} {
		res, _, err := Run(bytes.NewReader(blob), Options{Workers: w})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if !reflect.DeepEqual(ref, res) {
			t.Errorf("workers=%d: chaos-fed streamed Results diverge", w)
			diffResults(t, ref, res)
		}
	}
}

// synthDataset hand-builds a dataset big enough that v3 bundle shards
// cluster by day — the shape pushdown exists for. Records run in
// chronological order across [0, days); most carry aligned details, and
// a few hundred orphan details ride along so the orphan section is
// non-empty.
func synthDataset(seed int64, nLen3, days int, detailFrac float64, orphans int) *collector.Dataset {
	rng := rand.New(rand.NewSource(seed))
	clock := solana.Clock{Genesis: time.Unix(1700000000, 0).UTC()}
	data := collector.NewDataset(clock, 4)
	for d := 0; d < days; d++ {
		data.Days[d] = &collector.DayAgg{Bundles: uint64(nLen3 / days), Txs: uint64(3 * nLen3 / days)}
		data.Collected += uint64(nLen3 / days)
	}
	for i := 0; i < nLen3; i++ {
		day := i * days / nLen3
		rec := jito.BundleRecord{
			Seq:      uint64(i),
			Slot:     solana.DayStart(day) + solana.Slot(rng.Intn(int(solana.SlotsPerDay))),
			UnixMs:   rng.Int63(),
			TipLamps: rng.Uint64() >> 40,
		}
		rng.Read(rec.ID[:])
		for j := 0; j < 3; j++ {
			var sig solana.Signature
			rng.Read(sig[:])
			rec.TxIDs = append(rec.TxIDs, sig)
			if rng.Float64() < detailFrac {
				det := jito.TxDetail{Sig: sig, Slot: rec.Slot, TipLamports: rng.Uint64() >> 44}
				rng.Read(det.Signer[:])
				for k := rng.Intn(4); k > 0; k-- {
					var td jito.TokenDelta
					rng.Read(td.Owner[:])
					rng.Read(td.Mint[:])
					td.Delta = rng.Int63() - rng.Int63()
					det.TokenDeltas = append(det.TokenDeltas, td)
				}
				data.Details.Put(det)
			}
		}
		data.Len3 = append(data.Len3, rec)
	}
	for i := 0; i < orphans; i++ {
		det := jito.TxDetail{Slot: solana.DayStart(rng.Intn(days))}
		rng.Read(det.Sig[:])
		rng.Read(det.Signer[:])
		data.Details.Put(det)
	}
	return data
}

// restrictDataset applies a day range to a resident dataset, producing
// exactly what the streaming pass computes over the same range: records
// and day aggregates filtered, collection total recomputed from the
// surviving days, duplicates and tip histograms left global.
func restrictDataset(data *collector.Dataset, days DayRange) *collector.Dataset {
	out := collector.NewDataset(data.Clock, 1)
	out.Duplicates = data.Duplicates
	out.TipsLen1 = data.TipsLen1
	out.TipsLen3 = data.TipsLen3
	out.Details = data.Details
	for d, agg := range data.Days {
		if days.Contains(d) {
			out.Days[d] = agg
			out.Collected += agg.Bundles
		}
	}
	keep := func(recs []jito.BundleRecord) []jito.BundleRecord {
		var kept []jito.BundleRecord
		for i := range recs {
			if days.Contains(data.Clock.DayOf(recs[i].Slot)) {
				kept = append(kept, recs[i])
			}
		}
		return kept
	}
	out.Len3 = keep(data.Len3)
	out.Long = keep(data.Long)
	return out
}

// TestDayRangePushdown checks the ranged query against the resident
// reference over an explicitly restricted dataset, and that the planner
// actually skips out-of-range and orphan shards without decoding them.
func TestDayRangePushdown(t *testing.T) {
	data := synthDataset(41, 30_000, 12, 0.9, 500)
	blob := saveV3(t, data)
	days := DayRange{Lo: 2, Hi: 4}

	ref := report.AnalyzeN(restrictDataset(data, days), core.NewDefaultDetector(), 0, 1)
	res, st, err := Run(bytes.NewReader(blob), Options{Workers: 4, Days: &days})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref, res) {
		t.Error("ranged streamed Results diverge from restricted resident pass")
		diffResults(t, ref, res)
	}
	if st.ShardsPruned == 0 {
		t.Errorf("range %+v pruned no shards (scanned %d)", days, st.ShardsScanned)
	}
	if st.BytesSkipped == 0 {
		t.Error("pruned shards skipped no bytes")
	}
	if f := st.PrunedFraction(); f < 0.5 {
		t.Errorf("3 of 12 days should prune most shards; pruned fraction %.2f (%d scanned, %d pruned)",
			f, st.ShardsScanned, st.ShardsPruned)
	}
}

// TestSkipExtended checks the length-3-only economy: the long section is
// pruned wholesale and the extended statistics read zero.
func TestSkipExtended(t *testing.T) {
	data := buildStudyDataset(t)
	blob := saveV3(t, data)

	trimmed := *data
	trimmed.Long = nil
	ref := report.AnalyzeN(&trimmed, core.NewDefaultDetector(), 0, 1)

	res, st, err := Run(bytes.NewReader(blob), Options{Workers: 4, SkipExtended: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.LongBundlesScanned != 0 || res.DisguisedSandwiches != 0 {
		t.Errorf("extended stats nonzero under SkipExtended: %d scanned, %d disguised",
			res.LongBundlesScanned, res.DisguisedSandwiches)
	}
	if !reflect.DeepEqual(ref, res) {
		t.Error("SkipExtended Results diverge from resident pass without Long records")
		diffResults(t, ref, res)
	}
	if st.ShardsPruned == 0 {
		t.Error("SkipExtended pruned no shards")
	}
}

// writeStudyFile generates a study of the given length and saves its v3
// snapshot to disk, returning only the path — the resident dataset is
// released before the caller queries, so the measurement sees streaming
// memory, not leftovers.
func writeStudyFile(tb testing.TB, dir string, seed int64, days int) string {
	tb.Helper()
	st := workload.New(workload.Params{Seed: seed, Days: days, Scale: 20_000})
	store := explorer.NewStore()
	coll := collector.New(collector.Config{}, st.P.Clock(), &collector.Direct{Store: store})
	sink := &collector.PollingSink{Store: store, Collector: coll, InOutage: st.P.InOutage}
	st.Run(sink)
	if _, err := coll.FetchDetails(); err != nil {
		tb.Fatal(err)
	}
	path := filepath.Join(dir, "study.snap")
	f, err := os.Create(path)
	if err != nil {
		tb.Fatal(err)
	}
	if err := coll.Data.Save(f); err != nil {
		tb.Fatal(err)
	}
	if err := f.Close(); err != nil {
		tb.Fatal(err)
	}
	return path
}

// TestBoundedMemory is the tentpole's memory contract: scaling the
// dataset 10× in days must not scale the streaming pass's peak live
// heap — it stays bounded by workers × shard size (plus the results
// themselves, which grow with sandwich count, not dataset size).
func TestBoundedMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two studies")
	}
	small := writeStudyFile(t, t.TempDir(), 31, 3)
	large := writeStudyFile(t, t.TempDir(), 32, 30)

	peak := func(path string) uint64 {
		runtime.GC()
		_, st, err := RunFile(path, Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if st.PeakHeapBytes == 0 {
			t.Fatal("no heap samples recorded")
		}
		return st.PeakHeapBytes
	}

	peakSmall := peak(small)
	peakLarge := peak(large)
	budget := 2*peakSmall + 64<<20
	if peakLarge > budget {
		t.Errorf("10× dataset peaked at %d MiB live heap, budget %d MiB (1× peaked at %d MiB)",
			peakLarge>>20, budget>>20, peakSmall>>20)
	}
}

// TestRunFileMissing covers the file entry point's error path.
func TestRunFileMissing(t *testing.T) {
	if _, _, err := RunFile(filepath.Join(t.TempDir(), "absent"), Options{}); err == nil {
		t.Fatal("querying a missing file succeeded")
	}
}

// TestTruncatedStream checks that a cut mid-scan surfaces as a loud
// error, not a silently short answer.
func TestTruncatedStream(t *testing.T) {
	data := buildStudyDataset(t)
	blob := saveV3(t, data)
	if _, _, err := Run(bytes.NewReader(blob[:len(blob)*2/3]), Options{Workers: 4}); err == nil {
		t.Fatal("truncated stream produced results")
	}
	if _, _, err := Run(io.LimitReader(bytes.NewReader(blob), 4), Options{}); err == nil {
		t.Fatal("4-byte stream produced results")
	}
}

// TestReversedDayRange: a lo > hi range is a caller mistake, and Run
// must say so loudly — before this guard it silently pruned every shard
// and returned an empty, plausible-looking Results.
func TestReversedDayRange(t *testing.T) {
	data := buildStudyDataset(t)
	blob := saveV3(t, data)
	days := DayRange{Lo: 4, Hi: 2}
	_, _, err := Run(bytes.NewReader(blob), Options{Workers: 2, Days: &days})
	if err == nil {
		t.Fatal("reversed day range produced results instead of an error")
	}
	if !strings.Contains(err.Error(), "reversed day range 4:2") {
		t.Errorf("error %q does not name the reversed range", err)
	}
}
