package stream_test

import (
	"bytes"
	"reflect"
	"slices"
	"sync"
	"testing"

	"jitomev"
	"jitomev/internal/collector"
	"jitomev/internal/core"
	"jitomev/internal/faults"
	"jitomev/internal/jito"
	"jitomev/internal/report"
	"jitomev/internal/solana"
	"jitomev/internal/stream"
	"jitomev/internal/workload"
)

// The equivalence contract under test: over the same record set in the
// same effective order, Engine.Finish must return Results bit-identical
// to report.AnalyzeN — at every Workers setting, over a perfectly
// ordered feed, over a chaos-scrambled feed the watermark absorbs, and
// over a replayed snapshot from a degraded collection.

// feedFixture is one generated study captured as a live event feed plus
// the reference dataset a batch pass would have collected at full
// coverage (every accepted bundle, details for every retained length).
type feedFixture struct {
	clock  solana.Clock
	events []stream.Event
	data   *collector.Dataset
}

var (
	feedOnce sync.Once
	feed     feedFixture
)

// buildFeed taps a study's accepted-bundle stream directly — no
// collector in between, so the dataset and the feed cover the exact
// same records and the duplicate count (zero) matches too.
func buildFeed(t testing.TB) feedFixture {
	t.Helper()
	feedOnce.Do(func() {
		st := workload.New(workload.Params{Seed: 11, Days: 6, Scale: 20_000})
		data := collector.NewDataset(st.P.Clock(), 1024)
		data.RetainLengths(4, 5)
		var events []stream.Event
		st.Run(workload.SinkFunc(func(day int, acc *jito.Accepted) {
			data.Ingest(acc.Record)
			switch acc.Record.NumTxs() {
			case 3, 4, 5:
				for _, d := range acc.Details {
					data.Details.Put(d)
				}
			}
			events = append(events, stream.Event{Rec: acc.Record, Details: acc.Details})
		}))
		feed = feedFixture{clock: st.P.Clock(), events: events, data: data}
	})
	return feed
}

func diffResults(t *testing.T, ref, got *report.Results) {
	t.Helper()
	rv, gv := reflect.ValueOf(*ref), reflect.ValueOf(*got)
	for i := 0; i < rv.NumField(); i++ {
		if !reflect.DeepEqual(rv.Field(i).Interface(), gv.Field(i).Interface()) {
			t.Errorf("  field %s differs", rv.Type().Field(i).Name)
		}
	}
}

// TestStreamMatchesBatchOrderedFeed: a canonically ordered live feed at
// several worker counts must reproduce the batch pass bit-for-bit,
// including the live-accumulated scope (days, tips, defensive split).
func TestStreamMatchesBatchOrderedFeed(t *testing.T) {
	fx := buildFeed(t)
	ref := report.AnalyzeN(fx.data, core.NewDefaultDetector(), 0, 1)

	for _, w := range []int{1, 4, 8} {
		eng := stream.New(stream.Config{Workers: w, Extended: true, Clock: fx.clock})
		for _, ev := range fx.events {
			eng.Offer(ev)
		}
		got := eng.Finish()
		if !reflect.DeepEqual(ref, got) {
			t.Errorf("workers=%d: streamed Results differ from batch", w)
			diffResults(t, ref, got)
		}
		s := eng.Summary()
		if s.Late != 0 || s.Duplicates != 0 {
			t.Errorf("workers=%d: ordered feed dropped %d late, %d dup", w, s.Late, s.Duplicates)
		}
		if s.Events != uint64(len(fx.events)) {
			t.Errorf("workers=%d: events %d, want %d", w, s.Events, len(fx.events))
		}
	}
}

// scrambleFeed applies FeedChaos to the ordered feed: delayed events
// slide back to after everything from slots ≤ slot+delay, duplicated
// events are re-delivered immediately. Delivery order is deterministic
// in (seed, rate, maxDelay).
func scrambleFeed(events []stream.Event, seed int64, rate float64, maxDelay int) []stream.Event {
	chaos := faults.NewFeedChaos(faults.NewInjector(seed, rate), maxDelay)
	type keyed struct {
		ev      stream.Event
		slot    solana.Slot // delivery slot: actual slot + planned delay
		replays int
	}
	out := make([]keyed, 0, len(events))
	for _, ev := range events {
		class, delay := chaos.Plan()
		k := keyed{ev: ev, slot: ev.Rec.Slot}
		switch class {
		case faults.ClassDelay:
			k.slot += solana.Slot(delay)
		case faults.ClassDuplicate:
			k.replays = 1
		}
		out = append(out, k)
	}
	// Stable sort by delivery slot: a delayed event lands after every
	// on-time event of slots ≤ slot+delay, original order otherwise.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].slot < out[j-1].slot; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	delivered := make([]stream.Event, 0, len(out))
	for _, k := range out {
		delivered = append(delivered, k.ev)
		for r := 0; r < k.replays; r++ {
			delivered = append(delivered, k.ev)
		}
	}
	return delivered
}

// TestStreamMatchesBatchChaosFeed: a feed scrambled at 10% fault rate —
// out-of-order arrivals inside the watermark lag plus duplicate
// deliveries — must still fold to the batch answer at every worker
// count, with the duplicates counted rather than silently absorbed.
func TestStreamMatchesBatchChaosFeed(t *testing.T) {
	fx := buildFeed(t)
	const lag = 8
	delivered := scrambleFeed(fx.events, 4242, 0.10, lag-1)
	dups := len(delivered) - len(fx.events)
	if dups == 0 {
		t.Fatal("chaos injected no duplicates")
	}

	// The reference collects the same delivery sequence — its dedup
	// window suppresses the duplicates, its record slices end up in
	// arrival order — then analyzes the canonicalized view.
	refData := collector.NewDataset(fx.clock, 1024)
	refData.RetainLengths(4, 5)
	for _, ev := range delivered {
		if refData.Ingest(ev.Rec) {
			switch ev.Rec.NumTxs() {
			case 3, 4, 5:
				for _, d := range ev.Details {
					refData.Details.Put(d)
				}
			}
		}
	}
	if refData.Duplicates != uint64(dups) {
		t.Fatalf("reference dedup caught %d duplicates, want %d", refData.Duplicates, dups)
	}
	ref := report.AnalyzeN(stream.Canonicalize(refData), core.NewDefaultDetector(), 0, 1)

	for _, w := range []int{1, 4, 8} {
		eng := stream.New(stream.Config{Workers: w, LagSlots: lag, Extended: true, Clock: fx.clock})
		for _, ev := range delivered {
			eng.Offer(ev)
		}
		got := eng.Finish()
		if !reflect.DeepEqual(ref, got) {
			t.Errorf("workers=%d: chaos-fed Results differ from batch", w)
			diffResults(t, ref, got)
		}
		s := eng.Summary()
		if s.Late != 0 {
			t.Errorf("workers=%d: %d events dropped late; delays within lag must be lossless", w, s.Late)
		}
		if s.Duplicates != uint64(dups) {
			t.Errorf("workers=%d: duplicates %d, want %d", w, s.Duplicates, dups)
		}
	}
}

// TestStreamLateDrop: an arrival behind the sealed watermark is dropped
// and counted — never silently absorbed, never a hang.
func TestStreamLateDrop(t *testing.T) {
	fx := buildFeed(t)
	eng := stream.New(stream.Config{LagSlots: 2, Extended: true, Clock: fx.clock})
	// Deliver everything except the first event, then the first event —
	// by then the watermark is several days of slots past it.
	for _, ev := range fx.events[1:] {
		eng.Offer(ev)
	}
	eng.Offer(fx.events[0])
	got := eng.Finish()
	s := eng.Summary()
	if s.Late != 1 {
		t.Fatalf("late = %d, want exactly the one behind-watermark arrival", s.Late)
	}
	if s.Events != uint64(len(fx.events)-1) {
		t.Errorf("events %d, want %d (the late one excluded)", s.Events, len(fx.events)-1)
	}
	ref := report.AnalyzeN(fx.data, core.NewDefaultDetector(), 0, 1)
	if got.Sandwiches > ref.Sandwiches {
		t.Errorf("lossy feed detected %d sandwiches, reference full feed only %d", got.Sandwiches, ref.Sandwiches)
	}
}

// TestReplayMatchesBatchChaosCollection: a dataset collected under 10%
// collection-path chaos (missing details, recovered pages), replayed
// through the engine, must match the batch pass over the canonicalized
// dataset — the acceptance contract for `report -load -replay`.
func TestReplayMatchesBatchChaosCollection(t *testing.T) {
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
	ref := report.AnalyzeN(stream.Canonicalize(data), core.NewDefaultDetector(), 0, 1)

	for _, w := range []int{1, 4, 8} {
		eng := stream.New(stream.Config{Workers: w, Extended: true, Clock: data.Clock})
		stream.Replay(eng, data)
		got := eng.Finish()
		if !reflect.DeepEqual(ref, got) {
			t.Errorf("workers=%d: replayed Results differ from batch", w)
			diffResults(t, ref, got)
		}
	}
}

// TestStreamLiveTapMatchesRunPipeline: the jitomev.Run wiring — the
// stream taps the same accepted-bundle feed the store ingests, so on a
// full-coverage, fault-free run the streamed verdict count matches the
// batch pass exactly.
func TestStreamLiveTapMatchesRunPipeline(t *testing.T) {
	out, err := jitomev.Run(jitomev.Config{
		Workload:     workload.Params{Seed: 17, Days: 4, Scale: 20_000},
		StreamDetect: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.StreamResults == nil {
		t.Fatal("StreamDetect produced no StreamResults")
	}
	if got, want := out.StreamResults.Sandwiches, out.Results.Sandwiches; got != want {
		t.Errorf("streamed %d sandwiches, batch %d (full-coverage run must agree)", got, want)
	}
	if out.StreamSummary.Events == 0 || out.StreamSummary.SlotsSealed == 0 {
		t.Errorf("empty stream summary: %+v", out.StreamSummary)
	}
	// Verify the stream_* family landed on the run's shared registry.
	if v := out.Obs.Value("stream_events_total"); v != float64(out.StreamSummary.Events) {
		t.Errorf("stream_events_total on registry = %v, summary says %d", v, out.StreamSummary.Events)
	}
}

// TestFinishPanicsTwice: the exactly-once contract is enforced, not
// assumed.
func TestFinishPanicsTwice(t *testing.T) {
	eng := stream.New(stream.Config{Clock: solana.Clock{}})
	eng.Finish()
	defer func() {
		if recover() == nil {
			t.Fatal("second Finish did not panic")
		}
	}()
	eng.Finish()
}

// TestReplayTwiceLeavesDetailsIntact: replay hands the engine read-only
// views into a loaded dataset's detail set, and the resident pass reads
// the same views. Replaying one loaded dataset twice must give identical
// Results, equal to the batch pass, and leave every stored detail
// byte-equal to what was loaded — no fold may write through a view.
func TestReplayTwiceLeavesDetailsIntact(t *testing.T) {
	fx := buildFeed(t)
	var buf bytes.Buffer
	if err := fx.data.Save(&buf); err != nil {
		t.Fatal(err)
	}
	data, err := collector.LoadDataset(&buf, 64)
	if err != nil {
		t.Fatal(err)
	}
	before := make([]jito.TxDetail, data.Details.Len())
	for i := range before {
		before[i] = *data.Details.At(i)
		before[i].TokenDeltas = slices.Clone(before[i].TokenDeltas)
	}
	// A loaded dataset keeps each record's details consecutive, so all
	// but the records straddling a chunk boundary replay as views.
	recs, views := 0, 0
	for i := range data.Len3 {
		ids := data.Len3[i].TxIDs
		if dets, ok := data.Details.Aligned(nil, ids); ok {
			recs++
			if &dets[0] == data.Details.At(data.Details.Index(ids[0])) {
				views++
			}
		}
	}
	if recs == 0 || views < recs*9/10 {
		t.Fatalf("%d of %d complete records resolve to views", views, recs)
	}

	ref := report.AnalyzeN(stream.Canonicalize(data), core.NewDefaultDetector(), 0, 4)
	var runs []*report.Results
	for _, w := range []int{1, 4} {
		eng := stream.New(stream.Config{Workers: w, Extended: true, Clock: data.Clock})
		stream.Replay(eng, data)
		runs = append(runs, eng.Finish())
	}
	for i, got := range runs {
		if !reflect.DeepEqual(ref, got) {
			t.Errorf("replay %d: Results differ from batch", i)
			diffResults(t, ref, got)
		}
	}
	for i := range before {
		if got := data.Details.At(i); !reflect.DeepEqual(*got, before[i]) {
			t.Fatalf("detail %d changed across replays: %+v, loaded %+v", i, *got, before[i])
		}
	}
}
