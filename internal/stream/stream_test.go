package stream_test

import (
	"bytes"
	"cmp"
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
	feedOnce, denseOnce sync.Once
	feed, denseFeed     feedFixture
)

// buildFeed taps a six-day study's accepted-bundle stream directly — no
// collector in between, so the dataset and the feed cover the exact
// same records and the duplicate count (zero) matches too. Its bundles
// sit more than 15 slots apart, so no delay within a lag the tests use
// reorders deliveries across slots.
func buildFeed(t testing.TB) feedFixture {
	t.Helper()
	feedOnce.Do(func() {
		feed = captureFeed(workload.Params{Seed: 11, Days: 6, Scale: 20_000}, 1)
	})
	return feed
}

// buildDenseFeed taps a one-day study at ten times the density: bundles
// land 4–15 slots apart thousands of times (Jito leaders hold four-slot
// windows), so delays within the lag carry deliveries past later slots
// and the watermark decides what is late. No two length-3 bundles share
// a slot in the study, so every 32 consecutive ones are crowded into the
// first one's slot; the 192 of them make six such slots for its eight
// sandwiches, so some slot holds two, and the seal's canonical order
// decides the order their verdicts fold in.
func buildDenseFeed(t testing.TB) feedFixture {
	t.Helper()
	denseOnce.Do(func() {
		denseFeed = captureFeed(workload.Params{Seed: 11, Days: 1, Scale: 2_000}, 32)
	})
	return denseFeed
}

// feeds names both fixtures for the tests that run over each.
func feeds(t testing.TB) []struct {
	name string
	fx   feedFixture
} {
	return []struct {
		name string
		fx   feedFixture
	}{{"sparse", buildFeed(t)}, {"dense", buildDenseFeed(t)}}
}

// captureFeed runs the study, moves each group of crowd consecutive
// length-3 bundles into the slot of the group's first (crowd 1 moves
// none), and returns the events in canonical (Slot, Seq) order with the
// dataset a collector would have built from them.
func captureFeed(p workload.Params, crowd int) feedFixture {
	st := workload.New(p)
	var events []stream.Event
	var groupSlot solana.Slot
	len3 := 0
	st.Run(workload.SinkFunc(func(day int, acc *jito.Accepted) {
		ev := stream.Event{Rec: acc.Record, Details: acc.Details}
		if ev.Rec.NumTxs() == 3 {
			if len3%crowd == 0 {
				groupSlot = ev.Rec.Slot
			}
			ev.Rec.Slot = groupSlot
			len3++
		}
		events = append(events, ev)
	}))
	slices.SortStableFunc(events, func(a, b stream.Event) int {
		return cmp.Or(cmp.Compare(a.Rec.Slot, b.Rec.Slot), cmp.Compare(a.Rec.Seq, b.Rec.Seq))
	})
	data := collector.NewDataset(st.P.Clock(), 1024)
	data.RetainLengths(4, 5)
	for _, ev := range events {
		data.Ingest(ev.Rec)
		switch ev.Rec.NumTxs() {
		case 3, 4, 5:
			for _, d := range ev.Details {
				data.Details.Put(d)
			}
		}
	}
	return feedFixture{clock: st.P.Clock(), events: events, data: data}
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
// slide back by their planned delay, duplicated events are re-delivered
// immediately. Delivery order is deterministic in (seed, rate,
// maxDelay).
func scrambleFeed(events []stream.Event, seed int64, rate float64, maxDelay int) []stream.Event {
	chaos := faults.NewFeedChaos(faults.NewInjector(seed, rate), maxDelay)
	return deliverPlanned(events, func(int) (delay, replays int) {
		switch class, d := chaos.Plan(); class {
		case faults.ClassDelay:
			return d, 0
		case faults.ClassDuplicate:
			return 0, 1
		}
		return 0, 0
	})
}

// deliverPlanned reorders the ordered feed by a per-event plan, asked
// once per event in feed order: event i lands delay slots late — after
// every on-time event of slots ≤ slot+delay, in original order
// otherwise — and is re-delivered replays more times right after.
func deliverPlanned(events []stream.Event, plan func(i int) (delay, replays int)) []stream.Event {
	type keyed struct {
		ev      stream.Event
		slot    solana.Slot // delivery slot: actual slot + planned delay
		late    bool        // delay > 0: lands behind the delivery slot's on-time events
		replays int
	}
	out := make([]keyed, len(events))
	for i, ev := range events {
		delay, replays := plan(i)
		out[i] = keyed{ev: ev, slot: ev.Rec.Slot + solana.Slot(delay), late: delay > 0, replays: replays}
	}
	slices.SortStableFunc(out, func(a, b keyed) int {
		if c := cmp.Compare(a.slot, b.slot); c != 0 {
			return c
		}
		switch {
		case a.late == b.late:
			return 0
		case b.late:
			return -1
		}
		return 1
	})
	delivered := make([]stream.Event, 0, len(out))
	for _, k := range out {
		for r := 0; r <= k.replays; r++ {
			delivered = append(delivered, k.ev)
		}
	}
	return delivered
}

// batchReference collects a delivery sequence the way the collector
// does — its dedup window suppresses the duplicates, its record slices
// end up in arrival order — then analyzes the canonicalized view. It
// returns the batch Results and the duplicates the collection counted.
func batchReference(clock solana.Clock, delivered []stream.Event) (*report.Results, uint64) {
	data := collector.NewDataset(clock, 1024)
	data.RetainLengths(4, 5)
	for _, ev := range delivered {
		if data.Ingest(ev.Rec) {
			switch ev.Rec.NumTxs() {
			case 3, 4, 5:
				for _, d := range ev.Details {
					data.Details.Put(d)
				}
			}
		}
	}
	return report.AnalyzeN(stream.Canonicalize(data), core.NewDefaultDetector(), 0, 1), data.Duplicates
}

// TestStreamMatchesBatchChaosFeed: a feed scrambled at 10% fault rate —
// out-of-order arrivals inside the watermark lag plus duplicate
// deliveries — must still fold to the batch answer at every worker
// count, with the duplicates counted rather than silently absorbed.
func TestStreamMatchesBatchChaosFeed(t *testing.T) {
	for _, f := range feeds(t) {
		t.Run(f.name, func(t *testing.T) {
			fx := f.fx
			const lag = 8
			delivered := scrambleFeed(fx.events, 4242, 0.10, lag-1)
			dups := len(delivered) - len(fx.events)
			if dups == 0 {
				t.Fatal("chaos injected no duplicates")
			}
			ref, refDups := batchReference(fx.clock, delivered)
			if refDups != uint64(dups) {
				t.Fatalf("reference dedup caught %d duplicates, want %d", refDups, dups)
			}

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
		})
	}
}

// FuzzStreamMatchesBatch: any delivery plan the watermark can absorb —
// delays of up to LagSlots-1 slots and duplicate deliveries — must fold
// to the batch answer over the same deliveries, losing nothing and
// counting exactly the duplicates the collector's dedup counts. dense
// selects the dense feed over the sparse one. Byte i of plan schedules
// event i: a delay of plan[i] % lag slots, plus one duplicate delivery
// when its high bit is set; events past the plan stay on time. lag is
// clamped to 2..16.
func FuzzStreamMatchesBatch(f *testing.F) {
	f.Fuzz(func(t *testing.T, dense bool, lag uint8, fourWorkers bool, plan []byte) {
		fx := buildFeed(t)
		if dense {
			fx = buildDenseFeed(t)
		}
		lag = min(max(lag, 2), 16)
		workers := 1
		if fourWorkers {
			workers = 4
		}
		delivered := deliverPlanned(fx.events, func(i int) (delay, replays int) {
			if i >= len(plan) {
				return 0, 0
			}
			return int(plan[i] % lag), int(plan[i] >> 7)
		})
		ref, refDups := batchReference(fx.clock, delivered)

		eng := stream.New(stream.Config{Workers: workers, LagSlots: solana.Slot(lag), Extended: true, Clock: fx.clock})
		for _, ev := range delivered {
			eng.Offer(ev)
		}
		got := eng.Finish()
		if !reflect.DeepEqual(ref, got) {
			t.Errorf("lag=%d workers=%d: Results differ from batch", lag, workers)
			diffResults(t, ref, got)
		}
		s := eng.Summary()
		if s.Late != 0 {
			t.Errorf("lag=%d workers=%d: %d events dropped late", lag, workers, s.Late)
		}
		if s.Duplicates != refDups {
			t.Errorf("lag=%d workers=%d: duplicates %d, reference %d", lag, workers, s.Duplicates, refDups)
		}
	})
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
