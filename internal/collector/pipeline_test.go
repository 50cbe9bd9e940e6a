package collector

import (
	"reflect"
	"testing"

	"jitomev/internal/explorer"
	"jitomev/internal/workload"
)

// runStudy drives a small seeded study into a fresh store + polling
// collector, optionally through the pipelined (asynchronous, ordered)
// sink, and returns the collected dataset and collector.
func runStudy(tb testing.TB, pipelined bool) (*Dataset, *Collector) {
	tb.Helper()
	st := workload.New(workload.Params{Seed: 3, Days: 3, Scale: 50_000})
	store := explorer.NewStore()
	coll := New(Config{}, st.P.Clock(), &Direct{Store: store})
	sink := &PollingSink{Store: store, Collector: coll, InOutage: st.P.InOutage}
	if pipelined {
		st.RunPipelined(sink, 64) // small buffer: force backpressure
	} else {
		st.Run(sink)
	}
	if _, err := coll.FetchDetails(); err != nil {
		tb.Fatalf("fetching details: %v", err)
	}
	return coll.Data, coll
}

// TestPipelinedSinkMatchesSynchronous is the generation→ingest pipeline's
// fidelity contract: routing every accepted bundle through the bounded
// ordered queue must leave the collected dataset — ingestion order,
// dedup-window state, per-day aggregates, overlap statistics — exactly
// as a synchronous run leaves it. Run under -race this also exercises
// the producer/consumer synchronization (store writes and collector
// polls happen on the ingest goroutine while the study mutates the bank).
func TestPipelinedSinkMatchesSynchronous(t *testing.T) {
	syncData, syncColl := runStudy(t, false)
	pipeData, pipeColl := runStudy(t, true)

	if syncData.Collected == 0 {
		t.Fatal("study collected nothing; comparison is vacuous")
	}
	if !reflect.DeepEqual(syncData, pipeData) {
		t.Errorf("pipelined dataset diverges: collected %d vs %d, len3 %d vs %d",
			syncData.Collected, pipeData.Collected, len(syncData.Len3), len(pipeData.Len3))
	}
	if syncColl.Polls() != pipeColl.Polls() || syncColl.OverlapRate() != pipeColl.OverlapRate() {
		t.Errorf("polling stats diverge: %d/%f vs %d/%f",
			syncColl.Polls(), syncColl.OverlapRate(), pipeColl.Polls(), pipeColl.OverlapRate())
	}
}
