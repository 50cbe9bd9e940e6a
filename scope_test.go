package jitomev

import (
	"bytes"
	"testing"

	"jitomev/internal/collector"
	"jitomev/internal/fleet"
	"jitomev/internal/jito"
	"jitomev/internal/workload"
)

// TestScopeLen3MatchesRetainedRecords: every driver reports
// Len3Bundles from the collection scope — the sum of its per-day
// ByLength[3] — rather than from retained records, which a day-ranged
// query never holds whole. The two counts must agree on every dataset
// the program builds: a generated study, a 10%-chaos extended study,
// each after a Save/Load round trip, and a fleet merge of overlapping
// partition captures.
func TestScopeLen3MatchesRetainedRecords(t *testing.T) {
	check := func(name string, d *collector.Dataset) {
		t.Helper()
		if len(d.Len3) == 0 {
			t.Fatalf("%s: no length-3 records to count", name)
		}
		if got, want := d.Scope.Len3(), uint64(len(d.Len3)); got != want {
			t.Errorf("%s: scope counts %d length-3 bundles, dataset retains %d", name, got, want)
		}
	}
	roundTrip := func(name string, d *collector.Dataset) {
		t.Helper()
		var buf bytes.Buffer
		if err := d.Save(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := collector.LoadDataset(&buf, 64)
		if err != nil {
			t.Fatal(err)
		}
		check(name+" after Save/Load", loaded)
	}

	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"study", Config{Workload: workload.Params{Seed: 11, Days: 6, Scale: 20_000}}},
		{"chaos extended study", Config{
			Workload:          workload.Params{Seed: 13, Days: 6, Scale: 20_000},
			ExtendedDetection: true,
			FaultRate:         0.1,
			ChaosSeed:         99,
		}},
	} {
		out, err := Run(c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		check(c.name, out.Collector.Data)
		roundTrip(c.name, out.Collector.Data)
	}

	// Two captures retaining every length, overlapping on every fifth
	// accepted bundle, merged back into one dataset.
	st := workload.New(workload.Params{Seed: 11, Days: 3, Scale: 20_000})
	parts := make([]*collector.Dataset, 2)
	for i := range parts {
		parts[i] = collector.NewDataset(st.P.Clock(), 1024)
		parts[i].RetainLengths(1, 2, 4, 5)
	}
	n := 0
	st.Run(workload.SinkFunc(func(_ int, acc *jito.Accepted) {
		parts[n%2].Ingest(acc.Record)
		if n%5 == 0 {
			parts[(n+1)%2].Ingest(acc.Record)
		}
		n++
	}))
	merged, ms, err := fleet.Merge(parts, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ms.Deduped == 0 {
		t.Fatal("captures did not overlap")
	}
	check("fleet merge", merged)
	roundTrip("fleet merge", merged)
}
