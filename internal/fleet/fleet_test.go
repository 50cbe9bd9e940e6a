package fleet

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"testing"
	"time"

	"jitomev/internal/collector"
	"jitomev/internal/explorer"
	"jitomev/internal/faults"
	"jitomev/internal/jito"
	"jitomev/internal/obs"
	"jitomev/internal/quality"
	"jitomev/internal/solana"
)

// testClock is the study clock every fleet test shares.
func testClock() solana.Clock {
	return solana.Clock{Genesis: time.Date(2025, 2, 9, 0, 0, 0, 0, time.UTC)}
}

// synthAccepted builds a deterministic accepted bundle for seq: mostly
// length 1, length 3 every 36th, a sprinkle of 2/4/5 — enough shape
// that the merged dataset exercises every aggregate. Length-3 bundles
// carry full details (the store retains those, like the real feed).
func synthAccepted(seq uint64, clock solana.Clock) *jito.Accepted {
	h := seq*0x9e3779b97f4a7c15 + 0xfee7
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27

	length := 1
	switch {
	case seq%36 == 0:
		length = 3
	case seq%97 == 0:
		length = 2
	case seq%131 == 0:
		length = 4
	case seq%191 == 0:
		length = 5
	}
	// ~720 bundles per study day, so a few-thousand-record store spans
	// several days and the ledger aggregation has structure to sum.
	slot := solana.Slot(seq * 300)
	rec := jito.BundleRecord{
		Seq:      seq,
		Slot:     slot,
		UnixMs:   clock.TimeOf(slot).UnixMilli(),
		TipLamps: 3_000 + h%200_000,
	}
	rec.TxIDs = make([]solana.Signature, length)
	for i := range rec.TxIDs {
		binary.LittleEndian.PutUint64(rec.TxIDs[i][:8], seq)
		rec.TxIDs[i][8] = byte(i)
	}
	sum := sha256.Sum256(rec.TxIDs[0][:])
	copy(rec.ID[:], sum[:])

	acc := &jito.Accepted{Record: rec}
	if length == 3 {
		acc.Details = make([]jito.TxDetail, length)
		for i := range acc.Details {
			acc.Details[i] = jito.TxDetail{
				Sig:         rec.TxIDs[i],
				Slot:        slot,
				TipLamports: rec.TipLamps,
				TokenDeltas: []jito.TokenDelta{{Delta: int64(seq%50) - 25}},
			}
		}
	}
	return acc
}

// fillStore populates a store with n synthetic bundles, Seq 1..n.
func fillStore(n int, clock solana.Clock) *explorer.Store {
	store := explorer.NewStore()
	for seq := 1; seq <= n; seq++ {
		acc := synthAccepted(uint64(seq), clock)
		store.Accept(clock.DayOf(acc.Record.Slot), acc)
	}
	return store
}

// groundTruth is what a single collector ingesting the whole store in
// acceptance order would hold — the byte-identity reference.
func groundTruth(store *explorer.Store, clock solana.Clock) *collector.Dataset {
	ds := collector.NewDataset(clock, 64)
	for _, rec := range store.All() {
		ds.Ingest(rec)
	}
	for i := range ds.Len3 {
		for _, d := range store.TxDetails(ds.Len3[i].TxIDs) {
			ds.Details.Put(d)
		}
	}
	return ds
}

// saveBytes renders a dataset's canonical snapshot bytes.
func saveBytes(t testing.TB, ds *collector.Dataset) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := ds.Save(&buf); err != nil {
		t.Fatalf("save: %v", err)
	}
	return buf.Bytes()
}

func TestPlanOverCoversBacklogExactly(t *testing.T) {
	for _, tc := range []struct {
		hw uint64
		n  int
	}{{1000, 4}, {7, 3}, {5, 8}, {1, 1}, {0, 4}} {
		pl, err := PlanOver(tc.hw, tc.n)
		if err != nil {
			t.Fatalf("PlanOver(%d,%d): %v", tc.hw, tc.n, err)
		}
		if len(pl.Partitions) != tc.n {
			t.Fatalf("PlanOver(%d,%d): %d partitions", tc.hw, tc.n, len(pl.Partitions))
		}
		covered := make(map[uint64]int)
		for i, p := range pl.Partitions {
			if p.ID != i {
				t.Fatalf("partition %d has ID %d", i, p.ID)
			}
			for s := p.Lo; s <= p.Hi && !p.Empty(); s++ {
				covered[s]++
			}
		}
		for s := uint64(1); s <= tc.hw; s++ {
			if covered[s] != 1 {
				t.Fatalf("PlanOver(%d,%d): seq %d covered %d times", tc.hw, tc.n, s, covered[s])
			}
		}
		if uint64(len(covered)) != tc.hw {
			t.Fatalf("PlanOver(%d,%d): covered %d seqs", tc.hw, tc.n, len(covered))
		}
	}
	if _, err := PlanOver(100, 0); err == nil {
		t.Fatal("PlanOver with 0 partitions should fail")
	}
}

func TestFleetSingleReplicaMatchesGroundTruth(t *testing.T) {
	clock := testClock()
	store := fillStore(2_500, clock)
	res, err := RunFleet(HarnessConfig{
		Store:     store,
		Clock:     clock,
		Replicas:  1,
		PageLimit: 100,
		CkptDir:   t.TempDir(),
	})
	if err != nil {
		t.Fatalf("RunFleet: %v", err)
	}
	want := saveBytes(t, groundTruth(store, clock))
	got := saveBytes(t, res.Merged)
	if !bytes.Equal(got, want) {
		t.Fatalf("single-replica merged snapshot differs from ground truth (%d vs %d bytes)", len(got), len(want))
	}
	if res.Stats.Deduped != 0 {
		t.Fatalf("clean single-replica run deduped %d records", res.Stats.Deduped)
	}
	if res.Ledger.NewBundles != uint64(store.Len()) {
		t.Fatalf("ledger NewBundles = %d, store holds %d", res.Ledger.NewBundles, store.Len())
	}
}

// TestFleetChaosCrashByteIdentical is the acceptance test: four
// replicas over a 10% transport-fault schedule, one killed mid-run,
// short TTLs forcing a real takeover — and the merged dataset must be
// byte-identical to the single-collector ground truth.
func TestFleetChaosCrashByteIdentical(t *testing.T) {
	clock := testClock()
	store := fillStore(3_000, clock)
	reg := obs.NewRegistry()
	res, err := RunFleet(HarnessConfig{
		Store:           store,
		Clock:           clock,
		Replicas:        4,
		Partitions:      8,
		PageLimit:       100,
		CheckpointEvery: 2,
		LeaseTTL:        150 * time.Millisecond,
		PageDelay:       2 * time.Millisecond,
		FaultRate:       0.10,
		ChaosSeed:       7,
		CrashAfterPages: map[int]int{1: 3},
		CkptDir:         t.TempDir(),
		Reg:             reg,
	})
	if err != nil {
		t.Fatalf("RunFleet: %v", err)
	}
	if got := res.Crashed(); got != 1 {
		t.Fatalf("crashed replicas = %d, want exactly the injected kill", got)
	}
	want := saveBytes(t, groundTruth(store, clock))
	got := saveBytes(t, res.Merged)
	if !bytes.Equal(got, want) {
		t.Fatalf("chaos+crash merged snapshot differs from ground truth (%d vs %d bytes)", len(got), len(want))
	}
	// The kill left a lease to expire and a survivor to take the
	// partition over at a higher epoch.
	if v := reg.Value("fleet_leases_expired_total"); v < 1 {
		t.Fatalf("fleet_leases_expired_total = %v, want >= 1", v)
	}
	if v := reg.Value("fleet_leases_takeovers_total"); v < 1 {
		t.Fatalf("fleet_leases_takeovers_total = %v, want >= 1", v)
	}
	// The coverage ledger aggregates every replica's feed: at least
	// the whole backlog landed (the crashed replica's re-fetched pages
	// may count twice), spread over the study days.
	if res.Ledger.NewBundles < uint64(store.Len()) {
		t.Fatalf("aggregated ledger NewBundles = %d, backlog is %d", res.Ledger.NewBundles, store.Len())
	}
	if len(res.Ledger.Days) < 2 {
		t.Fatalf("aggregated ledger has %d day windows, want several", len(res.Ledger.Days))
	}
	if res.Ledger.PollsOK == 0 || res.Ledger.PollsOK != sumPollsOK(res.Ledger.Days) {
		t.Fatalf("ledger totals inconsistent: PollsOK=%d days=%v", res.Ledger.PollsOK, res.Ledger.Days)
	}
}

func sumPollsOK(days []quality.DayWindow) uint64 {
	var n uint64
	for _, d := range days {
		n += d.PollsOK
	}
	return n
}

// TestFleetReplicaCountInvariance: the merged bytes must not depend on
// the fleet shape — 1, 2 and 4 replicas over the same store agree.
func TestFleetReplicaCountInvariance(t *testing.T) {
	clock := testClock()
	store := fillStore(1_800, clock)
	var first []byte
	for _, n := range []int{1, 2, 4} {
		res, err := RunFleet(HarnessConfig{
			Store:     store,
			Clock:     clock,
			Replicas:  n,
			PageLimit: 90,
			CkptDir:   t.TempDir(),
		})
		if err != nil {
			t.Fatalf("RunFleet(%d): %v", n, err)
		}
		b := saveBytes(t, res.Merged)
		if first == nil {
			first = b
			continue
		}
		if !bytes.Equal(b, first) {
			t.Fatalf("%d-replica merge differs from 1-replica merge", n)
		}
	}
}

// partitionSeed searches the deterministic schedule space for a seed
// where replica 0 draws a coordinator partition early and neither
// replica draws a crash within the run's fault-draw horizon — so the
// test exercises exactly the stalled-writer path, every time.
func partitionSeed(t *testing.T, replicas int, rate float64, horizon uint64) int64 {
	t.Helper()
	for s := int64(1); s < 50_000; s++ {
		ok, sawPartition := true, false
		for i := 0; i < replicas && ok; i++ {
			sched := faults.Schedule{Seed: s + int64(i), Rate: rate}
			for idx := uint64(0); idx < horizon; idx++ {
				switch sched.At(idx, faults.ReplicaMask) {
				case faults.ClassCrash:
					ok = false
				case faults.ClassPartition:
					if i == 0 && idx < 3 {
						sawPartition = true
					}
				}
				if !ok {
					break
				}
			}
		}
		if ok && sawPartition {
			return s
		}
	}
	t.Fatal("no suitable partition-fault seed in search space")
	return 0
}

// TestFleetPartitionFaultIsFenced injects a coordinator partition: the
// replica stalls past its TTL, stops renewing, and its next write must
// be rejected by the epoch/expiry fence — after which the fleet still
// converges to the byte-identical merged dataset.
func TestFleetPartitionFaultIsFenced(t *testing.T) {
	const rate = 0.05
	seed := partitionSeed(t, 2, rate, 120)
	clock := testClock()
	store := fillStore(1_200, clock)
	reg := obs.NewRegistry()
	res, err := RunFleet(HarnessConfig{
		Store:            store,
		Clock:            clock,
		Replicas:         2,
		Partitions:       4,
		PageLimit:        100,
		CheckpointEvery:  2,
		LeaseTTL:         100 * time.Millisecond,
		PageDelay:        time.Millisecond,
		ReplicaFaultRate: rate,
		ReplicaChaosSeed: seed,
		CkptDir:          t.TempDir(),
		Reg:              reg,
	})
	if err != nil {
		t.Fatalf("RunFleet: %v", err)
	}
	if res.Crashed() != 0 {
		t.Fatalf("seed search promised no crashes, got %v", res.ReplicaErrs)
	}
	fenced := 0.0
	for _, op := range fencedOps {
		fenced += reg.Value("fleet_writes_fenced_total", "op", op)
	}
	if fenced < 1 {
		t.Fatal("stalled writer was never fenced")
	}
	if v := reg.Value("fleet_replica_stalls_total", "replica", "replica-0"); v < 1 {
		t.Fatalf("replica-0 stalls = %v, want >= 1", v)
	}
	want := saveBytes(t, groundTruth(store, clock))
	if got := saveBytes(t, res.Merged); !bytes.Equal(got, want) {
		t.Fatal("post-partition merged snapshot differs from ground truth")
	}
}

func TestMergeDedupsOverlappingInputs(t *testing.T) {
	clock := testClock()
	store := fillStore(600, clock)
	all := store.All()

	build := func(lo, hi int) *collector.Dataset {
		ds := collector.NewDataset(clock, 64)
		ds.RetainLengths(1, 2, 4, 5)
		for _, rec := range all[lo:hi] {
			ds.Ingest(rec)
		}
		for i := range ds.Len3 {
			for _, d := range store.TxDetails(ds.Len3[i].TxIDs) {
				ds.Details.Put(d)
			}
		}
		return ds
	}
	// Overlapping halves: records 200..400 appear in both inputs.
	a, b := build(0, 400), build(200, 600)
	merged, stats, err := Merge([]*collector.Dataset{a, b}, nil, nil)
	if err != nil {
		t.Fatalf("Merge: %v", err)
	}
	if stats.Deduped != 200 {
		t.Fatalf("Deduped = %d, want 200", stats.Deduped)
	}
	want := saveBytes(t, groundTruth(store, clock))
	if got := saveBytes(t, merged); !bytes.Equal(got, want) {
		t.Fatalf("overlapping merge differs from ground truth")
	}
}

func TestMergeRefusesGenesisMismatch(t *testing.T) {
	a := collector.NewDataset(testClock(), 64)
	b := collector.NewDataset(solana.Clock{Genesis: time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)}, 64)
	if _, _, err := Merge([]*collector.Dataset{a, b}, nil, nil); err == nil {
		t.Fatal("merging datasets from different studies should fail")
	}
	if _, _, err := Merge(nil, nil, nil); err == nil {
		t.Fatal("merging zero inputs should fail")
	}
}

func TestMergeDirRefusesIncompleteFleet(t *testing.T) {
	st := State{Leases: []Lease{
		{Partition: Partition{ID: 0, Lo: 1, Hi: 10}, Done: true},
		{Partition: Partition{ID: 1, Lo: 11, Hi: 20}, Holder: "replica-1", Cursor: 15},
	}}
	if _, _, err := MergeDir(st, t.TempDir(), nil, nil); err == nil {
		t.Fatal("merging an incomplete fleet should fail")
	}
}
