package snapshot

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"time"

	"jitomev/internal/jito"
	"jitomev/internal/solana"
	"jitomev/internal/stats"
)

// randPubkey draws from a small pool so the intern table actually
// deduplicates, as it does for real signers and mints.
func randPubkey(rng *rand.Rand, pool int) solana.Pubkey {
	var p solana.Pubkey
	p[0] = byte(rng.Intn(pool))
	p[1] = 0xA5
	return p
}

func randSig(rng *rand.Rand) solana.Signature {
	var s solana.Signature
	rng.Read(s[:])
	return s
}

func randRecord(rng *rand.Rand, maxTxs int) jito.BundleRecord {
	rec := jito.BundleRecord{
		Seq:      rng.Uint64(),
		Slot:     solana.Slot(rng.Uint64() >> 20),
		UnixMs:   rng.Int63() - rng.Int63(), // negative values too
		TipLamps: rng.Uint64() >> uint(rng.Intn(64)),
	}
	rng.Read(rec.ID[:])
	n := rng.Intn(maxTxs + 1)
	for i := 0; i < n; i++ {
		rec.TxIDs = append(rec.TxIDs, randSig(rng))
	}
	return rec
}

func randDetail(rng *rand.Rand, maxDeltas int) jito.TxDetail {
	det := jito.TxDetail{
		Sig:         randSig(rng),
		Signer:      randPubkey(rng, 40),
		Slot:        solana.Slot(rng.Uint64() >> 20),
		Failed:      rng.Intn(2) == 0,
		TipLamports: rng.Uint64() >> uint(rng.Intn(64)),
		TipOnly:     rng.Intn(2) == 0,
	}
	n := rng.Intn(maxDeltas + 1)
	for i := 0; i < n; i++ {
		det.TokenDeltas = append(det.TokenDeltas, jito.TokenDelta{
			Owner: randPubkey(rng, 40),
			Mint:  randPubkey(rng, 8),
			Delta: rng.Int63() - rng.Int63(),
		})
	}
	return det
}

// genesisAt is the scope of an empty snapshot whose clock starts ns
// nanoseconds after the Unix epoch.
func genesisAt(ns int64) Scope {
	return Scope{Clock: solana.Clock{Genesis: time.Unix(0, ns).UTC()}}
}

// testSnapshot builds a randomized snapshot big enough to span several
// shards when shardSize is small relative to n.
func testSnapshot(seed int64, nRecords, nDetails int) *Snapshot {
	rng := rand.New(rand.NewSource(seed))
	s := &Snapshot{Scope: genesisAt(1_700_000_000_000_000_000), Details: new(jito.DetailSet)}
	s.Days = make(map[int]*DayAgg)
	s.TipsLen1, s.TipsLen3 = stats.NewTipHistogram(), stats.NewTipHistogram()
	s.Collected, s.Duplicates = 12345678, 999
	for d := 0; d < 7; d++ {
		agg := &DayAgg{Bundles: rng.Uint64() >> 32, Txs: rng.Uint64() >> 32,
			DefensiveCount: uint64(rng.Intn(1000)), PriorityCount: uint64(rng.Intn(1000)),
			DefensiveSpend: rng.Uint64() >> 24}
		for i := range agg.ByLength {
			agg.ByLength[i] = uint64(rng.Intn(100000))
		}
		s.Days[d*3-2] = agg // negative day included
	}
	for i := 0; i < 2000; i++ {
		s.TipsLen1.Add(float64(rng.Intn(1_000_000) + 1))
		s.TipsLen3.Add(float64(rng.Intn(100_000_000) + 1))
	}
	for i := 0; i < nRecords; i++ {
		s.Len3 = append(s.Len3, randRecord(rng, 5))
	}
	for i := 0; i < nRecords/4; i++ {
		s.Long = append(s.Long, randRecord(rng, 5))
	}
	for i := 0; i < nDetails; i++ {
		det := randDetail(rng, 6)
		s.Details.Put(det)
	}
	return s
}

func histEqual(a, b *stats.LogHistogram) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	return bytes.Equal(a.AppendBinary(nil), b.AppendBinary(nil))
}

func snapshotsEqual(t *testing.T, want, got *Snapshot) {
	t.Helper()
	if got.Clock != want.Clock || got.Collected != want.Collected ||
		got.Duplicates != want.Duplicates {
		t.Errorf("scalars diverge: %v/%d/%d vs %v/%d/%d",
			got.Clock.Genesis, got.Collected, got.Duplicates,
			want.Clock.Genesis, want.Collected, want.Duplicates)
	}
	if len(got.Days) != len(want.Days) {
		t.Fatalf("days: %d vs %d", len(got.Days), len(want.Days))
	}
	for d, agg := range want.Days {
		g := got.Days[d]
		if g == nil || *g != *agg {
			t.Fatalf("day %d diverges: %+v vs %+v", d, g, agg)
		}
	}
	if !histEqual(want.TipsLen1, got.TipsLen1) || !histEqual(want.TipsLen3, got.TipsLen3) {
		t.Error("histograms diverge")
	}
	for name, pair := range map[string][2][]jito.BundleRecord{
		"len3": {want.Len3, got.Len3}, "long": {want.Long, got.Long},
	} {
		w, g := pair[0], pair[1]
		if len(w) != len(g) {
			t.Fatalf("%s: %d vs %d records", name, len(g), len(w))
		}
		for i := range w {
			if !w[i].Equal(&g[i]) {
				t.Fatalf("%s[%d] diverges:\n%+v\n%+v", name, i, g[i], w[i])
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
			t.Fatalf("detail %x diverges:\n%+v\n%+v", det.Sig[:4], g, *det)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	s := testSnapshot(1, 3000, 2500) // > one shard once encoded? shard sizes are 8192: single-shard path
	for _, workers := range []int{1, 2, 4, 0} {
		var buf bytes.Buffer
		if err := Write(&buf, s, workers); err != nil {
			t.Fatal(err)
		}
		got, err := Read(bytes.NewReader(buf.Bytes()), workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		snapshotsEqual(t, s, got)
	}
}

// TestRoundTripMultiShard forces many shards by exceeding the shard size
// thresholds, exercising the parallel encode and decode paths across
// shard boundaries.
func TestRoundTripMultiShard(t *testing.T) {
	if testing.Short() {
		t.Skip("large round trip")
	}
	s := testSnapshot(2, 6*bundleShardSize+17, 2*orphanShardSize+5)
	var buf bytes.Buffer
	if err := Write(&buf, s, 0); err != nil {
		t.Fatal(err)
	}
	got, err := Read(bytes.NewReader(buf.Bytes()), 0)
	if err != nil {
		t.Fatal(err)
	}
	snapshotsEqual(t, s, got)
}

func TestWriteByteIdenticalAcrossWorkers(t *testing.T) {
	s := testSnapshot(3, 4*bundleShardSize+100, orphanShardSize+50)
	var ref bytes.Buffer
	if err := Write(&ref, s, 1); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8, 0} {
		var buf bytes.Buffer
		if err := Write(&buf, s, workers); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ref.Bytes(), buf.Bytes()) {
			t.Fatalf("workers=%d produced different bytes (%d vs %d)",
				workers, buf.Len(), ref.Len())
		}
	}
}

func TestEmptySnapshotRoundTrip(t *testing.T) {
	s := &Snapshot{Scope: genesisAt(42)} // nil maps, nil slices, nil histograms
	var buf bytes.Buffer
	if err := Write(&buf, s, 0); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Clock != genesisAt(42).Clock || got.TipsLen1 != nil || got.TipsLen3 != nil ||
		got.Len3 != nil || got.Long != nil || len(got.Days) != 0 {
		t.Errorf("empty snapshot mutated on round trip: %+v", got)
	}
}

func TestRecordOverLimitRejected(t *testing.T) {
	rec := jito.BundleRecord{TxIDs: make([]solana.Signature, 256)}
	s := &Snapshot{Len3: []jito.BundleRecord{rec}}
	if err := Write(&buffer{}, s, 1); err == nil {
		t.Error("256-transaction record encoded without error")
	}
}

// buffer is a minimal io.Writer for error-path tests.
type buffer struct{ bytes.Buffer }

func TestReadRejectsCorruption(t *testing.T) {
	s := testSnapshot(4, 500, 400)
	var buf bytes.Buffer
	if err := Write(&buf, s, 1); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	cases := map[string][]byte{
		"empty":         {},
		"bad magic":     append([]byte("jitosnpX"), good[8:]...),
		"truncated":     good[:len(good)/2],
		"no terminator": good[:len(good)-1],
	}
	// Flip a byte inside a compressed shard body (past the magic and
	// first section headers): the gzip CRC or the columnar layout must
	// catch it.
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/2] ^= 0xFF
	cases["bit flip"] = flipped

	for name, data := range cases {
		if _, err := Read(bytes.NewReader(data), 0); err == nil {
			t.Errorf("%s: corrupt input accepted", name)
		}
	}
}

func TestReadRejectsHostileLengths(t *testing.T) {
	// A frame claiming a multi-GB shard must fail before allocating.
	data := []byte(MagicV3)
	data = append(data, secMeta)
	data = appendUvarint(data, 1)     // one shard
	data = appendUvarint(data, 1)     // one item
	data = appendUvarint(data, 1)     // items
	data = appendUvarint(data, 1<<40) // rawLen: hostile
	data = appendUvarint(data, 10)
	if _, err := Read(bytes.NewReader(data), 0); err == nil {
		t.Error("hostile length prefix accepted")
	}

	// A section header's item count is a claim the shards behind it must
	// back: none of these may reserve memory for it (2^38 records would
	// be terabytes) or get past the missing frame.
	section := func(d []byte, id byte, shards, items uint64) []byte {
		d = append(d, id)
		return appendUvarint(appendUvarint(d, shards), items)
	}
	prelude := func() []byte {
		meta := compressShard(make([]byte, 24))
		d := section([]byte(MagicV3), secMeta, 1, 1)
		d = appendUvarint(appendUvarint(appendUvarint(d, 1), 24), uint64(len(meta)))
		return append(d, meta...)
	}
	emptyHeader := prelude()
	for _, id := range []byte{secDays, secTipsLen1, secTipsLen3} {
		emptyHeader = section(emptyHeader, id, 0, 0)
	}
	const claim = 1 << 38
	cases := map[string][]byte{
		"days":          section(prelude(), secDays, 1, claim),
		"len-3 records": section(emptyHeader, secBundles3, 1, claim),
	}
	// A frame whose blob cannot inflate to the raw length it claims.
	inflate := section(prelude(), secDays, 1, 1)
	inflate = appendUvarint(appendUvarint(appendUvarint(inflate, 1), 1<<20), 10)
	cases["raw length past deflate's ratio"] = append(inflate, make([]byte, 10)...)
	for name, data := range cases {
		if _, err := Read(bytes.NewReader(data), 0); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: got %v, want ErrCorrupt", name, err)
		}
	}
}

// TestRandomizedRoundTrip is the quick-style sweep over the record and
// detail codecs: many small random snapshots, including empty slices,
// nil maps, zero values and maximum-length token-delta lists.
func TestRandomizedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for iter := 0; iter < 60; iter++ {
		s := &Snapshot{Scope: genesisAt(rng.Int63())}
		if rng.Intn(4) > 0 {
			s.Details = new(jito.DetailSet)
			for i, n := 0, rng.Intn(50); i < n; i++ {
				det := randDetail(rng, 16)
				if i%7 == 0 {
					det.TokenDeltas = nil
				}
				if i%11 == 0 { // max-length delta list
					det.TokenDeltas = nil
					for j := 0; j < 64; j++ {
						det.TokenDeltas = append(det.TokenDeltas, jito.TokenDelta{
							Owner: randPubkey(rng, 3), Mint: randPubkey(rng, 2),
							Delta: int64(j) - 32,
						})
					}
				}
				s.Details.Put(det)
			}
		}
		for i, n := 0, rng.Intn(40); i < n; i++ {
			rec := randRecord(rng, 5)
			if i%5 == 0 {
				rec.TxIDs = nil // empty transaction list
			}
			s.Len3 = append(s.Len3, rec)
		}
		var buf bytes.Buffer
		if err := Write(&buf, s, rng.Intn(4)); err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		got, err := Read(&buf, rng.Intn(4))
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		snapshotsEqual(t, s, got)
	}
}
