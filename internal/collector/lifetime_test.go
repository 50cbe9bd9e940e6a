package collector

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"jitomev/internal/explorer"
	"jitomev/internal/jito"
	"jitomev/internal/solana"
)

// TestRetainedRecordsOwnTheirTxIDs polls overlapping pages over HTTP,
// with one burst that breaks the overlap chain and sends the collector
// backfilling. The transport decodes every page into reused storage, so
// each retained record must hold its own copy of its TxIDs: at the end
// every one still matches the store byte for byte.
func TestRetainedRecordsOwnTheirTxIDs(t *testing.T) {
	store := explorer.NewStore()
	srv := httptest.NewServer(explorer.NewServer(store, 0))
	defer srv.Close()
	c := New(Config{PageLimit: 8, BackfillPages: 10, DetailLengths: []int{4, 5}}, testClock, NewHTTP(srv.URL))

	seq := 0
	accept := func(k int) {
		for ; k > 0; k-- {
			seq++
			store.Accept(0, fakeAccepted(seq, 1+seq%jito.MaxBundleTxs, solana.Slot(seq), uint64(1_000+seq)))
		}
	}
	for round := 0; round < 40; round++ {
		if round == 20 {
			accept(30) // more than a page between polls: a broken pair
		} else {
			accept(3)
		}
		if err := c.Poll(); err != nil {
			t.Fatal(err)
		}
	}
	if c.Pairs() == c.OverlapPairs() || c.BackfillPolls() == 0 {
		t.Fatalf("pairs %d, overlapping %d, backfill pages %d: the run never backfilled",
			c.Pairs(), c.OverlapPairs(), c.BackfillPolls())
	}
	if c.Data.Collected != uint64(seq) {
		t.Fatalf("collected %d of %d bundles", c.Data.Collected, seq)
	}

	want := make(map[uint64]jito.BundleRecord)
	retained := 0
	for _, rec := range store.All() {
		want[rec.Seq] = rec
		if n := rec.NumTxs(); n >= 3 {
			retained++
		}
	}
	if got := len(c.Data.Len3) + len(c.Data.Long); got != retained {
		t.Fatalf("retained %d records, want %d", got, retained)
	}
	for _, recs := range [][]jito.BundleRecord{c.Data.Len3, c.Data.Long} {
		for i := range recs {
			got, w := &recs[i], want[recs[i].Seq]
			if !got.Equal(&w) {
				t.Fatalf("seq %d: retained %+v, store holds %+v", got.Seq, got, w)
			}
			for j := range w.TxIDs {
				if !bytes.Equal(got.TxIDs[j][:], w.TxIDs[j][:]) {
					t.Fatalf("seq %d: TxIDs[%d] differs from the store", got.Seq, j)
				}
			}
		}
	}
}

// TestHTTPDropsOversizedPageBuffers: a recent page past one
// MaxPageLimit page is decoded but not kept, and the next normal page
// still decodes correctly.
func TestHTTPDropsOversizedPageBuffers(t *testing.T) {
	store := explorer.NewStore()
	for i := 1; i <= 30; i++ {
		store.Accept(0, fakeAccepted(i, 1+i%jito.MaxBundleTxs, solana.Slot(i), 1_000))
	}
	big := explorer.AppendRecent(nil, explorer.RecentResponse{
		Bundles: make([]jito.BundleRecord, explorer.MaxPageLimit+1)})
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) == 2 {
			w.Write(big) //nolint:errcheck
			return
		}
		explorer.NewServer(store, 0).ServeHTTP(w, r)
	}))
	defer srv.Close()

	tr := NewHTTP(srv.URL)
	for call, want := range []int{20, explorer.MaxPageLimit + 1, 20} {
		page, err := tr.RecentBundles(20)
		if err != nil || len(page) != want {
			t.Fatalf("call %d: %d records, %v; want %d", call, len(page), err, want)
		}
		if recs, sigs := tr.recentSlot.page.Retained(); recs > explorer.MaxPageLimit ||
			sigs > explorer.MaxPageLimit*jito.MaxBundleTxs {
			t.Fatalf("call %d: transport keeps %d records, %d signatures", call, recs, sigs)
		}
		if want == 20 {
			ref := store.Recent(20)
			for i := range ref {
				if !page[i].Equal(&ref[i]) {
					t.Fatalf("call %d: record %d is %+v, want %+v", call, i, page[i], ref[i])
				}
			}
		}
	}
}

// TestIngestCopiesTxIDs: a retained record keeps its ids after the
// caller's storage is overwritten, a nil TxIDs stays nil and an empty
// one stays empty.
func TestIngestCopiesTxIDs(t *testing.T) {
	d := NewDataset(testClock, 64)
	d.RetainLengths(0)
	page := make([]solana.Signature, 3)
	for i := range page {
		page[i][0] = byte(i + 1)
	}
	rec := jito.BundleRecord{Seq: 1, TxIDs: page}
	rec.ID[0] = 1
	d.Ingest(rec)
	clear(page)
	if got := d.Len3[0].TxIDs; got[0][0] != 1 || got[1][0] != 2 || got[2][0] != 3 {
		t.Fatalf("retained ids changed with the caller's storage: %v", got)
	}
	for i, ids := range [][]solana.Signature{nil, {}} {
		r := jito.BundleRecord{Seq: uint64(2 + i), TxIDs: ids}
		r.ID[0] = byte(2 + i)
		d.Ingest(r)
	}
	if got := d.Long; len(got) != 2 || got[0].TxIDs != nil || got[1].TxIDs == nil || len(got[1].TxIDs) != 0 {
		t.Fatalf("nil and empty TxIDs came back as %#v", got)
	}
}
