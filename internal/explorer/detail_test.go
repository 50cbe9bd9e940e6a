package explorer

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"testing"

	"jitomev/internal/jito"
	"jitomev/internal/solana"
)

// detailStore holds n length-3 bundles, so 3n details, and returns their
// ids in acceptance order.
func detailStore(n int) (*Store, []solana.Signature) {
	s := NewStore()
	var ids []solana.Signature
	for i := 1; i <= n; i++ {
		acc := fakeAccepted(i, 3)
		s.Accept(0, acc)
		ids = append(ids, acc.Record.TxIDs...)
	}
	return s, ids
}

// TestAppendTxDetailsMatchesTxDetails checks the one detail path against
// its wrapper: the prefix kept, unknown ids skipped, an empty result
// non-nil, ids past MaxDetailBatch ignored, and a fresh slice grown to
// exactly one slot per id.
func TestAppendTxDetailsMatchesTxDetails(t *testing.T) {
	s, ids := detailStore(20)
	var unknown solana.Signature
	unknown[63] = 1
	req := append([]solana.Signature{unknown}, ids[5:17]...)
	want := s.TxDetails(req)
	if len(want) != 12 || cap(want) != len(req) {
		t.Fatalf("TxDetails: %d details, cap %d", len(want), cap(want))
	}
	prefix := []jito.TxDetail{{Slot: 99}}
	got := s.AppendTxDetails(prefix, req)
	if !reflect.DeepEqual(got, append(prefix[:1:1], want...)) {
		t.Fatalf("AppendTxDetails = %+v, want prefix then %+v", got, want)
	}
	if d := s.TxDetails([]solana.Signature{unknown}); d == nil || len(d) != 0 {
		t.Fatalf("no match: %#v, want non-nil empty", d)
	}
	many := make([]solana.Signature, MaxDetailBatch+1)
	many[MaxDetailBatch] = ids[0]
	if d := s.AppendTxDetails(nil, many); len(d) != 0 || cap(d) != MaxDetailBatch {
		t.Fatalf("oversized batch: %d details, cap %d; want 0, cap %d", len(d), cap(d), MaxDetailBatch)
	}
}

// postDetails is a reusable detail POST of body: each serve rewinds it.
type postDetails struct {
	body []byte
	rd   *bytes.Reader
	req  *http.Request
}

func newPostDetails(body []byte) *postDetails {
	rd := bytes.NewReader(body)
	return &postDetails{body: body, rd: rd, req: httptest.NewRequest(http.MethodPost, "/api/v1/transactions", rd)}
}

func (p *postDetails) serve(h http.Handler, w http.ResponseWriter) {
	p.rd.Reset(p.body)
	h.ServeHTTP(w, p.req)
}

// bytesPerRun is testing.AllocsPerRun in heap bytes: f runs once to
// warm up, then runs times on one processor, so every sync.Pool Get
// finds what the previous Put left.
func bytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&m1)
	return (m1.TotalAlloc - m0.TotalAlloc) / uint64(runs)
}

// TestDetailHandlerBytes pins the detail handler's heap bytes per warm
// request: the ids, the gathered details and the body all come from
// pools, so a 1,000-id batch costs what a 64-id batch does, and both
// stay under 1 KiB.
func TestDetailHandlerBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	s, ids := detailStore(400)
	srv := NewServer(s, 0)
	w := &discardWriter{h: http.Header{}}
	perRequest := func(n int) uint64 {
		p := newPostDetails(AppendDetailRequest(nil, DetailRequest{IDs: ids[:n]}))
		rec := httptest.NewRecorder()
		p.serve(srv, rec)
		if got, _, err := ReadDetailResponse(rec.Body); rec.Code != http.StatusOK || err != nil || len(got.Transactions) != n {
			t.Fatalf("%d ids: status %d, %d details, %v", n, rec.Code, len(got.Transactions), err)
		}
		return bytesPerRun(100, func() { p.serve(srv, w) })
	}
	b64, b1000 := perRequest(64), perRequest(1000)
	if b64 >= 1024 || b1000 >= 1024 || b64 != b1000 {
		t.Fatalf("warm detail POST allocates %d B for 64 ids and %d B for 1,000; want the same, under 1 KiB", b64, b1000)
	}
}

// hiddenLength hides a reader's length, as a chunked body does.
type hiddenLength struct{ io.Reader }

// TestDetailHandlerOversizedBody sends a 30 MiB body of canonical ids:
// it is refused as a bad body without being read. Without a
// Content-Length it is refused at the 1 MiB cap, and so is a valid
// request padded past the cap, which encoding/json would take from the
// prefix.
func TestDetailHandlerOversizedBody(t *testing.T) {
	sig := solana.Signature{1}.AppendJSON(nil)
	var b bytes.Buffer
	b.WriteString(`{"ids":[`)
	for b.Len() < 30<<20 {
		b.Write(sig)
		b.WriteByte(',')
	}
	b.Write(sig)
	b.WriteString("]}\n")
	body := b.Bytes()
	srv := NewServer(NewStore(), 0)
	post := func(body io.Reader, length int64) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		r := httptest.NewRequest(http.MethodPost, "/api/v1/transactions", body)
		r.ContentLength = length
		srv.ServeHTTP(rec, r)
		return rec
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	rec := post(bytes.NewReader(body), int64(len(body)))
	runtime.ReadMemStats(&m1)
	if alloc := m1.TotalAlloc - m0.TotalAlloc; alloc >= 4<<20 {
		t.Errorf("30 MiB body: handler allocated %d B, want < 4 MiB", alloc)
	}
	if rec.Code != http.StatusBadRequest || rec.Body.String() != "bad request body\n" {
		t.Errorf("30 MiB body: %d %q, want 400 bad request body", rec.Code, rec.Body)
	}

	padded := append(AppendDetailRequest(nil, DetailRequest{IDs: []solana.Signature{{1}}}), bytes.Repeat([]byte{' '}, maxDetailBody)...)
	for name, body := range map[string][]byte{"30 MiB body": body, "padded request": padded} {
		if rec := post(hiddenLength{bytes.NewReader(body)}, -1); rec.Code != http.StatusBadRequest || rec.Body.String() != "bad request body\n" {
			t.Errorf("%s, length unknown: %d %q, want 400 bad request body", name, rec.Code, rec.Body)
		}
	}
}

// TestDetailHandlerChunkedBodyGrowth: a body of unknown length read to
// the 1 MiB cap grows its buffer by doubling, up to just past the cap, so
// the whole refusal allocates under 2.5 MiB (growing by append's ~1.25×
// step allocated ~5 MiB).
func TestDetailHandlerChunkedBodyGrowth(t *testing.T) {
	body := append(AppendDetailRequest(nil, DetailRequest{IDs: []solana.Signature{{1}}}), bytes.Repeat([]byte{' '}, 2*maxDetailBody)...)
	srv := NewServer(NewStore(), 0)
	rec := httptest.NewRecorder()
	r := httptest.NewRequest(http.MethodPost, "/api/v1/transactions", hiddenLength{bytes.NewReader(body)})
	r.ContentLength = -1
	runtime.GC() // two cycles empty the scratch pool: a cold read
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	srv.ServeHTTP(rec, r)
	runtime.ReadMemStats(&m1)
	if rec.Code != http.StatusBadRequest || rec.Body.String() != "bad request body\n" {
		t.Errorf("chunked body past the cap: %d %q, want 400 bad request body", rec.Code, rec.Body)
	}
	if alloc := m1.TotalAlloc - m0.TotalAlloc; alloc > 5<<19 {
		t.Errorf("chunked body past the cap: handler allocated %d B, want ≤ 2.5 MiB", alloc)
	}
}

// TestMaxDetailBatchFitsBodyCap checks the cap against the longest
// canonical request the collector can send: MaxDetailBatch ids whose
// base58 form is the full 88 characters.
func TestMaxDetailBatchFitsBodyCap(t *testing.T) {
	var sig solana.Signature
	for i := range sig {
		sig[i] = 0xff
	}
	ids := make([]solana.Signature, MaxDetailBatch)
	for i := range ids {
		ids[i] = sig
	}
	body := AppendDetailRequest(nil, DetailRequest{IDs: ids})
	if len(body) > maxDetailBody {
		t.Fatalf("a %d-id request takes %d bytes, over the %d-byte cap", MaxDetailBatch, len(body), maxDetailBody)
	}
	rec := httptest.NewRecorder()
	NewServer(NewStore(), 0).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/transactions", bytes.NewReader(body)))
	if rec.Code != http.StatusOK || rec.Body.String() != "{\"transactions\":[]}\n" {
		t.Fatalf("full batch: %d %q", rec.Code, rec.Body)
	}
}

// TestDetailPoolsKeepNoReferences: a gathered slice goes back to the
// pool holding no token deltas of the store's, and storage above one
// MaxDetailBatch batch is not pooled at all.
func TestDetailPoolsKeepNoReferences(t *testing.T) {
	details := []jito.TxDetail{
		{Sig: solana.Signature{1}, TokenDeltas: []jito.TokenDelta{{Delta: 5}}},
		{Sig: solana.Signature{2}, TokenDeltas: []jito.TokenDelta{{Delta: -5}}},
	}
	putDetails(new([]jito.TxDetail), details)
	for i, d := range details {
		if !reflect.DeepEqual(d, jito.TxDetail{}) {
			t.Fatalf("pooled slice still holds detail %d: %+v", i, d)
		}
	}

	s := NewStore()
	acc := fakeAccepted(1, 3)
	for i := range acc.Details {
		acc.Details[i].TokenDeltas = []jito.TokenDelta{{Delta: int64(i + 1)}}
	}
	s.Accept(0, acc)
	rec := httptest.NewRecorder()
	body := AppendDetailRequest(nil, DetailRequest{IDs: acc.Record.TxIDs})
	NewServer(s, 0).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/transactions", bytes.NewReader(body)))
	if got, _, err := ReadDetailResponse(rec.Body); err != nil || !reflect.DeepEqual(got.Transactions, acc.Details) {
		t.Fatalf("served %+v, %v; want %+v", got.Transactions, err, acc.Details)
	}
	dp := detailPool.Get().(*[]jito.TxDetail)
	for i, d := range (*dp)[:cap(*dp)] {
		if !reflect.DeepEqual(d, jito.TxDetail{}) {
			t.Fatalf("pooled slot %d after a request: %+v", i, d)
		}
	}

	putDetails(new([]jito.TxDetail), make([]jito.TxDetail, 0, MaxDetailBatch+1))
	putIDs(&PageBuffer{sigs: make([]solana.Signature, 0, MaxDetailBatch+1)})
	for i := 0; i < 4; i++ {
		if dp := detailPool.Get().(*[]jito.TxDetail); cap(*dp) > MaxDetailBatch {
			t.Fatalf("detail pool handed back capacity %d", cap(*dp))
		}
		if _, sigs := idPool.Get().(*PageBuffer).Retained(); sigs > MaxDetailBatch {
			t.Fatalf("id pool handed back a %d-signature arena", sigs)
		}
	}
}

func BenchmarkServeTransactions(b *testing.B) {
	s, ids := detailStore(400)
	srv := NewServer(s, 0)
	w := &discardWriter{h: http.Header{}}
	// Half the batch is found, half is not: serve-mixed's batches span
	// bundle lengths whose details the store does not keep.
	req := append([]solana.Signature(nil), ids[:32]...)
	for i := 0; i < 32; i++ {
		var sig solana.Signature
		sig[63], sig[62] = byte(i), 0xee
		req = append(req, sig)
	}
	p := newPostDetails(AppendDetailRequest(nil, DetailRequest{IDs: req}))
	p.serve(srv, w)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.serve(srv, w)
	}
}
