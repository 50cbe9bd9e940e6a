package collector

import (
	"net/http/httptest"
	"testing"

	"jitomev/internal/explorer"
	"jitomev/internal/solana"
)

// BenchmarkHTTPPoll is one steady-state poll over loopback HTTP at the
// scaled study's page size: a bundle lands, the collector fetches the
// 20-record page (19 records already seen), ingests it and keeps the
// record when it is length 3. B/op and allocs/op count the whole
// process, the in-process explorer's handler included, as the study-http
// benchmark does.
func BenchmarkHTTPPoll(b *testing.B) {
	store := explorer.NewStore()
	srv := httptest.NewServer(explorer.NewServer(store, 0))
	defer srv.Close()
	c := New(Config{PageLimit: 20}, testClock, NewHTTP(srv.URL))
	seq := 0
	land := func() {
		seq++
		n := 1
		if seq%36 == 0 { // ~2.8% length-3, the paper's share
			n = 3
		}
		store.Accept(0, fakeAccepted(seq, n, solana.Slot(seq), 1_000))
	}
	for i := 0; i < 100; i++ {
		land()
		if err := c.Poll(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		land()
		if err := c.Poll(); err != nil {
			b.Fatal(err)
		}
	}
}
