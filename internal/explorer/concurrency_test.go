package explorer

// Concurrency tests for the store and server: a live explorer accepts
// bundles from the producing validator while serving reads to a polling
// scraper, so writer/reader interleavings must be safe under the race
// detector (this package is part of the `make verify` race matrix).

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"jitomev/internal/solana"
)

func TestStoreConcurrentAcceptAndRead(t *testing.T) {
	s := NewStore()
	const writers, perWriter = 4, 250

	// Seq is assigned by a single sequencer in production (the block
	// engine), so acceptance order and Seq order agree — the invariant
	// Recent/RecentBefore pagination relies on. The writers here contend
	// on the store but must allocate seq at accept time, not up front,
	// or interleaved pre-assigned Seqs would break that invariant.
	var seqMu sync.Mutex
	seq := 0
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				seqMu.Lock()
				seq++
				s.Accept(0, fakeAccepted(seq, 3))
				seqMu.Unlock()
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for s.Len() < writers*perWriter {
			page := s.Recent(50)
			// Pages must always be internally consistent: newest first.
			for i := 1; i < len(page); i++ {
				if page[i].Seq > page[i-1].Seq {
					t.Error("page out of order under concurrent writes")
					return
				}
			}
			if len(page) > 0 {
				if _, err := s.RecentBefore(page[0].Seq, 20); err != nil {
					t.Errorf("RecentBefore with a served cursor: %v", err)
					return
				}
				s.TxDetails([]solana.Signature{page[0].TxIDs[0]})
			}
		}
	}()
	wg.Wait()
	<-done

	if s.Len() != writers*perWriter {
		t.Fatalf("Len = %d, want %d", s.Len(), writers*perWriter)
	}
}

// TestServerConcurrentClients has pagers and detail clients share the
// handlers' pools while writes land: every page is served whole, and
// every detail batch gets exactly its own details back.
func TestServerConcurrentClients(t *testing.T) {
	s := NewStore()
	var ids []solana.Signature
	for i := 1; i <= 500; i++ {
		acc := fakeAccepted(i, 3)
		s.Accept(0, acc)
		ids = append(ids, acc.Record.TxIDs...)
	}
	srv := httptest.NewServer(NewServer(s, 0))
	defer srv.Close()

	var wg sync.WaitGroup
	// One slot per request, so no client blocks on a full channel.
	errs := make(chan error, (8+4)*25)
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				resp, err := http.Get(srv.URL + "/api/v1/bundles/recent?limit=40")
				if err != nil {
					errs <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("status %d", resp.StatusCode)
				}
				resp.Body.Close()
			}
		}()
	}
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				// Batches of different sizes, so pooled storage is
				// handed between requests that need different amounts.
				batch := ids[(c*25+i)*10%len(ids):][:1+(c*7+i)%40]
				resp, err := http.Post(srv.URL+"/api/v1/transactions", "application/json",
					bytes.NewReader(AppendDetailRequest(nil, DetailRequest{IDs: batch})))
				if err != nil {
					errs <- err
					return
				}
				got, _, err := ReadDetailResponse(resp.Body)
				resp.Body.Close()
				if want := s.TxDetails(batch); err != nil || !reflect.DeepEqual(got.Transactions, want) {
					errs <- fmt.Errorf("detail batch of %d: %d details, %v", len(batch), len(got.Transactions), err)
				}
			}
		}(c)
	}
	// Writes keep landing while the clients read.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 501; i <= 600; i++ {
			s.Accept(0, fakeAccepted(i, 1))
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
