// Package explorer simulates the Jito Explorer website's undocumented API —
// the data source the paper reverse-engineered (§3.1). It has exactly the
// two endpoints the paper used:
//
//	GET  /api/v1/bundles/recent?limit=N   — the most recent N bundles
//	                                        (bundleIds, transactionIds, tip);
//	                                        the paper widened N from 200 to
//	                                        50,000
//	POST /api/v1/transactions             — bulk transaction details for up
//	                                        to 10,000 transactionIds
//
// plus the same operational constraints: a hard page cap and a per-client
// rate limit, so the collector has to behave like the paper's scraper.
package explorer

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"jitomev/internal/jito"
	"jitomev/internal/solana"
)

// ErrInvalidCursor marks a `before` cursor beyond the store's sequence
// high-water: no page the store ever served could have produced it, so
// the client is confused (or stale — a fleet replica resuming from a
// checkpoint written against a different explorer). Distinct from the
// legitimate caught-up case, which is an empty page with a nil error.
var ErrInvalidCursor = errors.New("explorer: cursor beyond sequence high-water")

// MaxPageLimit is the hard cap on the recent-bundles page size (the value
// the paper's widened request used).
const MaxPageLimit = 50_000

// MaxDetailBatch is the cap on a bulk transaction-detail request (the
// paper requested "only 10,000 transactions at a time").
const MaxDetailBatch = 10_000

// recordChunkLen is the number of bundle records one Store chunk holds:
// 256 × 88 B, about 22 KiB per allocation, so a study of a few thousand
// bundles leaves at most one part-filled chunk.
const recordChunkLen = 256

// recordChunk is a fixed block of bundle records, in acceptance order.
type recordChunk [recordChunkLen]jito.BundleRecord

// Store is the explorer's backing data: every bundle the block engine ever
// accepted, in acceptance order, plus transaction details. It implements
// the workload Sink contract so a study streams straight into it.
//
// Details are retained only for bundles whose length is in DetailLengths
// (default: length 3) — mirroring both the paper's collection choice and
// the memory reality of holding four months of traffic.
//
// Records live in fixed-size chunks that never move, as details do in a
// jito.DetailSet, so accepting a bundle never copies the records before
// it.
type Store struct {
	mu      sync.RWMutex
	chunks  []*recordChunk
	n       int // records held
	details jito.DetailSet

	// DetailLengths selects which bundle lengths get their transaction
	// details retained. Nil means {3}.
	detailLengths map[int]bool
}

// NewStore creates a store retaining details for length-3 bundles.
func NewStore() *Store {
	return &Store{detailLengths: map[int]bool{3: true}}
}

// RetainDetailsFor widens or narrows the set of bundle lengths whose
// transaction details are retained. Must be called before data flows in.
func (s *Store) RetainDetailsFor(lengths ...int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.detailLengths = make(map[int]bool, len(lengths))
	for _, n := range lengths {
		s.detailLengths[n] = true
	}
}

// Accept implements the study sink: it appends the bundle record and
// retains details for selected lengths.
func (s *Store) Accept(_ int, acc *jito.Accepted) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.n%recordChunkLen == 0 {
		s.chunks = append(s.chunks, new(recordChunk))
	}
	*s.at(s.n) = acc.Record
	s.n++
	if s.detailLengths[acc.Record.NumTxs()] {
		for i := range acc.Details {
			s.details.Put(acc.Details[i])
		}
	}
}

// Len returns the number of stored bundle records.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.n
}

// at returns record i, 0 <= i < n. The caller holds mu.
func (s *Store) at(i int) *jito.BundleRecord {
	return &s.chunks[i/recordChunkLen][i%recordChunkLen]
}

// highWater returns the newest record's Seq, or 0 when the store is
// empty. The caller holds mu.
func (s *Store) highWater() uint64 {
	if s.n == 0 {
		return 0
	}
	return s.at(s.n - 1).Seq
}

// Recent returns the most recent limit bundles, newest first, capped at
// MaxPageLimit — the shape of the explorer's recent-bundles response.
func (s *Store) Recent(limit int) []jito.BundleRecord {
	if limit <= 0 {
		return nil
	}
	page, _ := s.AppendPage([]jito.BundleRecord{}, 0, limit)
	return page
}

// HighWater returns the highest acceptance sequence the store holds
// (0 when empty) — the denominator cursor validation and fleet
// partition planning both read.
func (s *Store) HighWater() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.highWater()
}

// RecentBefore returns up to limit bundles whose acceptance sequence is
// strictly below beforeSeq, newest first. beforeSeq 0 means "from the
// newest". This is the cursor the backfilling collector uses to recover
// bundles that scrolled past the page during a traffic spike, and the
// cursor fleet replicas page their partitions backwards with.
//
// A cursor the store could never have handed out — beyond HighWater()+1
// — fails with ErrInvalidCursor rather than aliasing the newest page:
// "caught up" (an empty page, nil error) and "your cursor is nonsense"
// are different conditions and a months-long scrape must not conflate
// them.
func (s *Store) RecentBefore(beforeSeq uint64, limit int) ([]jito.BundleRecord, error) {
	if limit <= 0 {
		return nil, nil
	}
	page, err := s.AppendPage([]jito.BundleRecord{}, beforeSeq, limit)
	if err != nil {
		return nil, err
	}
	return page, nil
}

// AppendPage appends the page RecentBefore(beforeSeq, limit) returns to
// dst, growing it at most once. It appends nothing for limit <= 0, and
// on ErrInvalidCursor returns dst unchanged.
func (s *Store) AppendPage(dst []jito.BundleRecord, beforeSeq uint64, limit int) ([]jito.BundleRecord, error) {
	if limit <= 0 {
		return dst, nil
	}
	if limit > MaxPageLimit {
		limit = MaxPageLimit
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if hw := s.highWater(); beforeSeq > 0 && (s.n == 0 || beforeSeq > hw+1) {
		return dst, fmt.Errorf("%w: before=%d, high-water %d", ErrInvalidCursor, beforeSeq, hw)
	}
	// Seq is assigned in acceptance order, so records are sorted by Seq;
	// binary search the upper bound.
	hi := s.n
	if beforeSeq > 0 {
		hi = sort.Search(s.n, func(i int) bool { return s.at(i).Seq >= beforeSeq })
	}
	limit = min(limit, hi)
	dst = slices.Grow(dst, limit)
	for i := 1; i <= limit; i++ {
		dst = append(dst, *s.at(hi - i))
	}
	return dst, nil
}

// TxDetails returns details for the requested transaction ids. Unknown ids
// are simply absent from the response, like a real bulk endpoint.
func (s *Store) TxDetails(ids []solana.Signature) []jito.TxDetail {
	return s.AppendTxDetails([]jito.TxDetail{}, ids)
}

// AppendTxDetails appends the details TxDetails(ids) returns to dst,
// growing it at most once, to room for every requested id. Ids past
// MaxDetailBatch are ignored.
func (s *Store) AppendTxDetails(dst []jito.TxDetail, ids []solana.Signature) []jito.TxDetail {
	if len(ids) > MaxDetailBatch {
		ids = ids[:MaxDetailBatch]
	}
	if cap(dst)-len(dst) < len(ids) {
		// An exact capacity, not append's rounded-up growth, so a full
		// MaxDetailBatch response still fits the handler's pool bound.
		dst = append(make([]jito.TxDetail, 0, len(dst)+len(ids)), dst...)
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, id := range ids {
		if d, ok := s.details.Get(id); ok {
			dst = append(dst, d)
		}
	}
	return dst
}

// All returns a snapshot copy of every record, oldest first. Test and
// report helper; not exposed over HTTP.
func (s *Store) All() []jito.BundleRecord {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.n == 0 {
		return nil
	}
	all := make([]jito.BundleRecord, 0, s.n)
	for _, c := range s.chunks {
		all = append(all, c[:min(s.n-len(all), recordChunkLen)]...)
	}
	return all
}
