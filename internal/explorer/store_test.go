package explorer

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"jitomev/internal/jito"
)

// pageOf is the reference page: records with Seq below before (all when
// before is 0), newest first, at most limit of them.
func pageOf(recs []jito.BundleRecord, before uint64, limit int) []jito.BundleRecord {
	var page []jito.BundleRecord
	for i := len(recs) - 1; i >= 0 && len(page) < limit; i-- {
		if before == 0 || recs[i].Seq < before {
			page = append(page, recs[i])
		}
	}
	return page
}

// sameRecords compares record lists, an empty one equal to nil.
func sameRecords(a, b []jito.BundleRecord) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

// TestStoreChunkBoundaries: a store of 0, chunk-1, chunk and chunk+1
// records pages, validates cursors and copies out exactly as one flat
// slice of its records would. Seqs step by 3, so cursors fall between
// records as well as on them.
func TestStoreChunkBoundaries(t *testing.T) {
	for _, n := range []int{0, recordChunkLen - 1, recordChunkLen, recordChunkLen + 1} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			s := NewStore()
			var want []jito.BundleRecord
			for i := 1; i <= n; i++ {
				acc := fakeAccepted(i, 1+i%3)
				acc.Record.Seq = uint64(3 * i)
				s.Accept(0, acc)
				want = append(want, acc.Record)
			}
			hw := uint64(3 * n)
			if s.Len() != n || s.HighWater() != hw {
				t.Fatalf("Len %d, HighWater %d; want %d, %d", s.Len(), s.HighWater(), n, hw)
			}
			if got := s.All(); !reflect.DeepEqual(got, want) {
				t.Fatalf("All() holds %d records, want %d in acceptance order", len(got), len(want))
			}

			cursors := []uint64{0, 1, 2, 3, 4, hw / 2, hw - 1, hw, hw + 1}
			for _, before := range cursors {
				if before > hw+1 || (n == 0 && before > 0) {
					continue
				}
				for _, limit := range []int{1, 7, recordChunkLen, n + 5} {
					got, err := s.RecentBefore(before, limit)
					if err != nil {
						t.Fatalf("RecentBefore(%d, %d): %v", before, limit, err)
					}
					if ref := pageOf(want, before, limit); !sameRecords(got, ref) {
						t.Fatalf("RecentBefore(%d, %d) = %d records, want %d", before, limit, len(got), len(ref))
					}
				}
			}

			// No page holds a cursor past the high-water's successor, and
			// an empty store no non-zero cursor at all.
			invalid := []uint64{hw + 2, hw + 3*recordChunkLen}
			if n == 0 {
				invalid = append(invalid, 1)
			}
			dst := make([]jito.BundleRecord, 1)
			for _, before := range invalid {
				page, err := s.AppendPage(dst, before, 5)
				if !errors.Is(err, ErrInvalidCursor) || len(page) != 1 {
					t.Fatalf("AppendPage(before %d) over high-water %d: %d records, err %v", before, hw, len(page), err)
				}
			}

			// Paging backwards from the newest record reads every record
			// once, newest first, across the chunk seams.
			for _, size := range []int{1, 100, recordChunkLen} {
				var got []jito.BundleRecord
				before := uint64(0)
				for {
					page, err := s.RecentBefore(before, size)
					if err != nil {
						t.Fatal(err)
					}
					if len(page) == 0 {
						break
					}
					got = append(got, page...)
					before = page[len(page)-1].Seq
				}
				if ref := pageOf(want, 0, n); !sameRecords(got, ref) {
					t.Fatalf("paging by %d read %d records, want %d", size, len(got), n)
				}
			}
		})
	}
}
