package explorer

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"testing"

	"jitomev/internal/jito"
)

// raceEnabled is set under the race detector (race_test.go).
var raceEnabled bool

// TestAppendPageMatchesWrappers checks the one page path against the
// wrappers built on it, including the non-nil empty page and the
// cursor error.
func TestAppendPageMatchesWrappers(t *testing.T) {
	s := NewStore()
	if page := s.Recent(5); page == nil || len(page) != 0 {
		t.Fatalf("empty store Recent = %#v, want non-nil empty", page)
	}
	for i := 1; i <= 30; i++ {
		s.Accept(0, fakeAccepted(i, 1))
	}
	prefix := s.Recent(1)
	for _, before := range []uint64{0, 1, 2, 17, 30, 31} {
		for _, limit := range []int{1, 5, 29, 30, 100} {
			want, err := s.RecentBefore(before, limit)
			if err != nil {
				t.Fatal(err)
			}
			got, err := s.AppendPage(append([]jito.BundleRecord(nil), prefix...), before, limit)
			if err != nil || len(got) != 1+len(want) || got[0].Seq != prefix[0].Seq {
				t.Fatalf("AppendPage(before=%d, limit=%d) = %d records, err %v", before, limit, len(got), err)
			}
			for i := range want {
				if got[1+i].Seq != want[i].Seq {
					t.Fatalf("before=%d limit=%d: record %d seq %d, want %d", before, limit, i, got[1+i].Seq, want[i].Seq)
				}
			}
		}
	}
	got, err := s.AppendPage(prefix, 32, 5)
	if !errors.Is(err, ErrInvalidCursor) || len(got) != 1 {
		t.Errorf("invalid cursor: %d records, err %v", len(got), err)
	}
	if page, err := s.RecentBefore(32, 5); page != nil || err.Error() != "explorer: cursor beyond sequence high-water: before=32, high-water 30" {
		t.Errorf("RecentBefore(32) = %v, %v", page, err)
	}
}

// discardWriter is a ResponseWriter that keeps nothing but its header.
type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *discardWriter) WriteHeader(int)             {}

// TestRecentHandlerAllocs bounds the recent-page handler: query parsing
// and the response header, but no page copy and no body buffer once the
// pools are warm.
func TestRecentHandlerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	s := NewStore()
	for i := 1; i <= 1000; i++ {
		s.Accept(0, fakeAccepted(i, 3))
	}
	srv := NewServer(s, 0)
	w := &discardWriter{h: http.Header{}}
	// Query parsing into url.Values and the Content-Type header account
	// for these; the page and the body buffer come from pools.
	for target, bound := range map[string]float64{
		"/api/v1/bundles/recent?limit=200":            4,
		"/api/v1/bundles/recent?limit=200&before=500": 5,
	} {
		r := httptest.NewRequest(http.MethodGet, target, nil)
		if n := testing.AllocsPerRun(100, func() { srv.handleRecent(w, r) }); n > bound {
			t.Errorf("%s: handler allocates %v times, want <= %v", target, n, bound)
		}
	}
}

func FuzzRecentQuery(f *testing.F) {
	// Seeds from the limit and before tests: valid pages, a caught-up
	// cursor, cursors at and beyond the high-water, and malformed values.
	for _, q := range [][2]string{
		{"5", ""}, {"5", "3"}, {"5", "99"}, {"5", "6"}, {"5", "1"}, {"", ""}, {"", "4"},
		{"abc", ""}, {"-5", ""}, {"0", ""}, {"5", "-1"}, {"5", "x"}, {"99999999", "0"},
		{"+3", "0x4"}, {"9223372036854775808", "18446744073709551616"},
	} {
		f.Add(q[0], q[1])
	}
	s := NewStore()
	for i := 1; i <= 5; i++ {
		s.Accept(0, fakeAccepted(i, 1))
	}
	srv := NewServer(s, 0)
	f.Fuzz(func(t *testing.T, limit, before string) {
		q := url.Values{}
		if limit != "" {
			q.Set("limit", limit)
		}
		if before != "" {
			q.Set("before", before)
		}
		rec := httptest.NewRecorder()
		srv.handleRecent(rec, httptest.NewRequest(http.MethodGet, "/api/v1/bundles/recent?"+q.Encode(), nil))
		switch rec.Code {
		case http.StatusBadRequest:
			return
		case http.StatusOK:
		default:
			t.Fatalf("limit=%q before=%q: status %d", limit, before, rec.Code)
		}
		n := 200
		if limit != "" {
			var err error
			if n, err = strconv.Atoi(limit); err != nil || n <= 0 {
				t.Fatalf("limit=%q served 200", limit)
			}
		}
		var cursor uint64
		if before != "" {
			var err error
			if cursor, err = strconv.ParseUint(before, 10, 64); err != nil {
				t.Fatalf("before=%q served 200", before)
			}
		}
		page, err := s.RecentBefore(cursor, n)
		if err != nil {
			t.Fatalf("limit=%q before=%q served 200, store says %v", limit, before, err)
		}
		if want := AppendRecent(nil, RecentResponse{Bundles: page}); !bytes.Equal(rec.Body.Bytes(), want) {
			t.Fatalf("limit=%q before=%q: body %q, want %q", limit, before, rec.Body.Bytes(), want)
		}
	})
}
