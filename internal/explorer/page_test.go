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

// TestRecentHandlerAllocs bounds the recent-page handler: the response
// header, but no query map, no page copy and no body buffer once the
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
	for _, target := range []string{
		"/api/v1/bundles/recent?limit=200",
		"/api/v1/bundles/recent?limit=200&before=500",
	} {
		r := httptest.NewRequest(http.MethodGet, target, nil)
		for _, h := range []struct {
			name  string
			serve func()
			bound float64
		}{
			// The Content-Type header value.
			{"handler", func() { srv.handleRecent(w, r) }, 1},
			// Plus the status-capturing writer.
			{"ServeHTTP", func() { srv.ServeHTTP(w, r) }, 2},
		} {
			if n := testing.AllocsPerRun(100, h.serve); n > h.bound {
				t.Errorf("%s %s: allocates %v times, want <= %v", h.name, target, n, h.bound)
			}
		}
	}
}

// FuzzRecentQuery serves a raw query string followed by encoded limit
// and before values, and requires exactly what url.ParseQuery and Get
// make of it: a 400 for a bad limit, a bad cursor or one past the
// high-water, else a 200 carrying the store's page.
func FuzzRecentQuery(f *testing.F) {
	// Seeds from the limit and before tests: valid pages, a caught-up
	// cursor, cursors at and beyond the high-water, and malformed values.
	for _, q := range [][2]string{
		{"5", ""}, {"5", "3"}, {"5", "99"}, {"5", "6"}, {"5", "1"}, {"", ""}, {"", "4"},
		{"abc", ""}, {"-5", ""}, {"0", ""}, {"5", "-1"}, {"5", "x"}, {"99999999", "0"},
		{"+3", "0x4"}, {"9223372036854775808", "18446744073709551616"},
	} {
		f.Add(q[0], q[1], "")
	}
	// Raw queries: semicolons, repeated keys, empty values, escapes in
	// keys and values, and invalid escapes.
	for _, raw := range []string{
		"limit=3;before=2", "li;mit=2&limit=3", "limit=2&limit=4", "limit=&limit=4",
		"limit", "=5&limit=2", "&&limit=2&", "limit=%33&before=%34", "limi%74=2&before=4",
		"limit=+3", "limit=3+", "before=%2B4", "limit=%zz&limit=2", "limit=%&limit=2",
		"lim%it=1&limit=2", "before=3&before=x", "before=&before=3", "limit=2&limit=x;",
	} {
		f.Add("", "", raw)
		f.Add("4", "5", raw)
	}
	s := NewStore()
	for i := 1; i <= 5; i++ {
		s.Accept(0, fakeAccepted(i, 1))
	}
	srv := NewServer(s, 0)
	f.Fuzz(func(t *testing.T, limit, before, raw string) {
		q := url.Values{}
		if limit != "" {
			q.Set("limit", limit)
		}
		if before != "" {
			q.Set("before", before)
		}
		query := q.Encode()
		if raw != "" {
			query = raw + "&" + query
		}
		r := httptest.NewRequest(http.MethodGet, "/api/v1/bundles/recent", nil)
		r.URL.RawQuery = query
		rec := httptest.NewRecorder()
		srv.handleRecent(rec, r)

		vals, _ := url.ParseQuery(query)
		n, err := 200, error(nil)
		if v := vals.Get("limit"); v != "" {
			if n, err = strconv.Atoi(v); err == nil && n <= 0 {
				err = errors.New("bad limit")
			}
		}
		var cursor uint64
		if v := vals.Get("before"); v != "" && err == nil {
			cursor, err = strconv.ParseUint(v, 10, 64)
		}
		var page []jito.BundleRecord
		if err == nil {
			page, err = s.RecentBefore(cursor, n)
		}
		switch {
		case err != nil && rec.Code != http.StatusBadRequest:
			t.Fatalf("query %q: status %d, want 400 (%v)", query, rec.Code, err)
		case err != nil:
		case rec.Code != http.StatusOK:
			t.Fatalf("query %q: status %d, want 200", query, rec.Code)
		default:
			if want := AppendRecent(nil, RecentResponse{Bundles: page}); !bytes.Equal(rec.Body.Bytes(), want) {
				t.Fatalf("query %q: body %q, want %q", query, rec.Body.Bytes(), want)
			}
		}
	})
}
