package explorer

import (
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"jitomev/internal/jito"
	"jitomev/internal/obs"
	"jitomev/internal/solana"
)

// RecentResponse is the recent-bundles endpoint's JSON body.
type RecentResponse struct {
	Bundles []jito.BundleRecord `json:"bundles"`
}

// DetailRequest is the bulk transaction endpoint's JSON request body.
type DetailRequest struct {
	IDs []solana.Signature `json:"ids"`
}

// DetailResponse is the bulk transaction endpoint's JSON body.
type DetailResponse struct {
	Transactions []jito.TxDetail `json:"transactions"`
}

// rateLimiter is a simple token bucket per client address.
type rateLimiter struct {
	mu      sync.Mutex
	perMin  int
	buckets map[string]*bucket
	now     func() time.Time
}

type bucket struct {
	tokens float64
	last   time.Time
}

func newRateLimiter(perMin int) *rateLimiter {
	return &rateLimiter{perMin: perMin, buckets: make(map[string]*bucket), now: time.Now}
}

func (r *rateLimiter) allow(client string) bool {
	if r.perMin <= 0 {
		return true
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	b, ok := r.buckets[client]
	now := r.now()
	if !ok {
		b = &bucket{tokens: float64(r.perMin), last: now}
		r.buckets[client] = b
	}
	b.tokens += now.Sub(b.last).Minutes() * float64(r.perMin)
	if max := float64(r.perMin); b.tokens > max {
		b.tokens = max
	}
	b.last = now
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// Routes are the server's request classes: its two API endpoints plus
// "other" for anything that will 404. Every per-route family
// pre-registers all of them so an endpoint nobody hit still exposes its
// zeros — an absent zero is indistinguishable from a missing
// instrument.
var Routes = []string{"recent", "transactions", "other"}

// Outcomes classify a response status for the per-route request
// counters: ok (2xx/3xx), throttled (429), client_error (other 4xx),
// server_error (5xx). These are the SLI denominators the slo package
// compiles against.
var Outcomes = []string{"ok", "throttled", "client_error", "server_error"}

// outcomeOf maps a response status code to its outcome class.
func outcomeOf(status int) string {
	switch {
	case status == http.StatusTooManyRequests:
		return "throttled"
	case status >= 500:
		return "server_error"
	case status >= 400:
		return "client_error"
	}
	return "ok"
}

// routeMetrics is one route's instrument set.
type routeMetrics struct {
	outcomes  map[string]*obs.Counter
	throttled *obs.Counter
	latency   *obs.Histogram
	inflight  *obs.Gauge
}

// Server serves the two explorer endpoints over HTTP. Its tallies live
// on an obs.Registry as labeled per-route series — request outcomes
// (explorer_requests_total{route,outcome}), throttles, serving latency
// and in-flight depth — so the same numbers appear on /metrics, in
// end-of-run summaries, as SLI inputs to the slo package, and in tests
// via Snapshot; the server carries no bespoke counter fields and the
// old global accessors read as sums over the family.
type Server struct {
	store   *Store
	limiter *rateLimiter
	mux     *http.ServeMux

	reg    *obs.Registry
	routes map[string]*routeMetrics
	now    func() time.Time
}

// servingLatencyBuckets bound the serving-latency histogram: 100µs to
// 5s, dense around the 100ms SLO threshold so LatencyUnder can resolve
// it exactly (0.1 is a bound).
var servingLatencyBuckets = []float64{1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1, 2.5, 5}

// NewServer wraps a store with a private registry. ratePerMin caps
// requests per client per minute (0 disables limiting — the in-process
// test default).
func NewServer(store *Store, ratePerMin int) *Server {
	return NewServerObs(store, ratePerMin, nil)
}

// NewServerObs is NewServer tallying onto reg (nil selects a private
// registry, so the server always has one to publish).
func NewServerObs(store *Store, ratePerMin int, reg *obs.Registry) *Server {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s := &Server{
		store:   store,
		limiter: newRateLimiter(ratePerMin),
		mux:     http.NewServeMux(),
		reg:     reg,
		routes:  make(map[string]*routeMetrics, len(Routes)),
		now:     time.Now,
	}
	for _, route := range Routes {
		rm := &routeMetrics{
			outcomes:  make(map[string]*obs.Counter, len(Outcomes)),
			throttled: reg.Counter("explorer_throttled_total", "route", route),
			latency:   reg.Histogram("explorer_request_latency_seconds", servingLatencyBuckets, "route", route),
			inflight:  reg.Gauge("explorer_inflight", "route", route),
		}
		for _, oc := range Outcomes {
			rm.outcomes[oc] = reg.Counter("explorer_requests_total", "route", route, "outcome", oc)
		}
		s.routes[route] = rm
	}
	reg.Help("explorer_requests_total", "HTTP requests received by the explorer server, by route and response outcome.")
	reg.Help("explorer_throttled_total", "Requests rejected with 429 by the per-client rate limiter, by route.")
	reg.Help("explorer_request_latency_seconds", "Wall time from request receipt to response completion, by route.")
	reg.Help("explorer_inflight", "Requests currently being served, by route.")
	// Latency and in-flight depth measure the wall clock and scheduling;
	// the outcome counters stay deterministic (a pure function of the
	// request sequence).
	reg.Volatile("explorer_request_latency_seconds", "explorer_inflight")
	s.mux.HandleFunc("/api/v1/bundles/recent", s.handleRecent)
	s.mux.HandleFunc("/api/v1/transactions", s.handleTransactions)
	return s
}

// Obs returns the registry the server tallies onto, for mounting
// /metrics next to the API and for test assertions.
func (s *Server) Obs() *obs.Registry { return s.reg }

// familySum adds every series of a counter family — the view that
// keeps the pre-split accessors exact under the labeled schema.
func (s *Server) familySum(family string) uint64 {
	var total float64
	for _, sm := range s.reg.Snapshot() {
		if sm.Family == family {
			total += sm.Value
		}
	}
	return uint64(total)
}

// RequestCount reports total requests received (pre-throttle), summed
// across routes and outcomes.
func (s *Server) RequestCount() uint64 { return s.familySum("explorer_requests_total") }

// Throttled reports requests rejected by the rate limiter, summed
// across routes.
func (s *Server) Throttled() uint64 { return s.familySum("explorer_throttled_total") }

// routeOf classifies a request path.
func routeOf(path string) string {
	switch path {
	case "/api/v1/bundles/recent":
		return "recent"
	case "/api/v1/transactions":
		return "transactions"
	}
	return "other"
}

// statusWriter captures the response status for outcome classification.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// ServeHTTP implements http.Handler: classify the route, track
// in-flight depth, serve (throttling first), then record the outcome
// and serving latency.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rm := s.routes[routeOf(r.URL.Path)]
	rm.inflight.Add(1)
	start := s.now()
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}

	client := r.RemoteAddr
	if host, _, err := net.SplitHostPort(client); err == nil {
		client = host // rate-limit per IP, not per ephemeral port
	}
	if !s.limiter.allow(client) {
		rm.throttled.Inc()
		http.Error(sw, "rate limit exceeded", http.StatusTooManyRequests)
	} else {
		s.mux.ServeHTTP(sw, r)
	}

	rm.latency.Observe(s.now().Sub(start).Seconds())
	rm.inflight.Add(-1)
	if c := rm.outcomes[outcomeOf(sw.status)]; c != nil {
		c.Inc()
	}
}

func (s *Server) handleRecent(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	limit := 200 // the endpoint's original default, pre-widening
	if v := queryGet(r.URL.RawQuery, "limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			http.Error(w, "bad limit", http.StatusBadRequest)
			return
		}
		limit = n
	}
	var before uint64
	if v := queryGet(r.URL.RawQuery, "before"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			http.Error(w, "bad before cursor", http.StatusBadRequest)
			return
		}
		before = n
	}
	pp := pagePool.Get().(*[]jito.BundleRecord)
	page, err := s.store.AppendPage((*pp)[:0], before, limit)
	if err != nil {
		// ErrInvalidCursor is a client bug (or a fenced-off stale
		// replica), not server trouble: a non-retryable 4xx, with the
		// reason in the body so the caller can tell it from "bad limit".
		http.Error(w, err.Error(), http.StatusBadRequest)
	} else {
		writeWire(w, RecentResponse{Bundles: page}, AppendRecent)
	}
	putPage(pp, page)
}

// queryGet is url.ParseQuery(raw).Get(key) without building the
// url.Values map: pairs split on '&', a pair holding ';' or an invalid
// escape is skipped, and the first value wins even when it is empty.
// Only a pair that needs unescaping allocates.
func queryGet(raw, key string) string {
	for raw != "" {
		var pair string
		pair, raw, _ = strings.Cut(raw, "&")
		if strings.Contains(pair, ";") {
			continue
		}
		k, v, _ := strings.Cut(pair, "=")
		if k, err := url.QueryUnescape(k); err != nil || k != key {
			continue
		}
		if v, err := url.QueryUnescape(v); err == nil {
			return v
		}
	}
	return ""
}

// maxPooledPage caps the page slices kept for reuse, in records: a
// default 200-record page fits, a widened page is left to the collector
// (compare maxPooledScratch).
const maxPooledPage = 1024

// pagePool holds the slices handleRecent copies pages into. They start
// empty but non-nil, so an empty store still encodes as [] and not null.
var pagePool = sync.Pool{New: func() any { return &[]jito.BundleRecord{} }}

// putPage returns page's storage to the pool unless it outgrew the cap,
// first dropping its references into the store's records.
func putPage(pp *[]jito.BundleRecord, page []jito.BundleRecord) {
	if cap(page) > maxPooledPage {
		return
	}
	clear(page)
	*pp = page[:0]
	pagePool.Put(pp)
}

// maxDetailBody caps a detail request body. MaxDetailBatch canonical
// ids need at most 10,000 × 91 bytes (a quoted 88-character signature
// and its comma) plus the 11-byte frame, about 910 KB; a longer body is
// refused unread.
const maxDetailBody = 1 << 20

func (s *Server) handleTransactions(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	if r.ContentLength > maxDetailBody {
		http.Error(w, "bad request body", http.StatusBadRequest)
		return
	}
	pb := idPool.Get().(*PageBuffer)
	defer putIDs(pb)
	req, _, err := pb.readIDs(http.MaxBytesReader(w, r.Body, maxDetailBody), r.ContentLength, maxDetailBody)
	if err != nil {
		http.Error(w, "bad request body", http.StatusBadRequest)
		return
	}
	if len(req.IDs) > MaxDetailBatch {
		http.Error(w, "too many ids", http.StatusBadRequest)
		return
	}
	dp := detailPool.Get().(*[]jito.TxDetail)
	details := s.store.AppendTxDetails((*dp)[:0], req.IDs)
	writeWire(w, DetailResponse{Transactions: details}, AppendDetailResponse)
	putDetails(dp, details)
}

// idPool holds the buffers handleTransactions decodes request ids into.
var idPool = sync.Pool{New: func() any { return new(PageBuffer) }}

// putIDs returns pb to the pool unless its arena outgrew one
// MaxDetailBatch batch.
func putIDs(pb *PageBuffer) {
	if _, sigs := pb.Retained(); sigs > MaxDetailBatch {
		return
	}
	idPool.Put(pb)
}

// detailPool holds the slices handleTransactions gathers responses
// into. They start empty but non-nil, so a batch that finds nothing
// still encodes as [] and not null.
var detailPool = sync.Pool{New: func() any { return &[]jito.TxDetail{} }}

// putDetails returns details' storage to the pool unless it outgrew one
// MaxDetailBatch batch, first dropping its references into the store's
// token deltas.
func putDetails(dp *[]jito.TxDetail, details []jito.TxDetail) {
	if cap(details) > MaxDetailBatch {
		return
	}
	clear(details)
	*dp = details[:0]
	detailPool.Put(dp)
}
