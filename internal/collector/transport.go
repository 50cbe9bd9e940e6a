package collector

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"jitomev/internal/explorer"
	"jitomev/internal/faults"
	"jitomev/internal/jito"
	"jitomev/internal/obs"
	"jitomev/internal/solana"
)

// Transport abstracts the explorer API so studies can run either over real
// HTTP (the faithful path) or in-process (the fast path for large scales).
//
// A returned page is valid until the next call of the same method on the
// same transport: an implementation may decode into storage it reuses
// (HTTP does, and drives one connection per method), and a caller copies
// whatever it keeps. So each method serves one call at a time, while
// different methods may run at once. Dataset.Ingest is the one place
// collection keeps records, and it copies them.
type Transport interface {
	// RecentBundles returns up to limit of the most recent bundles,
	// newest first.
	RecentBundles(limit int) ([]jito.BundleRecord, error)
	// RecentBundlesBefore pages backwards: up to limit bundles whose
	// acceptance sequence is strictly below beforeSeq, newest first.
	// Used by the backfill path to recover spike-overflowed bundles.
	RecentBundlesBefore(beforeSeq uint64, limit int) ([]jito.BundleRecord, error)
	// TxDetails returns details for the given transaction ids; unknown
	// ids are absent from the result.
	TxDetails(ids []solana.Signature) ([]jito.TxDetail, error)
}

// Direct is the in-process transport: it reads the explorer store without
// HTTP. Used for large-scale studies and as the control in transport
// equivalence tests. Like HTTP, it copies each page into storage it
// reuses (see Transport), so one Direct serves one caller at a time per
// method.
type Direct struct {
	Store *explorer.Store

	recentPage, beforePage []jito.BundleRecord
}

// RecentBundles implements Transport. The page is valid until the next
// RecentBundles call.
func (d *Direct) RecentBundles(limit int) ([]jito.BundleRecord, error) {
	d.recentPage, _ = d.Store.AppendPage(d.recentPage[:0], 0, limit)
	return d.recentPage, nil
}

// RecentBundlesBefore implements Transport. The page is valid until the
// next RecentBundlesBefore call.
func (d *Direct) RecentBundlesBefore(beforeSeq uint64, limit int) ([]jito.BundleRecord, error) {
	page, err := d.Store.AppendPage(d.beforePage[:0], beforeSeq, limit)
	d.beforePage = page
	if err != nil {
		return nil, err
	}
	return page, nil
}

// TxDetails implements Transport.
func (d *Direct) TxDetails(ids []solana.Signature) ([]jito.TxDetail, error) {
	return d.Store.TxDetails(ids), nil
}

// ErrCircuitOpen is returned (wrapped) when an endpoint's circuit breaker
// is open: recent calls failed persistently and the cooldown has not
// elapsed, so the call is rejected without touching the network.
var ErrCircuitOpen = errors.New("collector: circuit open")

// HTTP is the faithful transport: it speaks the explorer's JSON API like
// the paper's scraper spoke to explorer.jito.wtf, and survives the API's
// documented misbehaviours — throttling (429 + Retry-After), transient
// 5xx, timeouts, oversized or damaged bodies — with capped jittered
// exponential backoff and a per-endpoint circuit breaker. A four-month
// collection rides on this loop, so every failure mode is bounded: retry
// counts, backoff delays, response bytes, consecutive-failure streaks.
//
// It speaks HTTP/1.1 itself rather than through net/http's client: each
// method's slot keeps one connection alive and drives it on the calling
// goroutine (see conn), so a warm round trip's client side allocates
// nothing beyond a traced call's traceparent string. Every attempt — dial, request, response headers and the whole
// body — is bounded to 30 s by one connection deadline. Close drops the
// connections.
type HTTP struct {
	// BaseURL is the explorer's http:// base URL; no other scheme is
	// spoken.
	BaseURL string

	// Context, when non-nil, bounds every request and backoff sleep;
	// cancelling it aborts in-flight collection promptly. nil means
	// context.Background() (a long-lived scraper with no deadline).
	Context context.Context

	// MaxRetries bounds retry attempts after the first try. Retried:
	// transport errors, timeouts, 429 and 5xx. Not retried: other 4xx
	// (a malformed request will not improve) and decode failures of a
	// 200 body (a cached corrupt page may repeat verbatim).
	MaxRetries int
	// Backoff is the base delay between retries (doubled each attempt,
	// jittered ±50%, capped at MaxBackoff).
	Backoff time.Duration
	// MaxBackoff caps the exponential backoff and any server-suggested
	// Retry-After delay, so a hostile header cannot stall the scraper.
	// 0 selects 5s.
	MaxBackoff time.Duration
	// MaxBody bounds how many response-body bytes a single request may
	// buffer through the JSON decoder — a hostile or corrupt payload
	// cannot balloon memory (the same bounded-allocation guarantee
	// snapshot decoding gives). 0 selects 256 MiB, comfortably above the
	// largest legitimate 50,000-bundle page. Bodies cut by the bound
	// surface as truncation errors.
	MaxBody int64

	// BreakerThreshold opens an endpoint's circuit after this many
	// consecutive exhausted calls (0 selects 5); while open, calls fail
	// fast with ErrCircuitOpen until BreakerCooldown (0 selects 2s)
	// elapses, then a single half-open probe decides: success closes the
	// breaker, failure re-opens it for another cooldown.
	BreakerThreshold int
	BreakerCooldown  time.Duration

	// now and sleep are injectable for tests; nil selects the real clock.
	now   func() time.Time
	sleep func(context.Context, time.Duration) error

	mu       sync.Mutex
	breakers map[string]*breaker
	jitterN  uint64

	// recentSlot, beforeSlot and detailSlot hold each method's
	// connection, reusable request buffers and the last page it decoded
	// (see Transport and slot): one per method, because Collector.poll
	// still holds the newest page while backfill pages backwards, and
	// different methods may run at once.
	recentSlot, beforeSlot, detailSlot slot

	// Every tally the transport keeps — request attempts, retries,
	// backoff sleeps, Retry-After honors, bytes read, breaker
	// transitions — lives on an obs.Registry under the
	// collector_http_* families. WithObs rebinds the registry; by
	// default each transport gets a private one.
	reg       *obs.Registry
	endpoints map[string]*endpointObs
	breakerTo [3]*obs.Counter // transitions, indexed by target state
	shorted   *obs.Counter

	// traceCtx, when bound, parents a child span around every logical
	// request and rides the wire as a traceparent header. Collection is
	// sequential (one transport call at a time), so a single binding
	// covers the call in flight; BindTrace swaps it per operation.
	traceMu  sync.Mutex
	traceCtx obs.SpanCtx
}

// endpointObs carries the per-endpoint registry handles.
type endpointObs struct {
	attempts   *obs.Counter
	retries    *obs.Counter
	sleeps     *obs.Counter
	sleepSecs  *obs.FloatGauge
	retryAfter *obs.Counter
	bytes      *obs.Counter
	seconds    *obs.Histogram
}

// NewHTTP returns an HTTP transport with sane defaults and a private
// registry. Its requests do not negotiate compression: a body sent with
// Content-Encoding: gzip anyway stays as sent, to fail decode like any
// other non-JSON body.
func NewHTTP(baseURL string) *HTTP {
	h := &HTTP{
		BaseURL:    baseURL,
		MaxRetries: 3,
		Backoff:    50 * time.Millisecond,
	}
	h.bindObs(obs.NewRegistry())
	return h
}

// Close drops the transport's kept-alive connections and its hooks on
// Context. Call it when no call is in flight; a later call dials afresh.
func (h *HTTP) Close() {
	for _, s := range []*slot{&h.recentSlot, &h.beforeSlot, &h.detailSlot} {
		s.conn.close()
		s.conn.unwatch()
	}
}

// WithContext binds ctx to all subsequent requests and backoff waits.
// It returns h for chaining.
func (h *HTTP) WithContext(ctx context.Context) *HTTP {
	h.Context = ctx
	return h
}

// WithObs rebinds the transport's tallies onto reg (call before the
// first request). It returns h for chaining.
func (h *HTTP) WithObs(reg *obs.Registry) *HTTP {
	if reg != nil {
		h.bindObs(reg)
	}
	return h
}

// bindObs (re)creates the registry handles on reg.
func (h *HTTP) bindObs(reg *obs.Registry) {
	h.reg = reg
	h.endpoints = make(map[string]*endpointObs)
	reg.Help("collector_http_requests_total", "HTTP request attempts (retries included), by endpoint.")
	reg.Help("collector_http_breaker_transitions_total", "Circuit-breaker state transitions.")
	reg.Help("collector_http_request_seconds", "Logical request latency (retries and backoff included), by endpoint.")
	// Backoff and request wall time depend on the clock; exclude them
	// from determinism comparisons.
	reg.Volatile("collector_http_backoff_seconds_total", "collector_http_request_seconds")
	for state, name := range [...]string{"closed", "open", "half_open"} {
		h.breakerTo[state] = reg.Counter("collector_http_breaker_transitions_total", "state", name)
	}
	h.shorted = reg.Counter("collector_http_breaker_shorted_total")
}

// Obs returns the registry the transport tallies onto.
func (h *HTTP) Obs() *obs.Registry { return h.reg }

// BindTrace parents subsequent requests under ctx: each logical call
// runs as a child span (retries, backoff waits and breaker verdicts
// annotated) and propagates the trace over the wire as a traceparent
// header. Bind the zero SpanCtx to detach. Sound because collection is
// sequential — the caller binds its open span, issues the call, then
// rebinds.
func (h *HTTP) BindTrace(ctx obs.SpanCtx) {
	h.traceMu.Lock()
	h.traceCtx = ctx
	h.traceMu.Unlock()
}

// boundTrace reads the current trace binding.
func (h *HTTP) boundTrace() obs.SpanCtx {
	h.traceMu.Lock()
	defer h.traceMu.Unlock()
	return h.traceCtx
}

// BreakerOpens reports breaker transitions to the open state.
func (h *HTTP) BreakerOpens() uint64 { return h.breakerTo[breakerOpen].Value() }

// BreakerShorted reports calls rejected while a breaker was open.
func (h *HTTP) BreakerShorted() uint64 { return h.shorted.Value() }

// obsFor returns the endpoint's handle bundle, creating it lazily. A
// transport built as a struct literal (no NewHTTP, no WithObs) has a nil
// registry; its handles are nil and every record is a no-op.
func (h *HTTP) obsFor(endpoint string) *endpointObs {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.endpoints == nil {
		h.endpoints = make(map[string]*endpointObs)
	}
	eo, ok := h.endpoints[endpoint]
	if !ok {
		eo = &endpointObs{
			attempts:   h.reg.Counter("collector_http_requests_total", "endpoint", endpoint),
			retries:    h.reg.Counter("collector_http_retries_total", "endpoint", endpoint),
			sleeps:     h.reg.Counter("collector_http_backoff_sleeps_total", "endpoint", endpoint),
			sleepSecs:  h.reg.FloatGauge("collector_http_backoff_seconds_total", "endpoint", endpoint),
			retryAfter: h.reg.Counter("collector_http_retry_after_honored_total", "endpoint", endpoint),
			bytes:      h.reg.Counter("collector_http_response_bytes_total", "endpoint", endpoint),
			seconds:    h.reg.Histogram("collector_http_request_seconds", obs.DurationBuckets, "endpoint", endpoint),
		}
		h.endpoints[endpoint] = eo
	}
	return eo
}

func (h *HTTP) ctx() context.Context {
	if h.Context != nil {
		return h.Context
	}
	return context.Background()
}

func (h *HTTP) clock() time.Time {
	if h.now != nil {
		return h.now()
	}
	return time.Now()
}

func (h *HTTP) maxBackoff() time.Duration {
	if h.MaxBackoff <= 0 {
		return 5 * time.Second
	}
	return h.MaxBackoff
}

func (h *HTTP) maxBody() int64 {
	if h.MaxBody <= 0 {
		return 256 << 20
	}
	return h.MaxBody
}

// wait sleeps for d or until ctx is cancelled.
func (h *HTTP) wait(ctx context.Context, d time.Duration) error {
	if h.sleep != nil {
		return h.sleep(ctx, d)
	}
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// retryDelay computes the attempt'th backoff: exponential from Backoff,
// jittered in [0.5, 1.5), capped at MaxBackoff — then raised to any
// server-suggested Retry-After (itself capped at MaxBackoff, so a hostile
// header cannot park the scraper). honored reports whether a Retry-After
// suggestion won over the computed backoff.
func (h *HTTP) retryDelay(attempt int, lastErr error) (_ time.Duration, honored bool) {
	d := h.Backoff
	for i := 1; i < attempt && d < h.maxBackoff(); i++ {
		d *= 2
	}
	if d > h.maxBackoff() {
		d = h.maxBackoff()
	}
	// Deterministic decorrelation jitter: a counter-hashed factor in
	// [0.5, 1.5). No shared rand state, no time dependence.
	h.mu.Lock()
	h.jitterN++
	n := h.jitterN
	h.mu.Unlock()
	x := n * 0x9e3779b97f4a7c15
	x ^= x >> 29
	factor := 0.5 + float64(x&((1<<20)-1))/float64(1<<20)
	d = time.Duration(float64(d) * factor)

	var fe *faults.Error
	if errors.As(lastErr, &fe) && fe.RetryAfter > 0 {
		ra := fe.RetryAfter
		if ra > h.maxBackoff() {
			ra = h.maxBackoff()
		}
		if ra > d {
			d = ra
			honored = true
		}
	}
	return d, honored
}

// breakerFor returns the endpoint's circuit breaker, creating it lazily.
func (h *HTTP) breakerFor(endpoint string) *breaker {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.breakers == nil {
		h.breakers = make(map[string]*breaker)
	}
	br, ok := h.breakers[endpoint]
	if !ok {
		threshold := h.BreakerThreshold
		if threshold <= 0 {
			threshold = 5
		}
		cooldown := h.BreakerCooldown
		if cooldown <= 0 {
			cooldown = 2 * time.Second
		}
		br = &breaker{threshold: threshold, cooldown: cooldown}
		h.breakers[endpoint] = br
	}
	return br
}

// do runs one logical request of s with the full hardening loop:
// breaker check, bounded retries with capped jittered backoff,
// Retry-After honoring, 429/5xx/transport-error retry. Each attempt is
// bounded by one deadline on s's connection. The whole loop runs as one
// child span under the bound trace — retries and backoff annotated, the
// traceparent sent as a header — so a slow call's time is attributable
// from /tracez. On success the response head is in s.conn.resp and the
// caller reads its body with readBounded.
func (h *HTTP) do(s *slot) error {
	ctx := h.ctx()
	endpoint := s.endpoint
	eo := h.obsFor(endpoint)
	sp := h.boundTrace().StartChild(s.span)
	started := time.Now()
	finish := func(err error) error {
		eo.seconds.ObserveExemplar(time.Since(started).Seconds(), sp.TraceID())
		sp.EndErr(err)
		return err
	}
	if s.base != h.BaseURL || s.ep.addr == "" {
		ep, err := resolveBase(h.BaseURL)
		if err != nil {
			return finish(err)
		}
		s.base, s.ep = h.BaseURL, ep
		s.conn.close()
	}
	s.req = appendRequest(s.req[:0], s.method, &s.ep, s.path, s.query, sp.Ctx().Traceparent(), s.payload)
	br := h.breakerFor(endpoint)
	allowed, probe := br.allow(h.clock())
	if probe {
		h.breakerTo[breakerHalfOpen].Inc()
		sp.Annotate("breaker:half_open_probe")
	}
	if !allowed {
		h.shorted.Inc()
		sp.FlagKeep("breaker_open")
		sp.Annotate("breaker:shorted")
		return finish(fmt.Errorf("collector: %s: %w", endpoint, ErrCircuitOpen))
	}
	var lastErr error
	for attempt := 0; attempt <= h.MaxRetries; attempt++ {
		if attempt > 0 {
			eo.retries.Inc()
			delay, honored := h.retryDelay(attempt, lastErr)
			if honored {
				eo.retryAfter.Inc()
			}
			eo.sleeps.Inc()
			eo.sleepSecs.Add(delay.Seconds())
			sp.Annotatef("retry:%d backoff:%s retry_after:%v", attempt, delay.Round(time.Microsecond), honored)
			if err := h.wait(ctx, delay); err != nil {
				lastErr = err
				break
			}
		}
		if err := ctx.Err(); err != nil {
			lastErr = err
			break
		}
		eo.attempts.Inc()
		if err := s.conn.roundTrip(ctx, s.ep.addr, s.req, time.Now().Add(requestTimeout)); err != nil {
			if s.conn.timedOut(err) {
				err = &faults.Error{Class: faults.ClassTimeout, Err: err}
			}
			lastErr = err
			continue
		}
		head := &s.conn.resp.head
		switch status := head.status; {
		case status == http.StatusOK:
			if br.success() {
				h.breakerTo[breakerClosed].Inc()
				sp.Annotate("breaker:closed")
			}
			return finish(nil)
		case status == http.StatusTooManyRequests:
			ra := parseRetryAfter(head, h.clock)
			s.drain()
			lastErr = &faults.Error{Class: faults.ClassThrottle, Status: status, RetryAfter: ra}
		case status >= 500:
			ra := parseRetryAfter(head, h.clock)
			s.drain()
			lastErr = &faults.Error{Class: faults.ClassServer, Status: status, RetryAfter: ra}
		default:
			// Other 4xx: our request is wrong; retrying cannot help and
			// the server is healthy, so the breaker stays untouched.
			s.drain()
			return finish(fmt.Errorf("collector: %s: HTTP %d", endpoint, status))
		}
	}
	if br.failure(h.clock()) {
		h.breakerTo[breakerOpen].Inc()
		sp.FlagKeep("breaker_open")
		sp.Annotate("breaker:opened")
	}
	return finish(fmt.Errorf("collector: %s: retries exhausted: %w", endpoint, lastErr))
}

// parseRetryAfter reads a response's Retry-After header: delay seconds
// (fractions accepted) or an HTTP date. 0 means absent or unparseable,
// NaN and negative delays included; a delay past time.Duration's range
// reads as its largest value, for retryDelay to cap at MaxBackoff.
func parseRetryAfter(head *respHead, now func() time.Time) time.Duration {
	if !head.hasRetryAfter || len(head.retryAfter) == 0 {
		return 0
	}
	v := string(head.retryAfter)
	if secs, err := strconv.ParseFloat(v, 64); err == nil && secs >= 0 {
		if d := secs * float64(time.Second); d < 1<<63 {
			return time.Duration(d)
		}
		return math.MaxInt64
	}
	if at, err := http.ParseTime(v); err == nil {
		if d := at.Sub(now()); d > 0 {
			return d
		}
	}
	return 0
}

// RecentBundles implements Transport. The page is decoded into storage
// the transport reuses: it is valid until the next RecentBundles call.
func (h *HTTP) RecentBundles(limit int) ([]jito.BundleRecord, error) {
	s := &h.recentSlot
	s.query = strconv.AppendInt(append(s.query[:0], "limit="...), int64(limit), 10)
	return h.recent(s)
}

// RecentBundlesBefore implements Transport. Like RecentBundles, the page
// is valid until the next RecentBundlesBefore call.
func (h *HTTP) RecentBundlesBefore(beforeSeq uint64, limit int) ([]jito.BundleRecord, error) {
	s := &h.beforeSlot
	s.query = strconv.AppendInt(append(s.query[:0], "limit="...), int64(limit), 10)
	s.query = strconv.AppendUint(append(s.query, "&before="...), beforeSeq, 10)
	return h.recent(s)
}

func (h *HTTP) recent(s *slot) ([]jito.BundleRecord, error) {
	s.init("recent", "/api/v1/bundles/recent", http.MethodGet)
	if err := h.do(s); err != nil {
		return nil, err
	}
	body, err := readBounded(h, s, s.page.Read)
	if err != nil {
		return nil, fmt.Errorf("collector: decoding recent bundles: %w", err)
	}
	return body.Bundles, nil
}

// TxDetails implements Transport.
func (h *HTTP) TxDetails(ids []solana.Signature) ([]jito.TxDetail, error) {
	s := &h.detailSlot
	s.init("details", "/api/v1/transactions", http.MethodPost)
	s.payload = explorer.AppendDetailRequest(s.payload[:0], explorer.DetailRequest{IDs: ids})
	if err := h.do(s); err != nil {
		return nil, err
	}
	body, err := readBounded(h, s, explorer.ReadDetailResponse)
	if err != nil {
		return nil, fmt.Errorf("collector: decoding tx details: %w", err)
	}
	return body.Transactions, nil
}

// readBounded reads the JSON body of s's response whole, capped at
// MaxBody bytes so a hostile or damaged payload cannot balloon memory
// and sized once from its Content-Length, and decodes it with the
// explorer's wire codec (encoding/json's verdict on anything
// non-canonical). It then releases the connection, which stays open
// only when the body was read to its end. A body cut by the cap (or by
// the wire) classifies as truncation; syntactically invalid bytes
// classify as corruption; a body the attempt's deadline cut short, as a
// timeout. The body bytes read land on the endpoint's
// collector_http_response_bytes_total counter.
func readBounded[T any](h *HTTP, s *slot, read func(io.Reader) (T, int, error)) (T, error) {
	limit := h.maxBody()
	resp := &s.conn.resp
	s.limited = io.LimitedReader{R: resp, N: limit}
	s.body = explorer.SizedBody{R: &s.limited, Hint: resp.head.length, Limit: limit}
	v, n, err := read(&s.body)
	s.limited.R = nil
	s.conn.release()
	h.obsFor(s.endpoint).bytes.Add(uint64(n))
	if err != nil {
		class := faults.DecodeClass(err)
		if resp.err != nil { // the connection failed mid-body
			if s.conn.timedOut(resp.err) {
				class = faults.ClassTimeout
			} else if cerr := s.conn.ctx.Err(); cerr != nil {
				err = cerr
			}
		}
		return v, &faults.Error{Class: class, Err: err}
	}
	return v, nil
}

// requestTimeout bounds one attempt: connect, request, response headers
// and the whole body. A variable so tests can shorten it.
var requestTimeout = 30 * time.Second

// slot is one transport method's connection and reusable request state.
// A slot serves one call at a time (the page rule of Transport);
// different methods' slots may be in use at once. Each call appends its
// request — line, headers and any payload — into req, which every
// attempt of the call sends as is; a GET slot also keeps the page
// buffer its method decodes into.
type slot struct {
	endpoint string // the collector_http_* endpoint label
	span     string // the child span's name
	path     string // URL path under BaseURL
	method   string

	conn conn

	// base is the BaseURL ep was resolved from.
	base string
	ep   endpoint
	// query is the next call's raw query, payload the POST slot's
	// request body (nil in a GET slot), and req the whole request the
	// attempts send.
	query   []byte
	payload []byte
	req     []byte
	page    explorer.PageBuffer

	// limited and body wrap the response body being read.
	limited io.LimitedReader
	body    explorer.SizedBody
}

// init names the slot on first use.
func (s *slot) init(endpoint, path, method string) {
	if s.endpoint == "" {
		s.endpoint, s.span, s.path, s.method = endpoint, "http:"+endpoint, path, method
	}
}

// drain discards up to 4 KiB of an unwanted response body, then
// releases the connection, which stays open only when that reached the
// body's end.
func (s *slot) drain() {
	s.conn.resp.discard(4 << 10)
	s.conn.release()
}

// breaker is a per-endpoint circuit breaker: closed → open after
// `threshold` consecutive exhausted calls, open → half-open after
// `cooldown`, half-open → closed on a successful probe (or back to open
// on a failed one). It protects a months-long collection from hammering
// a down endpoint and gives the server room to recover.
type breaker struct {
	mu        sync.Mutex
	threshold int
	cooldown  time.Duration

	fails    int
	state    int // 0 closed, 1 open, 2 half-open
	openedAt time.Time
}

const (
	breakerClosed = iota
	breakerOpen
	breakerHalfOpen
)

// allow reports whether a call may proceed now. In the open state it
// admits a single half-open probe once the cooldown has elapsed; probe
// reports that transition, so the caller can count it.
func (b *breaker) allow(now time.Time) (ok, probe bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true, false
	case breakerOpen:
		if now.Sub(b.openedAt) >= b.cooldown {
			b.state = breakerHalfOpen
			return true, true
		}
		return false, false
	default: // half-open: one probe already in flight
		return false, false
	}
}

// success records a successful call; returns true when it closed a
// half-open breaker.
func (b *breaker) success() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	recovered := b.state == breakerHalfOpen
	b.state = breakerClosed
	b.fails = 0
	return recovered
}

// failure records an exhausted call; returns true when it opened the
// breaker (threshold crossed, or a half-open probe failed).
func (b *breaker) failure(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails++
	if b.state == breakerHalfOpen || (b.state == breakerClosed && b.fails >= b.threshold) {
		b.state = breakerOpen
		b.openedAt = now
		return true
	}
	if b.state == breakerOpen {
		b.openedAt = now
	}
	return false
}
