// Distributed tracing: the per-request layer over the aggregate
// metrics. A Tracer mints 128-bit trace IDs from the run's seeded RNG
// (so chaos runs reproduce the same IDs), head-samples at StartTrace,
// and tail-samples at finalize into a bounded ring-buffer flight
// recorder served as /tracez. Propagation is W3C traceparent on the
// wire (collector.HTTP and the fleet lease client inject, explorerd
// middleware extracts) and SpanCtx in process.
//
// The same two constraints that govern the metrics half apply here:
//
//   - Hot paths stay hot. An unsampled StartTrace is one atomic add plus
//     one hash — no allocation, no time.Now — and returns a nil *Trace
//     whose every method is a no-op, so instrumented code never branches
//     on "is tracing on" (see BenchmarkTraceUnsampled).
//
//   - Determinism survives instrumentation. Trace IDs are a pure
//     function of (seed, start order); collection is sequential, so the
//     ID sequence is bit-identical across reruns and worker counts.
//     Everything wall-clock — durations, the tail-keep "slow" verdict,
//     recorder occupancy — lives in trace_* families, all Volatile.
package obs

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// TraceID is a 128-bit trace identifier (W3C trace-id). The zero value
// is invalid, per the traceparent spec.
type TraceID [16]byte

// String renders the 32-hex-digit wire form.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// IsZero reports whether t is the invalid all-zero ID.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// SpanID is a 64-bit span identifier (W3C parent-id).
type SpanID [8]byte

// String renders the 16-hex-digit wire form.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// IsZero reports whether s is the invalid all-zero ID.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// SpanCtx is the propagation context of one open span: enough to mint
// children, record retroactive spans, and write a traceparent header.
// The zero SpanCtx is valid and unsampled — every method no-ops.
type SpanCtx struct {
	TraceID TraceID
	SpanID  SpanID

	tracer *Tracer
	rec    *traceRec
}

// Sampled reports whether the span belongs to a recorded trace.
func (c SpanCtx) Sampled() bool { return c.rec != nil }

// Traceparent renders the W3C header value
// (`00-<trace-id>-<span-id>-01`), or "" when unsampled — callers skip
// header injection entirely rather than propagate a context nobody
// records.
func (c SpanCtx) Traceparent() string {
	if c.rec == nil || c.TraceID.IsZero() {
		return ""
	}
	return "00-" + c.TraceID.String() + "-" + c.SpanID.String() + "-01"
}

// ParseTraceparent decodes a W3C traceparent header value. ok is false
// on any malformation (wrong shape, hex that is not lowercase, version
// ff, trailing bytes on a version-00 header, all-zero IDs); sampled
// reflects the flags byte.
func ParseTraceparent(s string) (tid TraceID, sid SpanID, sampled, ok bool) {
	// version(2) - traceid(32) - spanid(16) - flags(2). Version 00 is
	// exactly that; a later version may append "-" and further fields.
	if len(s) < 55 || s[2] != '-' || s[35] != '-' || s[52] != '-' {
		return TraceID{}, SpanID{}, false, false
	}
	var version, flags [1]byte
	if !decodeLowerHex(version[:], s[0:2]) || version[0] == 0xff ||
		!decodeLowerHex(tid[:], s[3:35]) || !decodeLowerHex(sid[:], s[36:52]) ||
		!decodeLowerHex(flags[:], s[53:55]) {
		return TraceID{}, SpanID{}, false, false
	}
	if (version[0] == 0 && len(s) != 55) || (len(s) > 55 && s[55] != '-') {
		return TraceID{}, SpanID{}, false, false
	}
	if tid.IsZero() || sid.IsZero() {
		return TraceID{}, SpanID{}, false, false
	}
	return tid, sid, flags[0]&1 != 0, true
}

// decodeLowerHex fills dst from the 2·len(dst) hex digits of s, which
// must be lowercase as Trace Context requires.
func decodeLowerHex(dst []byte, s string) bool {
	nibble := func(c byte) (byte, bool) {
		switch {
		case '0' <= c && c <= '9':
			return c - '0', true
		case 'a' <= c && c <= 'f':
			return c - 'a' + 10, true
		}
		return 0, false
	}
	for i := range dst {
		hi, ok1 := nibble(s[2*i])
		lo, ok2 := nibble(s[2*i+1])
		if !ok1 || !ok2 {
			return false
		}
		dst[i] = hi<<4 | lo
	}
	return true
}

// StartChild opens a child span under this context — the carrier-based
// entry point for layers (the transport, the lease client) that hold a
// bound SpanCtx rather than a *Trace. Returns nil when unsampled.
func (c SpanCtx) StartChild(name string) *Trace {
	if c.rec == nil || c.tracer == nil {
		return nil
	}
	return c.tracer.startSpan(c.rec, c.SpanID, name)
}

// RecordSpan appends an already-measured span under this context — for
// stages (stream seal/fold) whose start was stamped before the span
// boundary was known. No-op when unsampled.
func (c SpanCtx) RecordSpan(name string, start, end time.Time, isErr bool) {
	if c.rec == nil || c.tracer == nil {
		return
	}
	c.rec.addSpan(c.tracer, SpanRecord{
		Name:          name,
		SpanID:        c.tracer.nextSpanID().String(),
		ParentSpanID:  c.SpanID.String(),
		StartUnixNano: start.UnixNano(),
		DurationNS:    end.Sub(start).Nanoseconds(),
		Error:         isErr,
	})
}

// SpanRecord is one finished span as it lands in the flight recorder
// (and in /tracez JSON).
type SpanRecord struct {
	Name          string   `json:"name"`
	SpanID        string   `json:"span_id"`
	ParentSpanID  string   `json:"parent_span_id,omitempty"`
	RemoteParent  bool     `json:"remote_parent,omitempty"`
	StartUnixNano int64    `json:"start_unix_nano"`
	DurationNS    int64    `json:"duration_ns"`
	Error         bool     `json:"error,omitempty"`
	Annotations   []string `json:"annotations,omitempty"`
}

// maxSpansPerTrace bounds one trace's span list; overflow is counted,
// not stored, so a runaway loop cannot balloon the recorder.
const maxSpansPerTrace = 256

// traceRec accumulates one in-flight trace: the open-span refcount
// drives finalization, so a locally-rooted trace finalizes when its
// root ends and a remotely-rooted one (created by Extract) when its
// server span ends — sequential requests of the same remote trace each
// finalize a fragment that the ring merges by TraceID.
type traceRec struct {
	mu      sync.Mutex
	traceID TraceID
	idx     uint64 // StartTrace ordinal; seeds the tail-keep hash
	root    string // root span name
	remote  bool   // rooted by an extracted (wire) parent
	start   time.Time
	open    int
	done    bool
	spans   []SpanRecord
	dropped int
	errored bool
	keep    string // forced-keep reason, "" until flagged
}

// addSpan appends one finished span, honoring the per-trace bound.
func (rec *traceRec) addSpan(t *Tracer, s SpanRecord) {
	rec.mu.Lock()
	if len(rec.spans) < maxSpansPerTrace {
		rec.spans = append(rec.spans, s)
		t.spans.Inc()
	} else {
		rec.dropped++
		t.spansDropped.Inc()
	}
	rec.mu.Unlock()
}

// Trace is one open span. A nil *Trace (unsampled) is fully inert:
// every method is a no-op, so call sites read identically with tracing
// on or off.
type Trace struct {
	tracer *Tracer
	rec    *traceRec
	id     SpanID
	parent SpanID
	remote bool // parent lives in another process
	name   string
	start  time.Time
	err    bool
	notes  []string
}

// Ctx returns the propagation context of this span (zero when nil).
func (tr *Trace) Ctx() SpanCtx {
	if tr == nil {
		return SpanCtx{}
	}
	return SpanCtx{TraceID: tr.rec.traceID, SpanID: tr.id, tracer: tr.tracer, rec: tr.rec}
}

// TraceID returns the owning trace's ID (zero when nil).
func (tr *Trace) TraceID() TraceID {
	if tr == nil {
		return TraceID{}
	}
	return tr.rec.traceID
}

// StartChild opens a child span.
func (tr *Trace) StartChild(name string) *Trace {
	if tr == nil {
		return nil
	}
	return tr.tracer.startSpan(tr.rec, tr.id, name)
}

// Annotate attaches a note to the span (retry counts, backoff waits,
// fault classes) — the "why was this slow" breadcrumbs in /tracez.
func (tr *Trace) Annotate(note string) {
	if tr == nil {
		return
	}
	tr.rec.mu.Lock()
	tr.notes = append(tr.notes, note)
	tr.rec.mu.Unlock()
}

// Annotatef is Annotate with formatting.
func (tr *Trace) Annotatef(format string, args ...any) {
	if tr == nil {
		return
	}
	tr.Annotate(fmt.Sprintf(format, args...))
}

// MarkError flags the span (and so the trace) as failed; error traces
// are always kept.
func (tr *Trace) MarkError() {
	if tr == nil {
		return
	}
	tr.err = true
	tr.rec.mu.Lock()
	tr.rec.errored = true
	tr.rec.mu.Unlock()
}

// FlagKeep forces the trace through tail sampling with the given reason
// (e.g. "fenced", "breaker_open", "fault") — the hooks that make chaos
// runs answerable from /tracez alone.
func (tr *Trace) FlagKeep(reason string) {
	if tr == nil {
		return
	}
	tr.rec.mu.Lock()
	if keepPriority(reason) > keepPriority(tr.rec.keep) {
		tr.rec.keep = reason
	}
	tr.rec.mu.Unlock()
}

// keepPriority orders keep reasons so stronger evidence wins: forced
// flags (fault, fenced, breaker_open, ...) beat errors beat the passive
// reasons. A remote fragment pre-keeps as "remote", so without this
// ordering a fault flagged on it could never surface; the same ordering
// resolves which reason a merged multi-fragment trace reports.
func keepPriority(reason string) int {
	switch reason {
	case "":
		return 0
	case "sampled":
		return 1
	case "slow":
		return 2
	case "warmup":
		return 3
	case "remote":
		return 4
	case "error":
		return 5
	default: // forced flags
		return 6
	}
}

// End closes the span; when it is the trace's last open span the trace
// finalizes through tail sampling.
func (tr *Trace) End() {
	if tr == nil {
		return
	}
	end := time.Now()
	tr.rec.addSpan(tr.tracer, SpanRecord{
		Name:          tr.name,
		SpanID:        tr.id.String(),
		ParentSpanID:  parentString(tr.parent),
		RemoteParent:  tr.remote,
		StartUnixNano: tr.start.UnixNano(),
		DurationNS:    end.Sub(tr.start).Nanoseconds(),
		Error:         tr.err,
		Annotations:   tr.notes,
	})
	tr.rec.mu.Lock()
	tr.rec.open--
	final := tr.rec.open == 0 && !tr.rec.done
	if final {
		tr.rec.done = true
	}
	tr.rec.mu.Unlock()
	if final {
		tr.tracer.finalize(tr.rec, end)
	}
}

// EndErr is MarkError-if-non-nil followed by End.
func (tr *Trace) EndErr(err error) {
	if tr == nil {
		return
	}
	if err != nil {
		tr.MarkError()
	}
	tr.End()
}

func parentString(p SpanID) string {
	if p.IsZero() {
		return ""
	}
	return p.String()
}

// TraceConfig shapes a Tracer.
type TraceConfig struct {
	// Service names this process in /tracez (e.g. "explorerd").
	Service string
	// Seed drives trace-ID minting and both sampling hashes; reusing a
	// chaos seed makes a chaos run's trace IDs reproducible.
	Seed uint64
	// SampleRate is the head-sampling probability in [0,1]; 0 selects 1
	// (trace everything, let the tail policy decide what to keep).
	// Negative disables tracing entirely (every StartTrace is unsampled).
	SampleRate float64
	// KeepRate is the probabilistic tail-keep applied to traces that are
	// neither errored, flagged, slow, nor warmup; 0 selects 0.1.
	KeepRate float64
	// Capacity bounds the flight recorder; 0 selects 256.
	Capacity int
}

// Trace-side splitmix64, duplicated from internal/faults (which imports
// obs, so obs cannot import it back): counter-hashed randomness keeps
// IDs and sampling decisions a pure function of (seed, ordinal).
func traceMix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func traceHash(seed, index, salt uint64) uint64 {
	return traceMix(traceMix(seed^salt) + index)
}

// traceUnit maps a hash to [0,1).
func traceUnit(h uint64) float64 { return float64(h>>11) / float64(1<<53) }

const (
	saltTraceHi = 0x74726163656869 // ID high half
	saltTraceLo = 0x74726163656c6f // ID low half
	saltSample  = 0x73616d706c65   // head-sampling decision
	saltKeep    = 0x6b656570       // tail probabilistic keep
	saltSpan    = 0x7370616e       // span IDs
)

// warmupKeep traces are kept unconditionally at startup so a short
// smoke run always has something to show on /tracez.
const warmupKeep = 8

// minSlowSamples gates the slow-tail keep until the root-duration
// histogram has enough mass for Quantile(0.99) to mean anything.
const minSlowSamples = 32

// Tracer mints, samples and records traces. Construct with NewTracer;
// a nil *Tracer never samples.
type Tracer struct {
	cfg TraceConfig

	traceCtr atomic.Uint64
	spanCtr  atomic.Uint64
	kept     atomic.Uint64 // total kept, drives the warmup window

	started      *Counter
	sampled      *Counter
	keptTotal    map[string]*Counter
	keptMu       sync.Mutex
	reg          *Registry
	droppedTotal *Counter
	spans        *Counter
	spansDropped *Counter
	occupancy    *Gauge
	rootDur      *Histogram

	// Flight recorder: a ring of kept traces, newest overwriting oldest,
	// with a TraceID index so fragments of one remote trace merge.
	rmu  sync.Mutex
	ring []*KeptTrace
	head int
	n    int
	byID map[TraceID]*KeptTrace
}

// NewTracer builds a tracer tallying onto reg and attaches it, so
// NewOpsMux serves /tracez and every layer holding the registry finds
// the tracer without new plumbing. All trace_* families are Volatile:
// IDs are deterministic but counts and durations are wall-clock.
func NewTracer(reg *Registry, cfg TraceConfig) *Tracer {
	if cfg.Capacity <= 0 {
		cfg.Capacity = 256
	}
	if cfg.SampleRate == 0 {
		cfg.SampleRate = 1
	}
	if cfg.KeepRate == 0 {
		cfg.KeepRate = 0.1
	}
	t := &Tracer{
		cfg:       cfg,
		reg:       reg,
		keptTotal: make(map[string]*Counter),
		ring:      make([]*KeptTrace, cfg.Capacity),
		byID:      make(map[TraceID]*KeptTrace, cfg.Capacity),
	}
	reg.Help("trace_traces_started_total", "Traces started (sampled or not).")
	reg.Help("trace_traces_kept_total", "Traces kept by the tail sampler, by reason.")
	reg.Help("trace_recorder_occupancy", "Traces currently held by the flight recorder.")
	t.started = reg.Counter("trace_traces_started_total")
	t.sampled = reg.Counter("trace_traces_sampled_total")
	t.droppedTotal = reg.Counter("trace_traces_dropped_total")
	t.spans = reg.Counter("trace_spans_total")
	t.spansDropped = reg.Counter("trace_spans_dropped_total")
	t.occupancy = reg.Gauge("trace_recorder_occupancy")
	t.rootDur = reg.Histogram("trace_root_duration_seconds", DurationBuckets)
	reg.Volatile("trace_traces_started_total", "trace_traces_sampled_total",
		"trace_traces_kept_total", "trace_traces_dropped_total",
		"trace_spans_total", "trace_spans_dropped_total",
		"trace_recorder_occupancy", "trace_root_duration_seconds")
	reg.AttachTracer(t)
	return t
}

// Service names this tracer's process.
func (t *Tracer) Service() string {
	if t == nil {
		return ""
	}
	return t.cfg.Service
}

// nextSpanID mints a deterministic span ID.
func (t *Tracer) nextSpanID() SpanID {
	h := traceHash(t.cfg.Seed, t.spanCtr.Add(1), saltSpan)
	var id SpanID
	for i := 0; i < 8; i++ {
		id[i] = byte(h >> (56 - 8*i))
	}
	if id.IsZero() {
		id[7] = 1
	}
	return id
}

// StartTrace begins a new locally-rooted trace. The unsampled path — the
// common case at low sample rates — is one atomic add and one hash:
// no allocation, no clock read, nil return.
func (t *Tracer) StartTrace(name string) *Trace {
	if t == nil {
		return nil
	}
	idx := t.traceCtr.Add(1)
	t.started.Inc()
	if t.cfg.SampleRate < 1 && !(traceUnit(traceHash(t.cfg.Seed, idx, saltSample)) < t.cfg.SampleRate) {
		return nil
	}
	t.sampled.Inc()
	var tid TraceID
	hi, lo := traceHash(t.cfg.Seed, idx, saltTraceHi), traceHash(t.cfg.Seed, idx, saltTraceLo)
	for i := 0; i < 8; i++ {
		tid[i] = byte(hi >> (56 - 8*i))
		tid[8+i] = byte(lo >> (56 - 8*i))
	}
	if tid.IsZero() {
		tid[15] = 1
	}
	rec := &traceRec{traceID: tid, idx: idx, root: name, start: time.Now(), open: 1}
	return &Trace{tracer: t, rec: rec, id: t.nextSpanID(), name: name, start: rec.start}
}

// Extract begins a remotely-rooted trace from wire identifiers (an
// incoming traceparent): the new server span's parent lives in another
// process. The fragment finalizes when its spans close and is merged by
// TraceID into any fragments earlier requests of the same trace left in
// the recorder; remote fragments are always kept — the client already
// paid the sampling decision.
func (t *Tracer) Extract(name string, tid TraceID, parent SpanID) *Trace {
	if t == nil || tid.IsZero() {
		return nil
	}
	t.sampled.Inc()
	now := time.Now()
	rec := &traceRec{traceID: tid, root: name, remote: true, start: now, open: 1, keep: "remote"}
	return &Trace{tracer: t, rec: rec, id: t.nextSpanID(), parent: parent, remote: true, name: name, start: now}
}

// startSpan opens a child span on rec.
func (t *Tracer) startSpan(rec *traceRec, parent SpanID, name string) *Trace {
	rec.mu.Lock()
	rec.open++
	rec.mu.Unlock()
	return &Trace{tracer: t, rec: rec, id: t.nextSpanID(), parent: parent, name: name, start: time.Now()}
}

// finalize runs the tail-sampling policy on a completed trace. Keep
// order: forced flags (fault/fenced/breaker_open), errors, remote
// fragments, the warmup window, the slow tail (root duration at or past
// the recorder's own p99), then the probabilistic remainder.
func (t *Tracer) finalize(rec *traceRec, end time.Time) {
	dur := end.Sub(rec.start)
	reason := ""
	rec.mu.Lock()
	switch {
	case rec.keep != "":
		reason = rec.keep
	case rec.errored:
		reason = "error"
	}
	rec.mu.Unlock()
	if !rec.remote {
		// Remote fragments are partial — their duration says nothing
		// about the whole trace, so only local roots feed the slow-tail
		// baseline.
		t.rootDur.Observe(dur.Seconds())
		if reason == "" {
			switch {
			case t.kept.Load() < warmupKeep:
				reason = "warmup"
			case t.rootDur.Count() >= minSlowSamples && dur.Seconds() >= t.rootDur.Quantile(0.99):
				reason = "slow"
			case traceUnit(traceHash(t.cfg.Seed, rec.idx, saltKeep)) < t.cfg.KeepRate:
				reason = "sampled"
			}
		}
	}
	if reason == "" {
		t.droppedTotal.Inc()
		return
	}
	t.kept.Add(1)
	t.keepCounter(reason).Inc()
	t.record(rec, reason, end)
}

// keepCounter lazily resolves the per-reason kept counter.
func (t *Tracer) keepCounter(reason string) *Counter {
	t.keptMu.Lock()
	defer t.keptMu.Unlock()
	c, ok := t.keptTotal[reason]
	if !ok {
		c = t.reg.Counter("trace_traces_kept_total", "reason", reason)
		t.keptTotal[reason] = c
	}
	return c
}

// KeptTrace is one recorder entry as served by /tracez.
type KeptTrace struct {
	TraceID    string       `json:"trace_id"`
	Root       string       `json:"root"`
	Service    string       `json:"service"`
	Remote     bool         `json:"remote,omitempty"`
	KeepReason string       `json:"keep_reason"`
	StartNano  int64        `json:"start_unix_nano"`
	DurationNS int64        `json:"duration_ns"`
	Error      bool         `json:"error,omitempty"`
	Dropped    int          `json:"spans_dropped,omitempty"`
	Spans      []SpanRecord `json:"spans"`

	tid TraceID
	seq uint64 // insertion order, for newest-first listing
}

// record upserts a finalized trace into the ring. Fragments sharing a
// TraceID (sequential requests of one remote trace) merge into a single
// entry: spans append, the time window widens, errors stick.
func (t *Tracer) record(rec *traceRec, reason string, end time.Time) {
	rec.mu.Lock()
	spans := rec.spans
	dropped := rec.dropped
	errored := rec.errored
	rec.spans = nil
	rec.mu.Unlock()

	t.rmu.Lock()
	defer t.rmu.Unlock()
	if prev, ok := t.byID[rec.traceID]; ok {
		prev.Spans = append(prev.Spans, spans...)
		prev.Dropped += dropped
		prev.Error = prev.Error || errored
		if keepPriority(reason) > keepPriority(prev.KeepReason) {
			prev.KeepReason = reason
		}
		if rec.start.UnixNano() < prev.StartNano {
			prev.StartNano = rec.start.UnixNano()
		}
		if endNano := end.UnixNano(); endNano-prev.StartNano > prev.DurationNS {
			prev.DurationNS = endNano - prev.StartNano
		}
		return
	}
	kt := &KeptTrace{
		TraceID:    rec.traceID.String(),
		Root:       rec.root,
		Service:    t.cfg.Service,
		Remote:     rec.remote,
		KeepReason: reason,
		StartNano:  rec.start.UnixNano(),
		DurationNS: end.Sub(rec.start).Nanoseconds(),
		Error:      errored,
		Dropped:    dropped,
		Spans:      spans,
		tid:        rec.traceID,
		seq:        t.kept.Load(),
	}
	if old := t.ring[t.head]; old != nil {
		delete(t.byID, old.tid)
	} else {
		t.n++
	}
	t.ring[t.head] = kt
	t.byID[rec.traceID] = kt
	t.head = (t.head + 1) % len(t.ring)
	t.occupancy.Set(int64(t.n))
}

// Kept snapshots the recorder, newest first. filter, when non-empty,
// selects a single trace ID (hex).
func (t *Tracer) Kept(filter string) []KeptTrace {
	if t == nil {
		return nil
	}
	t.rmu.Lock()
	out := make([]KeptTrace, 0, t.n)
	for _, kt := range t.ring {
		if kt == nil || (filter != "" && kt.TraceID != filter) {
			continue
		}
		cp := *kt
		cp.Spans = append([]SpanRecord(nil), kt.Spans...)
		out = append(out, cp)
	}
	t.rmu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].seq > out[j].seq })
	return out
}

// Occupancy reports how many traces the recorder currently holds.
func (t *Tracer) Occupancy() int {
	if t == nil {
		return 0
	}
	t.rmu.Lock()
	defer t.rmu.Unlock()
	return t.n
}

// tracezDoc is the /tracez JSON document.
type tracezDoc struct {
	Service   string      `json:"service"`
	Capacity  int         `json:"capacity"`
	Occupancy int         `json:"occupancy"`
	Started   uint64      `json:"traces_started"`
	Sampled   uint64      `json:"traces_sampled"`
	Dropped   uint64      `json:"traces_dropped"`
	Traces    []KeptTrace `json:"traces"`
}

// Handler serves the flight recorder as /tracez: JSON by default,
// ?trace_id=<hex> drill-down, ?format=text for a human span tree.
func (t *Tracer) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		kept := t.Kept(req.URL.Query().Get("trace_id"))
		if req.URL.Query().Get("format") == "text" {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			writeTraceText(w, kept)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		doc := tracezDoc{
			Service:   t.cfg.Service,
			Capacity:  t.cfg.Capacity,
			Occupancy: t.Occupancy(),
			Started:   t.started.Value(),
			Sampled:   t.sampled.Value(),
			Dropped:   t.droppedTotal.Value(),
			Traces:    kept,
		}
		if doc.Traces == nil {
			doc.Traces = []KeptTrace{}
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(doc)
	})
}

// writeTraceText renders kept traces as indented span trees.
func writeTraceText(w io.Writer, kept []KeptTrace) {
	for _, kt := range kept {
		fmt.Fprintf(w, "trace %s root=%q service=%s keep=%s dur=%.3fms err=%v\n",
			kt.TraceID, kt.Root, kt.Service, kt.KeepReason,
			float64(kt.DurationNS)/1e6, kt.Error)
		children := make(map[string][]SpanRecord)
		local := make(map[string]bool, len(kt.Spans))
		for _, s := range kt.Spans {
			local[s.SpanID] = true
		}
		var roots []SpanRecord
		for _, s := range kt.Spans {
			if s.ParentSpanID != "" && local[s.ParentSpanID] {
				children[s.ParentSpanID] = append(children[s.ParentSpanID], s)
			} else {
				roots = append(roots, s)
			}
		}
		var dump func(s SpanRecord, depth int)
		dump = func(s SpanRecord, depth int) {
			fmt.Fprintf(w, "%s%s span=%s dur=%.3fms", strings.Repeat("  ", depth+1), s.Name, s.SpanID, float64(s.DurationNS)/1e6)
			if s.Error {
				fmt.Fprint(w, " err")
			}
			if s.RemoteParent {
				fmt.Fprintf(w, " remote-parent=%s", s.ParentSpanID)
			}
			for _, a := range s.Annotations {
				fmt.Fprintf(w, " [%s]", a)
			}
			fmt.Fprintln(w)
			kids := children[s.SpanID]
			sort.Slice(kids, func(i, j int) bool { return kids[i].StartUnixNano < kids[j].StartUnixNano })
			for _, k := range kids {
				dump(k, depth+1)
			}
		}
		sort.Slice(roots, func(i, j int) bool { return roots[i].StartUnixNano < roots[j].StartUnixNano })
		for _, s := range roots {
			dump(s, 0)
		}
	}
}

// ctxKey carries the open *Trace through a request context.
type ctxKey struct{}

// ContextWithTrace returns ctx carrying tr (no-op on nil tr).
func ContextWithTrace(ctx context.Context, tr *Trace) context.Context {
	if tr == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, tr)
}

// TraceFromContext returns the open trace span carried by ctx, or nil.
func TraceFromContext(ctx context.Context) *Trace {
	if ctx == nil {
		return nil
	}
	tr, _ := ctx.Value(ctxKey{}).(*Trace)
	return tr
}

// statusRecorder captures the response status for the server span.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (s *statusRecorder) WriteHeader(code int) {
	s.status = code
	s.ResponseWriter.WriteHeader(code)
}

// TraceMiddleware extracts an incoming traceparent and runs the handler
// under a server span: the span lands in this process's recorder
// (merged by TraceID with earlier fragments), a 5xx marks it errored,
// and the open span rides the request context so downstream layers —
// the chaos middleware above all — can annotate the trace that suffered
// them. Requests without a sampled traceparent pass straight through;
// the server never roots traces on its own.
func TraceMiddleware(t *Tracer, next http.Handler) http.Handler {
	if t == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		tid, parent, sampled, ok := ParseTraceparent(req.Header.Get("traceparent"))
		if !ok || !sampled {
			next.ServeHTTP(w, req)
			return
		}
		tr := t.Extract(req.Method+" "+req.URL.Path, tid, parent)
		rw := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(rw, req.WithContext(ContextWithTrace(req.Context(), tr)))
		if rw.status >= 500 {
			tr.MarkError()
			tr.Annotatef("status:%d", rw.status)
		}
		tr.End()
	})
}
