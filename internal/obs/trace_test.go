package obs

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func newTestTracer(cfg TraceConfig) (*Registry, *Tracer) {
	reg := NewRegistry()
	return reg, NewTracer(reg, cfg)
}

// TestTraceIDsDeterministic pins ID minting to (seed, start order): two
// tracers at the same seed mint identical trace IDs, a different seed
// diverges.
func TestTraceIDsDeterministic(t *testing.T) {
	ids := func(seed uint64) []string {
		_, tr := newTestTracer(TraceConfig{Seed: seed, KeepRate: 1})
		var out []string
		for i := 0; i < 16; i++ {
			sp := tr.StartTrace("op")
			out = append(out, sp.TraceID().String())
			sp.End()
		}
		return out
	}
	a, b := ids(7), ids(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run divergence at %d: %s vs %s", i, a[i], b[i])
		}
	}
	c := ids(8)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds minted identical ID sequences")
	}
	for i, id := range a {
		if len(id) != 32 || id == strings.Repeat("0", 32) {
			t.Fatalf("trace id %d malformed: %q", i, id)
		}
	}
}

// TestTraceparentRoundTrip covers the W3C codec both ways, plus the
// malformed inputs the middleware must shrug off.
func TestTraceparentRoundTrip(t *testing.T) {
	_, tr := newTestTracer(TraceConfig{Seed: 3, KeepRate: 1})
	sp := tr.StartTrace("op")
	hdr := sp.Ctx().Traceparent()
	if len(hdr) != 55 || !strings.HasPrefix(hdr, "00-") || !strings.HasSuffix(hdr, "-01") {
		t.Fatalf("traceparent shape: %q", hdr)
	}
	tid, sid, sampled, ok := ParseTraceparent(hdr)
	if !ok || !sampled || tid != sp.TraceID() || sid != sp.Ctx().SpanID {
		t.Fatalf("round trip: ok=%v sampled=%v tid=%s sid=%s", ok, sampled, tid, sid)
	}
	sp.End()

	var nilSp *Trace
	if got := nilSp.Ctx().Traceparent(); got != "" {
		t.Fatalf("nil trace traceparent = %q", got)
	}

	for _, s := range badTraceparents {
		if _, _, _, ok := ParseTraceparent(s); ok {
			t.Errorf("accepted malformed traceparent %q", s)
		}
	}
	if _, _, sampled, ok := ParseTraceparent("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00"); !ok || sampled {
		t.Errorf("unsampled flag misread: ok=%v sampled=%v", ok, sampled)
	}
	// A later version may carry further fields after a '-'.
	if _, _, sampled, ok := ParseTraceparent("01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-future"); !ok || !sampled {
		t.Errorf("future-version header refused: ok=%v sampled=%v", ok, sampled)
	}
}

// badTraceparents are headers W3C Trace Context rejects.
var badTraceparents = []string{
	"",
	"00-abc-def-01",
	"00-" + strings.Repeat("0", 32) + "-00f067aa0ba902b7-01", // zero trace id
	"00-4bf92f3577b34da6a3ce929d0e0e4736-" + strings.Repeat("0", 16) + "-01",
	"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",   // forbidden version
	"00-4bf92f3577b34da6a3ce929d0e0e47zz-00f067aa0ba902b7-01",   // bad hex
	"00-4BF92F3577B34DA6A3CE929D0E0E4736-00F067AA0BA902B7-01",   // uppercase hex
	"zz-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",   // non-hex version
	"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-x", // trailing bytes on version 00
	"01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01x",  // later version, no '-' before the rest
}

// TestHeadSampling checks the deterministic head decision: rate 1 keeps
// everything, negative rates nothing, a mid rate lands near its target
// and reproduces exactly across tracers.
func TestHeadSampling(t *testing.T) {
	_, all := newTestTracer(TraceConfig{Seed: 1, SampleRate: 1})
	if all.StartTrace("op") == nil {
		t.Fatal("rate 1 rejected a trace")
	}
	_, none := newTestTracer(TraceConfig{Seed: 1, SampleRate: -1})
	if none.StartTrace("op") != nil {
		t.Fatal("negative rate sampled a trace")
	}
	count := func() int {
		_, half := newTestTracer(TraceConfig{Seed: 9, SampleRate: 0.5})
		n := 0
		for i := 0; i < 1000; i++ {
			if sp := half.StartTrace("op"); sp != nil {
				n++
				sp.End()
			}
		}
		return n
	}
	n1, n2 := count(), count()
	if n1 != n2 {
		t.Fatalf("sampling not reproducible: %d vs %d", n1, n2)
	}
	if n1 < 400 || n1 > 600 {
		t.Fatalf("0.5 rate sampled %d of 1000", n1)
	}
}

// TestTailKeepPolicy covers the finalize ladder: errors and flagged
// traces always keep, the warmup window keeps, and at KeepRate 0 a
// plain trace past warmup drops.
func TestTailKeepPolicy(t *testing.T) {
	reg, tr := newTestTracer(TraceConfig{Seed: 2, KeepRate: -1})
	// KeepRate < 0 is below every hash draw — no probabilistic keeps.
	for i := 0; i < warmupKeep; i++ {
		tr.StartTrace("warm").End()
	}
	if got := reg.Value("trace_traces_kept_total", "reason", "warmup"); got != warmupKeep {
		t.Fatalf("warmup keeps = %v", got)
	}
	tr.StartTrace("plain").End()
	if got := reg.Value("trace_traces_dropped_total"); got != 1 {
		t.Fatalf("plain trace not dropped: dropped=%v", got)
	}
	sp := tr.StartTrace("failing")
	sp.MarkError()
	sp.End()
	if got := reg.Value("trace_traces_kept_total", "reason", "error"); got != 1 {
		t.Fatalf("error keeps = %v", got)
	}
	sp = tr.StartTrace("fenced-op")
	sp.FlagKeep("fenced")
	sp.End()
	if got := reg.Value("trace_traces_kept_total", "reason", "fenced"); got != 1 {
		t.Fatalf("fenced keeps = %v", got)
	}
	if tr.Occupancy() != warmupKeep+2 {
		t.Fatalf("occupancy = %d", tr.Occupancy())
	}
}

// TestRecorderRingBound fills the recorder past capacity and checks the
// bound holds, evictions forget the oldest, and the occupancy gauge
// tracks.
func TestRecorderRingBound(t *testing.T) {
	reg, tr := newTestTracer(TraceConfig{Seed: 4, KeepRate: 1, Capacity: 8})
	var first string
	for i := 0; i < 20; i++ {
		sp := tr.StartTrace("op")
		if i == 0 {
			first = sp.TraceID().String()
		}
		sp.End()
	}
	if tr.Occupancy() != 8 {
		t.Fatalf("occupancy = %d want 8", tr.Occupancy())
	}
	if got := reg.Value("trace_recorder_occupancy"); got != 8 {
		t.Fatalf("occupancy gauge = %v", got)
	}
	if got := tr.Kept(first); len(got) != 0 {
		t.Fatalf("evicted trace still listed: %v", got)
	}
	kept := tr.Kept("")
	if len(kept) != 8 {
		t.Fatalf("kept %d traces", len(kept))
	}
	// Newest first.
	for i := 1; i < len(kept); i++ {
		if kept[i-1].seq < kept[i].seq {
			t.Fatalf("kept not newest-first at %d", i)
		}
	}
}

// TestChildSpansAndAnnotations builds a three-level trace and checks
// parent links, annotations and error propagation in the record.
func TestChildSpansAndAnnotations(t *testing.T) {
	_, tr := newTestTracer(TraceConfig{Seed: 5, KeepRate: 1})
	root := tr.StartTrace("poll")
	child := root.StartChild("http:recent")
	child.Annotate("retry:1")
	child.Annotatef("backoff:%dms", 50)
	grand := child.Ctx().StartChild("dial")
	grand.End()
	child.End()
	root.End()

	kept := tr.Kept(root.TraceID().String())
	if len(kept) != 1 {
		t.Fatalf("kept %d", len(kept))
	}
	spans := kept[0].Spans
	if len(spans) != 3 {
		t.Fatalf("span count %d", len(spans))
	}
	byName := map[string]SpanRecord{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	if byName["poll"].ParentSpanID != "" {
		t.Errorf("root has parent %q", byName["poll"].ParentSpanID)
	}
	if byName["http:recent"].ParentSpanID != byName["poll"].SpanID {
		t.Errorf("child parent link broken")
	}
	if byName["dial"].ParentSpanID != byName["http:recent"].SpanID {
		t.Errorf("grandchild parent link broken")
	}
	notes := byName["http:recent"].Annotations
	if len(notes) != 2 || notes[0] != "retry:1" || notes[1] != "backoff:50ms" {
		t.Errorf("annotations = %v", notes)
	}
}

// TestRemoteFragmentsMerge simulates three sequential server requests
// carrying the same trace ID (one replica page cycle hitting renew,
// page, checkpoint) and checks they merge into one recorder entry.
func TestRemoteFragmentsMerge(t *testing.T) {
	_, client := newTestTracer(TraceConfig{Seed: 6, KeepRate: 1, Service: "client"})
	_, server := newTestTracer(TraceConfig{Seed: 60, KeepRate: 1, Service: "server"})

	root := client.StartTrace("fleet.page")
	for _, op := range []string{"POST /leasez/renew", "GET /recent", "POST /leasez/checkpoint"} {
		child := root.StartChild(op)
		tid, sid, _, ok := ParseTraceparent(child.Ctx().Traceparent())
		if !ok {
			t.Fatal("child traceparent malformed")
		}
		srv := server.Extract(op, tid, sid)
		srv.End()
		child.End()
	}
	root.End()

	kept := server.Kept("")
	if len(kept) != 1 {
		t.Fatalf("server kept %d entries, want 1 merged", len(kept))
	}
	if kept[0].TraceID != root.TraceID().String() {
		t.Errorf("merged trace id %s", kept[0].TraceID)
	}
	if kept[0].KeepReason != "remote" {
		t.Errorf("keep reason %s", kept[0].KeepReason)
	}
	if len(kept[0].Spans) != 3 {
		t.Errorf("merged span count %d", len(kept[0].Spans))
	}
	for _, s := range kept[0].Spans {
		if !s.RemoteParent || s.ParentSpanID == "" {
			t.Errorf("server span %q lost remote parent link", s.Name)
		}
	}
}

// TestTraceMiddleware covers extraction, context propagation, 5xx error
// marking, and the pass-through for untraced requests.
func TestTraceMiddleware(t *testing.T) {
	_, client := newTestTracer(TraceConfig{Seed: 11, KeepRate: 1})
	_, server := newTestTracer(TraceConfig{Seed: 12, KeepRate: 1, Service: "explorerd"})

	var sawTrace *Trace
	h := TraceMiddleware(server, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sawTrace = TraceFromContext(r.Context())
		if r.URL.Path == "/boom" {
			w.WriteHeader(http.StatusInternalServerError)
		}
	}))

	// No traceparent: passes through, roots nothing.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/data", nil))
	if sawTrace != nil {
		t.Fatal("untraced request grew a trace")
	}
	if n := server.Occupancy(); n != 0 {
		t.Fatalf("server recorded %d traces for untraced request", n)
	}

	// Traced request: extracted, in context, recorded.
	root := client.StartTrace("poll")
	req := httptest.NewRequest("GET", "/data", nil)
	req.Header.Set("traceparent", root.Ctx().Traceparent())
	h.ServeHTTP(httptest.NewRecorder(), req)
	if sawTrace == nil || sawTrace.TraceID() != root.TraceID() {
		t.Fatal("handler did not see the extracted trace")
	}

	// 5xx marks the server span errored.
	req = httptest.NewRequest("GET", "/boom", nil)
	req.Header.Set("traceparent", root.Ctx().Traceparent())
	h.ServeHTTP(httptest.NewRecorder(), req)
	root.End()

	kept := server.Kept(root.TraceID().String())
	if len(kept) != 1 {
		t.Fatalf("server kept %d entries", len(kept))
	}
	if !kept[0].Error {
		t.Error("5xx not marked as error")
	}
	var boom *SpanRecord
	for i := range kept[0].Spans {
		if kept[0].Spans[i].Name == "GET /boom" {
			boom = &kept[0].Spans[i]
		}
	}
	if boom == nil || !boom.Error || len(boom.Annotations) == 0 || boom.Annotations[0] != "status:500" {
		t.Errorf("boom span = %+v", boom)
	}
}

// TestTracezHandler checks the JSON document shape, the trace_id
// drill-down, and the text dump.
func TestTracezHandler(t *testing.T) {
	reg, tr := newTestTracer(TraceConfig{Seed: 13, KeepRate: 1, Service: "test", Capacity: 32})
	root := tr.StartTrace("poll")
	child := root.StartChild("http:recent")
	child.Annotate("retry:2")
	child.End()
	root.End()
	tr.StartTrace("other").End()

	mux := NewOpsMux(reg, false)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/tracez", nil))
	if rec.Code != 200 {
		t.Fatalf("/tracez -> %d", rec.Code)
	}
	var doc struct {
		Service   string      `json:"service"`
		Capacity  int         `json:"capacity"`
		Occupancy int         `json:"occupancy"`
		Started   uint64      `json:"traces_started"`
		Traces    []KeptTrace `json:"traces"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("tracez JSON: %v", err)
	}
	if doc.Service != "test" || doc.Capacity != 32 || doc.Occupancy != 2 || doc.Started != 2 || len(doc.Traces) != 2 {
		t.Fatalf("tracez doc = %+v", doc)
	}

	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/tracez?trace_id="+root.TraceID().String(), nil))
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Traces) != 1 || doc.Traces[0].TraceID != root.TraceID().String() {
		t.Fatalf("drill-down returned %d traces", len(doc.Traces))
	}

	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/tracez?format=text", nil))
	text := rec.Body.String()
	if !strings.Contains(text, "trace "+root.TraceID().String()) ||
		!strings.Contains(text, "http:recent") || !strings.Contains(text, "[retry:2]") {
		t.Fatalf("text dump missing content:\n%s", text)
	}
}

// TestRecordSpanRetroactive covers SpanCtx.RecordSpan — the stream
// engine's seal/fold spans whose boundaries are stamped before the span
// is written.
func TestRecordSpanRetroactive(t *testing.T) {
	_, tr := newTestTracer(TraceConfig{Seed: 14, KeepRate: 1})
	root := tr.StartTrace("stream.event")
	start := time.Now().Add(-5 * time.Millisecond)
	root.Ctx().RecordSpan("stream.seal", start, start.Add(2*time.Millisecond), false)
	root.End()
	kept := tr.Kept(root.TraceID().String())
	if len(kept) != 1 || len(kept[0].Spans) != 2 {
		t.Fatalf("kept = %+v", kept)
	}
	var seal *SpanRecord
	for i := range kept[0].Spans {
		if kept[0].Spans[i].Name == "stream.seal" {
			seal = &kept[0].Spans[i]
		}
	}
	if seal == nil || seal.DurationNS != (2*time.Millisecond).Nanoseconds() {
		t.Fatalf("seal span = %+v", seal)
	}
	// Unsampled contexts are inert.
	var none SpanCtx
	none.RecordSpan("x", start, start, false)
	if none.StartChild("x") != nil {
		t.Fatal("unsampled StartChild returned a span")
	}
}

// TestNilTraceSafety drives every method through nil receivers — the
// unsampled fast path call sites rely on.
func TestNilTraceSafety(t *testing.T) {
	var tr *Tracer
	sp := tr.StartTrace("op")
	if sp != nil {
		t.Fatal("nil tracer sampled")
	}
	sp.Annotate("x")
	sp.Annotatef("%d", 1)
	sp.MarkError()
	sp.FlagKeep("r")
	child := sp.StartChild("c")
	if child != nil {
		t.Fatal("nil span minted a child")
	}
	sp.EndErr(nil)
	sp.End()
	if !sp.TraceID().IsZero() || sp.Ctx().Sampled() {
		t.Fatal("nil span leaked identity")
	}
	if tr.Kept("") != nil || tr.Occupancy() != 0 || tr.Service() != "" {
		t.Fatal("nil tracer state")
	}
	if TraceFromContext(nil) != nil {
		t.Fatal("nil context trace")
	}
}

// TestSpanBound checks the per-trace span cap: overflow is counted, not
// stored.
func TestSpanBound(t *testing.T) {
	reg, tr := newTestTracer(TraceConfig{Seed: 15, KeepRate: 1})
	root := tr.StartTrace("big")
	for i := 0; i < maxSpansPerTrace+10; i++ {
		root.StartChild("c").End()
	}
	root.End()
	kept := tr.Kept(root.TraceID().String())
	if len(kept) != 1 {
		t.Fatal("trace not kept")
	}
	if len(kept[0].Spans) > maxSpansPerTrace {
		t.Fatalf("span bound broken: %d", len(kept[0].Spans))
	}
	if kept[0].Dropped == 0 || reg.Value("trace_spans_dropped_total") == 0 {
		t.Fatal("dropped spans not counted")
	}
}

// TestTracerConcurrent hammers one tracer from many goroutines — the
// race-detector coverage for the recorder, counters and span lists.
func TestTracerConcurrent(t *testing.T) {
	_, tr := newTestTracer(TraceConfig{Seed: 16, KeepRate: 1, Capacity: 64})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				sp := tr.StartTrace("op")
				c := sp.StartChild("child")
				c.Annotate("note")
				c.End()
				if i%3 == 0 {
					sp.MarkError()
				}
				sp.End()
			}
		}()
	}
	wg.Wait()
	if tr.Occupancy() != 64 {
		t.Fatalf("occupancy %d", tr.Occupancy())
	}
}

// TestExemplars covers ObserveExemplar end to end: snapshot exposure,
// Prometheus rendering, and validator acceptance of exemplar lines.
func TestExemplars(t *testing.T) {
	reg, tr := newTestTracer(TraceConfig{Seed: 17, KeepRate: 1})
	h := reg.Histogram("req_seconds", []float64{0.01, 0.1})
	sp := tr.StartTrace("op")
	h.ObserveExemplar(0.05, sp.TraceID())
	h.ObserveExemplar(0.5, TraceID{}) // zero id: plain observe
	sp.End()

	var sample *Sample
	for _, s := range reg.Snapshot() {
		if s.Name == "req_seconds" {
			sample = &s
		}
	}
	if sample == nil || len(sample.Exemplars) != 1 {
		t.Fatalf("exemplars in snapshot = %+v", sample)
	}
	e := sample.Exemplars[0]
	if e.Bucket != 1 || e.TraceID != sp.TraceID().String() || e.Value != 0.05 {
		t.Fatalf("exemplar = %+v", e)
	}

	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := `req_seconds_bucket{le="0.1"} 1 # {trace_id="` + sp.TraceID().String() + `"} 0.05`
	if !strings.Contains(buf.String(), want) {
		t.Fatalf("exposition missing exemplar line %q:\n%s", want, buf.String())
	}
	if err := ValidateExposition(strings.NewReader(buf.String())); err != nil {
		t.Fatalf("exposition with exemplars rejected: %v", err)
	}
	if err := ValidateExposition(strings.NewReader("x_bucket{le=\"1\"} 1 # {trace_id=\"zz\"} notafloat\n")); err == nil {
		t.Fatal("malformed exemplar accepted")
	}
}

// TestTraceUnsampledZeroAlloc pins the no-sample fast path at zero
// allocations.
func TestTraceUnsampledZeroAlloc(t *testing.T) {
	_, tr := newTestTracer(TraceConfig{Seed: 18, SampleRate: -1})
	allocs := testing.AllocsPerRun(1000, func() {
		sp := tr.StartTrace("op")
		sp.StartChild("c").End()
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("unsampled path allocates: %v allocs/op", allocs)
	}
}

// BenchmarkTraceUnsampled measures the no-sample fast path (the BENCH
// acceptance: 0 allocs).
func BenchmarkTraceUnsampled(b *testing.B) {
	_, tr := newTestTracer(TraceConfig{Seed: 1, SampleRate: -1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.StartTrace("op").End()
	}
}

// BenchmarkTraceSampled measures the full sampled span lifecycle.
func BenchmarkTraceSampled(b *testing.B) {
	_, tr := newTestTracer(TraceConfig{Seed: 1, SampleRate: 1, KeepRate: 0.1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := tr.StartTrace("op")
		sp.StartChild("child").End()
		sp.End()
	}
}

// FuzzTraceparent: no header may panic the parser, and an accepted one
// must carry exactly the IDs and sampled bit it decoded to.
func FuzzTraceparent(f *testing.F) {
	for _, s := range badTraceparents {
		f.Add(s)
	}
	_, tr := newTestTracer(TraceConfig{Seed: 3, KeepRate: 1})
	f.Add(tr.StartTrace("op").Ctx().Traceparent())
	f.Add("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00")
	f.Add("01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-future")
	f.Fuzz(func(t *testing.T, s string) {
		tid, sid, sampled, ok := ParseTraceparent(s)
		if !ok {
			return
		}
		if got, want := s[3:52], tid.String()+"-"+sid.String(); got != want {
			t.Fatalf("%q: IDs %q decode to %q", s, got, want)
		}
		flags, err := strconv.ParseUint(s[53:55], 16, 8)
		if err != nil {
			t.Fatalf("%q accepted with flags %q: %v", s, s[53:55], err)
		}
		if sampled != (flags&1 != 0) {
			t.Fatalf("%q: sampled = %v, flags %#x", s, sampled, flags)
		}
	})
}
