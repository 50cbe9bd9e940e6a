package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"jitomev"
	"jitomev/internal/collector"
	"jitomev/internal/core"
	"jitomev/internal/explorer"
	"jitomev/internal/jito"
	"jitomev/internal/obs"
	"jitomev/internal/quality"
	"jitomev/internal/report"
	"jitomev/internal/snapshot"
	"jitomev/internal/solana"
	"jitomev/internal/workload"
)

// study-http: the paper's pipeline over real loopback HTTP — generate,
// accept, serve, poll, fetch details, detect — followed by a v3 save and
// the headline render. Every pass must reproduce, byte for byte, an
// in-process run of the same seed computed in set-up. One study per
// seed: the pass's bundles per second depends on the study's traffic
// shape, so a run reports one study's median.

func studyParams(cfg config) workload.Params {
	if cfg.tiny {
		return workload.Params{Seed: cfg.seed, Days: 1, Scale: 50_000}
	}
	return workload.Params{Seed: cfg.seed, Days: 3, Scale: 20_000}
}

// studyWorkers is the pipeline concurrency of every pass: the producer
// and the ingest goroutine of RunPipelinedObs, whatever GOMAXPROCS is.
const studyWorkers = 2

// setupRuns is how many in-process reference runs set-up times, after
// one untimed warm-up; setup_s is their median.
const setupRuns = 5

// studyOutput is what a pass produces and what the checks compare; the
// saved snapshot is compared as the file the pass wrote.
type studyOutput struct {
	results  *report.Results
	headline []byte
	bundles  int // bundles accepted on chain and served by the explorer
}

func renderHeadline(r *report.Results, scale int) []byte {
	var b bytes.Buffer
	report.RenderHeadline(&b, r, scale)
	return b.Bytes()
}

func runStudyHTTP(cfg config, res *result) error {
	p := studyParams(cfg)
	snapPath := workPath(cfg, "study.snap")

	// Set-up: the in-process pipeline (UseHTTP false) of the same study,
	// whose output is the reference every HTTP pass must reproduce.
	var ref *jitomev.Outcome
	var setups []float64
	for i := 0; i <= setupRuns; i++ {
		t0 := time.Now()
		out, err := jitomev.Run(jitomev.Config{Workload: p, Workers: studyWorkers})
		if err != nil {
			return fmt.Errorf("in-process reference run: %w", err)
		}
		if i > 0 {
			setups = append(setups, time.Since(t0).Seconds())
		}
		ref = out
	}
	res.e2e["setup_s"] = median(setups)
	var wantSnap bytes.Buffer
	if err := ref.Collector.Data.Save(&wantSnap); err != nil {
		return err
	}
	want := &studyOutput{results: ref.Results, headline: renderHeadline(ref.Results, ref.Study.P.Scale)}
	if cfg.sabotage {
		want.results.Sandwiches++
	}

	check := func(out *studyOutput, err error) error {
		if err != nil {
			return err
		}
		disk, err := os.ReadFile(snapPath)
		if err != nil {
			return err
		}
		res.check(bytes.Equal(disk, wantSnap.Bytes()) && bytes.Equal(out.headline, want.headline) &&
			reflect.DeepEqual(out.results, want.results))
		return nil
	}
	untraced := func() (*studyOutput, passCost, error) {
		var out *studyOutput
		cost, err := measured(func() (err error) {
			out, err = studyPass(p, snapPath)
			return err
		})
		return out, cost, check(out, err)
	}

	budget := time.Duration(cfg.seconds * float64(time.Second))
	start := time.Now()
	if !cfg.trace {
		var allocPer, heap []float64
		for n := 0; !deadline(start, budget, n, 3); n++ {
			out, cost, err := untraced()
			if err != nil {
				return err
			}
			allocPer = append(allocPer, float64(cost.alloc)/1024/float64(out.bundles))
			heap = append(heap, cost.heapMiB)
		}
		res.e2e["alloc_kib_per_bundle"] = median(allocPer)
		res.e2e["peak_heap_mib"] = median(heap)
		return nil
	}

	// Traced run: each untraced pass is followed by a traced pass; the
	// median paired wall difference is the tracing overhead.
	m := newMedianOf()
	for n := 0; !deadline(start, budget, n, 2); n++ {
		plain, cost, err := untraced()
		if err != nil {
			return err
		}
		m.add("bundles_per_s", float64(plain.bundles)/cost.wall.Seconds())
		m.add("cpu_us_per_bundle", float64(cost.cpu.Microseconds())/float64(plain.bundles))
		runtime.GC()
		out, wall, err := tracedStudyPass(p, snapPath, m)
		if err := check(out, err); err != nil {
			return err
		}
		m.add("trace.untraced_wall_s", cost.wall.Seconds())
		m.add("trace.overhead_s", (wall - cost.wall).Seconds())
	}
	m.into(res.layer)
	return nil
}

// studyPass is the untraced pass: jitomev.Run over HTTP, a v3 save and
// the headline render.
func studyPass(p workload.Params, snapPath string) (*studyOutput, error) {
	out, err := jitomev.Run(jitomev.Config{Workload: p, UseHTTP: true, Workers: studyWorkers})
	if err != nil {
		return nil, err
	}
	if _, err := snapshot.WriteFileAtomic(snapPath, out.Collector.Data.Save); err != nil {
		return nil, err
	}
	return &studyOutput{results: out.Results, headline: renderHeadline(out.Results, p.Scale), bundles: out.Store.Len()}, nil
}

// tracedStudyPass rebuilds jitomev.Run's HTTP path step by step from the
// same public constructors, with the benchmark's spies at every seam:
// the producer's view of the ingest queue, the ingest sink, the
// collector's transport and the explorer's HTTP handler.
func tracedStudyPass(p workload.Params, snapPath string, m *medianOf) (*studyOutput, time.Duration, error) {
	rec := newRecorder()
	root := rec.begin("unattributed", laneMain, nil)
	reg := obs.NewRegistry()

	var st *workload.Study
	rec.timed("workload.new", root, func() { st = workload.New(p) })
	p = st.P // defaults filled in, as jitomev.Run reads them
	ccfg := collector.Config{PageLimit: explorer.MaxPageLimit / p.Scale}
	if ccfg.PageLimit < 20 {
		ccfg.PageLimit = 20
	}
	store := explorer.NewStore()
	ts := &transportSpy{rec: rec}
	hs := &handlerSpy{rec: rec, inner: explorer.NewServerObs(store, 0, reg), transport: ts}
	var srv *http.Server
	var addr string
	var err error
	rec.timed("explorer.listen", root, func() { srv, addr, err = serveLoopback(hs) })
	if err != nil {
		return nil, 0, err
	}
	defer srv.Close()
	ts.inner = collector.NewHTTP("http://" + addr).WithObs(reg)

	coll := collector.NewObs(ccfg, p.Clock(), ts, reg)
	q := quality.New(quality.Config{}, reg)
	coll.AttachQuality(q)
	st.DayObserver = func(ds workload.DayStats) { q.ObserveGenerated(ds.Day, ds.BundlesLanded) }
	sink := &sinkSpy{rec: rec, ts: ts,
		inner: &collector.PollingSink{Store: store, Collector: coll, InOutage: p.InOutage}}

	// RunPipelinedObs, unrolled so the producer's pushes are visible.
	run := rec.begin("workload.run", laneMain, root)
	sink.lane, ts.lane = laneIngest, laneIngest
	ps := workload.NewPipelinedSinkObs(sink, 0, reg)
	st.Run(&producerSpy{rec: rec, inner: ps, parent: run})
	rec.end(run)
	drain := rec.begin("workload.drain", laneMain, root)
	drain.waitLane = laneIngest
	ps.Close()
	rec.end(drain)

	fd := rec.begin("collector.fetch_details", laneMain, root)
	ts.lane, ts.parent = laneMain, fd
	_, err = coll.FetchDetails()
	rec.end(fd)
	if err != nil && !errors.Is(err, collector.ErrDetailShortfall) {
		return nil, 0, fmt.Errorf("fetching details: %w", err)
	}

	var r *report.Results
	rec.timed("report.analyze", root, func() {
		r = report.AnalyzeQuality(coll.Data, core.NewDefaultDetector(), 0, studyWorkers, reg, q)
		r.OverlapRate = coll.OverlapRate()
		r.PollCount = coll.Polls()
		r.DetailRequests = coll.DetailRequests()
		q.Evaluate()
	})
	rec.timed("explorer.shutdown", root, func() { err = srv.Shutdown(context.Background()) })
	if err != nil {
		return nil, 0, err
	}
	var size int64
	rec.timed("snapshot.save", root, func() { size, err = snapshot.WriteFileAtomic(snapPath, coll.Data.Save) })
	if err != nil {
		return nil, 0, err
	}
	var headline []byte
	rec.timed("report.render", root, func() { headline = renderHeadline(r, p.Scale) })
	rec.end(root)

	an := rec.analyse()
	hs.mu.Lock()
	defer hs.mu.Unlock()
	m.addPath(an.blockingPath(root), root.dur())
	m.add("trace.spans", float64(len(an.spans)))
	m.add("workload.generate_s", an.sum("workload.run", true).Seconds())
	m.add("workload.sink_wait_s", (an.sum("workload.sink_wait", false) + an.sum("workload.drain", false)).Seconds())
	m.add("explorer.accept_s", an.sum("explorer.accept", false).Seconds())
	m.add("explorer.accepts", float64(sink.accepts))
	serve := an.sum("explorer.serve", false)
	m.add("explorer.serve_s", serve.Seconds())
	m.add("explorer.requests", float64(hs.requests))
	m.add("explorer.response_bytes", float64(hs.bytes))
	transport := an.sum("collector.transport", false)
	m.add("collector.poll_s", an.sum("collector.poll", false).Seconds())
	m.add("collector.polls", float64(coll.Polls()))
	m.add("collector.transport_s", transport.Seconds())
	m.add("collector.transport_calls", float64(an.count("collector.transport")))
	m.add("collector.wire_s", (transport - serve).Seconds())
	m.add("collector.ingest_s", an.sum("collector.poll", true).Seconds())
	m.add("collector.fetch_details_s", an.sum("collector.fetch_details", false).Seconds())
	m.add("collector.detail_batches", float64(ts.batches))
	m.add("collector.records_fetched", float64(ts.records))
	if ts.records > 0 {
		m.add("collector.useful_ratio", float64(coll.Data.Collected)/float64(ts.records))
	}
	m.add("collector.retries", float64(coll.DetailRetries()))
	m.add("collector.errors", float64(coll.Errors()))
	m.add("collector.decode_us.recent", decodeMedianUs(hs.captured))
	m.add("report.analyze_s", an.sum("report.analyze", false).Seconds())
	m.add("report.render_s", an.sum("report.render", false).Seconds())
	m.add("snapshot.save_s", an.sum("snapshot.save", false).Seconds())
	m.add("snapshot.bytes", float64(size))

	return &studyOutput{results: r, headline: headline, bundles: store.Len()}, root.dur(), nil
}

// decodeMedianUs times the collector's decode of captured recent pages
// (the same json.Decoder into explorer.RecentResponse) and returns the
// median per page in microseconds.
func decodeMedianUs(pages [][]byte) float64 {
	var us []float64
	for _, b := range pages {
		var body explorer.RecentResponse
		t0 := time.Now()
		if err := json.NewDecoder(bytes.NewReader(b)).Decode(&body); err != nil {
			continue
		}
		us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	return median(us)
}

// serveLoopback starts handler on an ephemeral loopback port.
func serveLoopback(handler http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second}
	go func() { _ = srv.Serve(ln) }()
	return srv, ln.Addr().String(), nil
}

// producerSpy times the producer's pushes into the pipelined ingest
// queue: each push is a wait on the ingest lane.
type producerSpy struct {
	rec    *recorder
	inner  workload.Sink
	parent *span
}

func (p *producerSpy) Accept(day int, acc *jito.Accepted) {
	s := p.rec.begin("workload.sink_wait", laneMain, p.parent)
	s.waitLane = laneIngest
	p.inner.Accept(day, acc)
	p.rec.end(s)
}

// sinkSpy wraps the ingest sink (PollingSink). A call is the store's
// Accept followed, when the polling cadence is due, by one Poll; the
// poll begins with the transport call, so the first transport span
// inside the call splits it into explorer.accept and collector.poll.
type sinkSpy struct {
	rec     *recorder
	inner   workload.Sink
	ts      *transportSpy
	lane    string
	accepts int
}

func (s *sinkSpy) Accept(day int, acc *jito.Accepted) {
	sp := s.rec.begin("collector.sink", s.lane, nil)
	s.inner.Accept(day, acc)
	s.rec.end(sp)
	s.accepts++
	cut := sp.end
	if len(s.ts.pending) > 0 {
		cut = s.ts.pending[0].start
	}
	s.rec.add(&span{name: "explorer.accept", lane: s.lane, start: sp.start, end: cut, parent: sp})
	if len(s.ts.pending) > 0 {
		poll := s.rec.add(&span{name: "collector.poll", lane: s.lane, start: cut, end: sp.end, parent: sp})
		for _, t := range s.ts.pending {
			t.parent = poll
		}
		s.ts.pending = s.ts.pending[:0]
	}
}

// transportSpy wraps the collector's transport. Calls are sequential;
// with no parent set, spans wait in pending for the sink spy to adopt.
type transportSpy struct {
	rec      *recorder
	inner    collector.Transport
	lane     string
	parent   *span
	pending  []*span
	inflight atomic.Pointer[span] // read by the handler spy for parenting
	batches  int
	records  int
}

func (t *transportSpy) call(fn func()) {
	s := t.rec.begin("collector.transport", t.lane, t.parent)
	t.inflight.Store(s)
	fn()
	t.inflight.Store(nil)
	t.rec.end(s)
	if t.parent == nil {
		t.pending = append(t.pending, s)
	}
}

func (t *transportSpy) RecentBundles(limit int) (page []jito.BundleRecord, err error) {
	t.call(func() { page, err = t.inner.RecentBundles(limit) })
	t.records += len(page)
	return page, err
}

func (t *transportSpy) RecentBundlesBefore(before uint64, limit int) (page []jito.BundleRecord, err error) {
	t.call(func() { page, err = t.inner.RecentBundlesBefore(before, limit) })
	t.records += len(page)
	return page, err
}

func (t *transportSpy) TxDetails(ids []solana.Signature) (d []jito.TxDetail, err error) {
	t.call(func() { d, err = t.inner.TxDetails(ids) })
	t.batches++
	return d, err
}

// handlerSpy wraps the explorer's http.Handler: one span per request,
// parented on the transport call in flight, plus request and byte counts
// and a sample of recent-page bodies for the decode measurement.
type handlerSpy struct {
	rec       *recorder
	inner     http.Handler
	transport *transportSpy

	mu       sync.Mutex
	requests int
	bytes    int64
	captured [][]byte
}

// captureEvery samples one recent page in this many for decode timing.
const captureEvery = 8

func (h *handlerSpy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s := h.rec.begin("explorer.serve", laneServer, h.transport.inflight.Load())
	cw := &countingWriter{ResponseWriter: w}
	h.mu.Lock()
	if r.URL.Path == "/api/v1/bundles/recent" && h.requests%captureEvery == 0 {
		cw.capture = &bytes.Buffer{}
	}
	h.mu.Unlock()
	h.inner.ServeHTTP(cw, r)
	h.rec.end(s)
	h.mu.Lock()
	h.requests++
	h.bytes += cw.n
	if cw.capture != nil {
		h.captured = append(h.captured, cw.capture.Bytes())
	}
	h.mu.Unlock()
}

type countingWriter struct {
	http.ResponseWriter
	n       int64
	capture *bytes.Buffer
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	if c.capture != nil {
		c.capture.Write(p[:n])
	}
	return n, err
}
