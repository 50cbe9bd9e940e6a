package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"jitomev/internal/explorer"
	"jitomev/internal/jito"
	"jitomev/internal/solana"
	"jitomev/internal/workload"
)

// serve-mixed: explorerd runs as its own process over a store it builds
// at start-up from the seed; a single-process open-loop generator with
// two connections replays a seeded schedule of pre-built requests in
// loadgen's 6:3:1 mix (pagers, detail clients, malformed traffic) and
// times each request from its due time. Every response's status, length
// and CRC-32C must match the ones recorded for the same request in a
// set-up pass.

const (
	pageLimit   = 200 // records per pager page
	detailBatch = 64  // ids per detail POST
	maxBatches  = 256 // detail batches in the request pool
	// connections is the generator's concurrency: with two, explorerd has
	// the next request queued while the generator checks a response.
	connections = 2
	heapSlices  = 5 // sub-windows of the heap window
	// latencyLimit is the p99 a ladder rung must meet to count as
	// sustainable.
	latencyLimit = 250 * time.Millisecond
)

func serveParams(cfg config) workload.Params {
	if cfg.tiny {
		return workload.Params{Seed: cfg.seed, Days: 1, Scale: 50_000}
	}
	return workload.Params{Seed: cfg.seed, Days: 7, Scale: 10_000}
}

// referenceRate is the fixed offered load latency, server CPU and heap
// are measured at.
func referenceRate(cfg config) float64 {
	if cfg.tiny {
		return 50
	}
	return 200
}

// Request kinds in the mix.
const (
	kindPager = iota
	kindDetail
	kindBad
)

// request is one pre-built request with the response recorded for it
// in set-up.
type request struct {
	kind   int
	method string
	path   string
	body   []byte

	// Parsed form, for the in-process replay of the store and encoder.
	before uint64 // 0 = newest page
	ids    []solana.Signature

	status  int
	size    int
	sum     uint32
	records int // bundle records in a page response
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// explorerProc is a running explorerd child.
type explorerProc struct {
	cmd    *exec.Cmd
	base   string
	exited chan struct{}
}

// startExplorerd launches explorerd on a free loopback port and waits
// until the API answers.
func startExplorerd(cfg config, p workload.Params) (*explorerProc, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addr := ln.Addr().String()
		ln.Close()
		cmd := exec.Command(cfg.explorerd, "-addr", addr,
			"-days", strconv.Itoa(p.Days), "-scale", strconv.Itoa(p.Scale),
			"-seed", strconv.FormatInt(p.Seed, 10), "-trace-sample", "-1", "-rate", "0")
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := cmd.Start(); err != nil {
			return nil, fmt.Errorf("starting explorerd: %w", err)
		}
		ep := &explorerProc{cmd: cmd, base: "http://" + addr, exited: make(chan struct{})}
		go func() {
			_ = cmd.Wait()
			close(ep.exited)
		}()
		if lastErr = ep.waitReady(); lastErr == nil {
			return ep, nil
		}
		ep.stop()
	}
	return nil, lastErr
}

func (e *explorerProc) waitReady() error {
	hc := &http.Client{Timeout: time.Second}
	limit := time.Now().Add(90 * time.Second)
	for time.Now().Before(limit) {
		select {
		case <-e.exited:
			return errors.New("explorerd exited before serving")
		default:
		}
		resp, err := hc.Get(e.base + "/api/v1/bundles/recent?limit=1")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return errors.New("explorerd not ready after 90s")
}

// stop kills the child and waits for it to be reaped.
func (e *explorerProc) stop() {
	_ = e.cmd.Process.Kill()
	<-e.exited
}

func (e *explorerProc) cpu() time.Duration {
	d, err := cpuOfPID(e.cmd.Process.Pid)
	if err != nil {
		return 0
	}
	return d
}

// heapBytes scrapes explorerd's /metrics for the heap gauge it refreshes
// on every scrape.
func (e *explorerProc) heapBytes(hc *http.Client) float64 {
	resp, err := hc.Get(e.base + "/metrics")
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 2 && f[0] == "go_heap_alloc_bytes" {
			v, _ := strconv.ParseFloat(f[1], 64)
			return v
		}
	}
	return 0
}

func runServeMixed(cfg config, res *result) error {
	p := serveParams(cfg)
	// Set-up: explorerd started setupRuns times, timed from exec to the
	// first answered request; the last keeps serving.
	var setups []float64
	var ep *explorerProc
	for i := 0; i < setupRuns; i++ {
		if ep != nil {
			ep.stop()
		}
		t0 := time.Now()
		var err error
		if ep, err = startExplorerd(cfg, p); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer ep.stop()
	res.e2e["setup_s"] = median(setups)

	pool, err := buildPool(ep.base)
	if err != nil {
		return err
	}
	if cfg.sabotage {
		pool[0].sum ^= 0xff
	}
	g := newGenerator(ep.base, res)
	sched := scheduler{seed: cfg.seed, scheduleSeed: cfg.scheduleSeed, pool: pool}

	budget := time.Duration(cfg.seconds * float64(time.Second))
	refDur := budget / 2 // untraced, the heap window and the allocation replay take the rest
	if cfg.trace {
		refDur = budget / 5 // the ladder and the in-process replay take the rest
	}

	// Warm-up (checked, not timed).
	g.run(sched.phase("warmup", 100, budget/40))

	// Reference window: fixed offered rate, latency from due time, and
	// explorerd's CPU read from outside. Nothing else talks to explorerd
	// in it, so its CPU is the mix's alone.
	srv0, gen0 := ep.cpu(), cpuSelf()
	ref := g.run(sched.phase("reference", referenceRate(cfg), refDur))
	srvCPU, genCPU := ep.cpu()-srv0, cpuSelf()-gen0

	if !cfg.trace {
		// Heap window: the same rate again while explorerd's heap gauge is
		// scraped; each scrape stops its world, so this window is apart
		// from the CPU one. The window is cut into heapSlices; the peak
		// reported is the median of their peaks, since one scrape landing
		// at the top of a garbage-collection cycle would otherwise set it.
		heapDur := budget / 5
		peaks := make([]float64, heapSlices)
		stopScrape := make(chan struct{})
		scraped := make(chan struct{})
		go func() {
			defer close(scraped)
			hc := &http.Client{Timeout: time.Second}
			t := time.NewTicker(heapDur / 100)
			defer t.Stop()
			t0 := time.Now()
			for {
				i := min(int(time.Since(t0)*heapSlices/heapDur), heapSlices-1)
				if h := ep.heapBytes(hc); h > peaks[i] {
					peaks[i] = h
				}
				select {
				case <-stopScrape:
					return
				case <-t.C:
				}
			}
		}()
		g.run(sched.phase("heap", referenceRate(cfg), heapDur))
		close(stopScrape)
		<-scraped
		res.e2e["peak_heap_mib"] = median(peaks) / (1 << 20)
		res.e2e["alloc_kib_per_bundle"] = allocReplay(cfg, p, sched, budget/4, res)
		return nil
	}

	ladderStart := time.Now()
	best, probe := g.ladder(sched, budget*2/5)
	res.layer["bundles_per_s"] = probe.records / probe.seconds
	res.layer["p50_ms"] = median(ref.latMs)
	res.layer["p99_ms"] = percentile(ref.latMs, 99)
	res.layer["max_sustainable_qps"] = best.rate
	res.layer["cpu_us_per_bundle"] = float64(srvCPU.Microseconds()) / float64(ref.records)
	res.layer["server_cpu_us_per_req"] = float64(srvCPU.Microseconds()) / float64(ref.completed)
	res.layer["p99_samples"] = float64(len(ref.latMs))
	res.layer["loadgen.lag_ms_p99"] = percentile(ref.lagMs, 99)
	res.layer["loadgen.cpu_s"] = genCPU.Seconds()
	return replayServe(cfg, p, sched, budget-refDur-time.Since(ladderStart), res)
}

// buildPool walks the served store through the before= cursor with
// 200-record pages, harvests 64-id detail batches from the walked pages,
// adds loadgen's malformed requests, and records every response.
func buildPool(base string) ([]*request, error) {
	hc := &http.Client{Timeout: 30 * time.Second}
	fetch := func(r *request) ([]byte, error) {
		req, err := http.NewRequest(r.method, base+r.path, bytes.NewReader(r.body))
		if err != nil {
			return nil, err
		}
		resp, err := hc.Do(req)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return nil, err
		}
		r.status, r.size, r.sum = resp.StatusCode, len(body), crc32.Checksum(body, castagnoli)
		return body, nil
	}

	var pool []*request
	var ids []solana.Signature
	var before uint64
	for {
		r := &request{kind: kindPager, method: http.MethodGet, before: before,
			path: fmt.Sprintf("/api/v1/bundles/recent?limit=%d", pageLimit)}
		if before > 0 {
			r.path += fmt.Sprintf("&before=%d", before)
		}
		body, err := fetch(r)
		if err != nil {
			return nil, err
		}
		var page explorer.RecentResponse
		if r.status != http.StatusOK || json.Unmarshal(body, &page) != nil {
			return nil, fmt.Errorf("set-up page %s: status %d", r.path, r.status)
		}
		if len(page.Bundles) == 0 {
			break
		}
		r.records = len(page.Bundles)
		pool = append(pool, r)
		before = page.Bundles[len(page.Bundles)-1].Seq
		for _, b := range page.Bundles {
			ids = append(ids, b.TxIDs...)
		}
	}
	for i := 0; i+detailBatch <= len(ids) && i/detailBatch < maxBatches; i += detailBatch {
		batch := ids[i : i+detailBatch]
		body, err := json.Marshal(explorer.DetailRequest{IDs: batch})
		if err != nil {
			return nil, err
		}
		pool = append(pool, &request{kind: kindDetail, method: http.MethodPost,
			path: "/api/v1/transactions", body: body, ids: batch})
	}
	pool = append(pool,
		&request{kind: kindBad, method: http.MethodGet, path: "/api/v1/bundles/recent?limit=0"},
		&request{kind: kindBad, method: http.MethodGet, path: "/api/v1/bundles/recent?limit=10&before=abc"},
		&request{kind: kindBad, method: http.MethodDelete, path: "/api/v1/bundles/recent"},
		&request{kind: kindBad, method: http.MethodGet, path: "/api/v1/nope"},
		&request{kind: kindBad, method: http.MethodPost, path: "/api/v1/transactions", body: []byte("{not json")},
	)
	for _, r := range pool {
		if r.kind == kindPager {
			continue
		}
		if _, err := fetch(r); err != nil {
			return nil, err
		}
		if (r.kind == kindBad) != (r.status >= 400 && r.status < 500) {
			return nil, fmt.Errorf("set-up %s %s: unexpected status %d", r.method, r.path, r.status)
		}
	}
	return pool, nil
}

// scheduler derives every phase's requests and due times from the
// workload seed, the schedule seed and the phase's name and rate alone.
type scheduler struct {
	seed, scheduleSeed int64
	pool               []*request
}

type phase struct {
	rate float64
	reqs []*request
	due  []time.Duration
}

func (s scheduler) phase(name string, rate float64, dur time.Duration) phase {
	h := crc32.ChecksumIEEE([]byte(fmt.Sprintf("%s/%.3f", name, rate)))
	rng := rand.New(rand.NewSource(s.seed*1_000_003 + s.scheduleSeed*7919 + int64(h)))
	var pagers, details, bad []*request
	for _, r := range s.pool {
		switch r.kind {
		case kindPager:
			pagers = append(pagers, r)
		case kindDetail:
			details = append(details, r)
		default:
			bad = append(bad, r)
		}
	}
	// Eight pagers walk the cursor chain, going one page deeper three
	// times in four and restarting at the newest page otherwise; detail
	// clients cycle through the harvested batches.
	var walk [8]int
	nextDetail := rng.Intn(len(details))
	n := int(math.Ceil(rate * dur.Seconds()))
	ph := phase{rate: rate, reqs: make([]*request, n), due: make([]time.Duration, n)}
	var at float64
	for i := 0; i < n; i++ {
		at += rng.ExpFloat64() / rate
		ph.due[i] = time.Duration(at * float64(time.Second))
		switch k := rng.Intn(10); {
		case k < 6:
			w := &walk[rng.Intn(len(walk))]
			ph.reqs[i] = pagers[*w]
			if *w+1 < len(pagers) && rng.Intn(4) != 0 {
				*w++
			} else {
				*w = 0
			}
		case k < 9:
			ph.reqs[i] = details[nextDetail]
			nextDetail = (nextDetail + 1) % len(details)
		default:
			ph.reqs[i] = bad[rng.Intn(len(bad))]
		}
	}
	return ph
}

// generator is the open-loop client: one worker per keep-alive
// connection, taking requests in schedule order and sending each no
// earlier than its due time.
type generator struct {
	base    string
	clients []*http.Client
	res     *result
	mu      sync.Mutex // guards res.check across workers
}

func newGenerator(base string, res *result) *generator {
	g := &generator{base: base, res: res}
	for i := 0; i < connections; i++ {
		g.clients = append(g.clients, &http.Client{
			Timeout: 10 * time.Second,
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1,
				DisableCompression: true},
		})
	}
	return g
}

// phaseResult holds one phase's measurements.
type phaseResult struct {
	rate      float64
	latMs     []float64 // completion minus due time
	lagMs     []float64 // send minus due time
	completed int
	failed    int
	records   int
}

// run replays a phase open-loop. Every response is checked. Latencies
// and lags are kept in schedule order.
func (g *generator) run(ph phase) phaseResult {
	n := len(ph.reqs)
	out := phaseResult{rate: ph.rate, latMs: make([]float64, n), lagMs: make([]float64, n)}
	var next atomic.Int64
	parts := make([]phaseResult, len(g.clients))
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := range g.clients {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			hc, pr := g.clients[w], &parts[w]
			crc := crc32.New(castagnoli)
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := t0.Add(ph.due[i])
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				sent := time.Now()
				ok := g.send(hc, ph.reqs[i], crc)
				out.latMs[i] = float64(time.Since(due)) / 1e6
				out.lagMs[i] = float64(sent.Sub(due)) / 1e6
				if ok {
					pr.completed++
					pr.records += ph.reqs[i].records
				} else {
					pr.failed++
				}
			}
		}(w)
	}
	wg.Wait()
	for _, pr := range parts {
		out.completed += pr.completed
		out.failed += pr.failed
		out.records += pr.records
	}
	return out
}

// send issues one request and checks status, length and CRC against
// set-up.
func (g *generator) send(hc *http.Client, r *request, crc hash.Hash32) bool {
	req, err := http.NewRequest(r.method, g.base+r.path, bytes.NewReader(r.body))
	ok := err == nil
	if ok {
		var resp *http.Response
		resp, err = hc.Do(req)
		ok = err == nil
		if ok {
			crc.Reset()
			n, err := io.Copy(crc, resp.Body)
			resp.Body.Close()
			ok = err == nil && resp.StatusCode == r.status && int(n) == r.size && crc.Sum32() == r.sum
		}
	}
	g.mu.Lock()
	g.res.check(ok)
	g.mu.Unlock()
	return ok
}

// backlogGrowthMs bounds how much later than their due times the last
// quarter of a rung's sends may go out than the first quarter's: above
// it the generator's queue is growing, so the rate is not sustainable
// however short the rung.
const backlogGrowthMs = 25

// sustainable reports whether a phase met the latency limit with at most
// 1% errors and no growing backlog.
func (r phaseResult) sustainable() bool {
	n := len(r.latMs)
	if n < 8 {
		return false
	}
	growth := median(r.lagMs[n*3/4:]) - median(r.lagMs[:n/4])
	return percentile(r.latMs, 99) <= float64(latencyLimit)/1e6 &&
		float64(r.failed) <= 0.01*float64(n) && growth <= backlogGrowthMs
}

// rungRate is the fixed capacity ladder: 50·2^(k/4) requests per second.
func rungRate(k int) float64 { return 50 * math.Pow(2, float64(k)/4) }

// ladder finds the highest sustainable offered rate. A short closed-loop
// probe picks the starting rung; the ladder climbs until a rung fails,
// then two bisection steps narrow the bracket to about 4%. It returns
// the highest sustainable phase and the probe, whose rate is the server's
// capacity with every connection busy.
func (g *generator) ladder(s scheduler, budget time.Duration) (phaseResult, saturation) {
	start := time.Now()
	rung := budget / 8
	probe := g.closedLoop(s.phase("probe", 1000, time.Second), budget/10)
	k := 0
	for rungRate(k+1) <= 0.6*probe.completed/probe.seconds {
		k++
	}
	var best phaseResult
	lo, hi := 0.0, 0.0
	for time.Since(start)+rung <= budget {
		rate := rungRate(k)
		pr := g.run(s.phase("rung", rate, rung))
		if pr.sustainable() {
			best, lo = pr, rate
			k++
			continue
		}
		hi = rate
		if lo == 0 && k > 0 {
			k-- // even the first rung failed: step down
			continue
		}
		break
	}
	for step := 0; step < 2 && lo > 0 && hi > 0 && time.Since(start)+rung <= budget; step++ {
		mid := math.Sqrt(lo * hi)
		if pr := g.run(s.phase("rung", mid, rung)); pr.sustainable() {
			best, lo = pr, mid
		} else {
			hi = mid
		}
	}
	return best, probe
}

// saturation is what a closed-loop phase completed.
type saturation struct {
	completed, records, seconds float64
}

// closedLoop sends the phase's requests back to back on every worker for
// dur, cycling through them.
func (g *generator) closedLoop(ph phase, dur time.Duration) saturation {
	var next, done, records atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := range g.clients {
		wg.Add(1)
		go func(hc *http.Client) {
			defer wg.Done()
			crc := crc32.New(castagnoli)
			for time.Since(t0) < dur {
				r := ph.reqs[int(next.Add(1)-1)%len(ph.reqs)]
				if g.send(hc, r, crc) {
					done.Add(1)
					records.Add(int64(r.records))
				}
			}
		}(g.clients[w])
	}
	wg.Wait()
	return saturation{float64(done.Load()), float64(records.Load()), time.Since(t0).Seconds()}
}

// allocReplay serves a slice of the reference schedule in process,
// through the handler explorerd runs, over a store built from the same
// parameters, and returns the median over passes of the heap KiB the
// handler allocated per bundle record served. Requests and writers are
// built before each pass, so a pass counts only the handler's own
// allocations; the writers keep no body, only its length and CRC-32C,
// which must match what explorerd served.
func allocReplay(cfg config, p workload.Params, s scheduler, budget time.Duration, res *result) float64 {
	start := time.Now()
	store := explorer.NewStore()
	workload.New(p).Run(store)
	srv := explorer.NewServer(store, 0)
	ph := s.phase("reference", referenceRate(cfg), time.Duration(cfg.seconds*float64(time.Second))/10)

	pass := func() (alloc uint64, records int) {
		reqs := make([]*http.Request, len(ph.reqs))
		ws := make([]*sumWriter, len(ph.reqs))
		for i, r := range ph.reqs {
			reqs[i] = newRequest(r)
			ws[i] = &sumWriter{header: http.Header{}, crc: crc32.New(castagnoli)}
		}
		a0 := allocated()
		for i := range reqs {
			srv.ServeHTTP(ws[i], reqs[i])
		}
		alloc = allocated() - a0
		for i, r := range ph.reqs {
			w := ws[i]
			if w.code == 0 {
				w.code = http.StatusOK
			}
			res.check(w.code == r.status && w.n == r.size && w.crc.Sum32() == r.sum)
			records += r.records
		}
		return alloc, records
	}
	pass() // warms the store and the handler's pools; not counted

	var perBundle []float64
	for n := 0; !deadline(start, budget, n, 2); n++ {
		if alloc, records := pass(); records > 0 {
			perBundle = append(perBundle, float64(alloc)/1024/float64(records))
		}
	}
	return median(perBundle)
}

// sumWriter is an http.ResponseWriter that keeps only the status, the
// body's length and its CRC-32C.
type sumWriter struct {
	header http.Header
	code   int
	n      int
	crc    hash.Hash32
}

func (w *sumWriter) Header() http.Header { return w.header }

func (w *sumWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

func (w *sumWriter) Write(b []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	w.n += len(b)
	return w.crc.Write(b)
}

// replayServe replays the reference schedule on one goroutine against an
// in-process store built from the same parameters explorerd used, timing
// the whole handler per call (Server.ServeHTTP into an in-memory writer)
// and checking every response against the bytes explorerd served.
func replayServe(cfg config, p workload.Params, s scheduler, budget time.Duration, res *result) error {
	store := explorer.NewStore()
	workload.New(p).Run(store)
	srv := explorer.NewServer(store, 0)
	ph := s.phase("reference", referenceRate(cfg), time.Duration(cfg.seconds*float64(time.Second))/5)

	plain := func() time.Duration {
		t0 := time.Now()
		for _, r := range ph.reqs {
			srv.ServeHTTP(httptest.NewRecorder(), newRequest(r))
		}
		return time.Since(t0)
	}
	// A first, discarded pass touches the store, so that neither side of
	// the overhead comparison pays for it.
	plain()

	m := newMedianOf()
	var plainWall []float64
	start := time.Now()
	for n := 0; !deadline(start, budget, n, 2); n++ {
		// Untraced: the handler alone, back to back.
		plainWall = append(plainWall, plain().Seconds())

		rec := newRecorder()
		root := rec.begin("unattributed", laneMain, nil)
		var handler [3][]float64 // by kind: pager, detail, malformed
		var bytesOut int64
		for _, r := range ph.reqs {
			req := newRequest(r)
			w := httptest.NewRecorder()
			sp := rec.begin("explorer.serve", laneMain, root)
			srv.ServeHTTP(w, req)
			rec.end(sp)
			handler[r.kind] = append(handler[r.kind], float64(sp.dur())/1e3)
			body := w.Body.Bytes()
			bytesOut += int64(len(body))
			res.check(w.Code == r.status && len(body) == r.size && crc32.Checksum(body, castagnoli) == r.sum)
		}
		rec.end(root)
		an := rec.analyse()
		m.addPath(an.blockingPath(root), root.dur())
		m.add("trace.spans", float64(len(an.spans)))
		m.add("explorer.serve_s", an.sum("explorer.serve", false).Seconds())
		m.add("explorer.requests", float64(len(ph.reqs)))
		m.add("explorer.response_bytes", float64(bytesOut))
		m.add("explorer.handler_us.recent", median(handler[kindPager]))
		m.add("explorer.handler_us.transactions", median(handler[kindDetail]))
		m.add("explorer.handler_us.other", median(handler[kindBad]))
		if err := storeAndEncode(store, ph.reqs, m); err != nil {
			return err
		}
	}
	m.into(res.layer)
	res.layer["trace.untraced_wall_s"] = median(plainWall)
	res.layer["trace.overhead_s"] = res.layer["trace.wall_s"] - median(plainWall)
	return nil
}

// storeAndEncode replays the schedule's reads straight against the store
// and its responses through the JSON encoder, recording per-call medians.
func storeAndEncode(store *explorer.Store, reqs []*request, m *medianOf) error {
	var newest, cursor, details, encPage, encDetail []float64
	for _, r := range reqs {
		switch r.kind {
		case kindPager:
			t := time.Now()
			var page []jito.BundleRecord
			if r.before == 0 {
				page = store.Recent(pageLimit)
				newest = append(newest, float64(time.Since(t))/1e3)
			} else {
				var err error
				if page, err = store.RecentBefore(r.before, pageLimit); err != nil {
					return err
				}
				cursor = append(cursor, float64(time.Since(t))/1e3)
			}
			encPage = append(encPage, encodeUs(explorer.RecentResponse{Bundles: page}))
		case kindDetail:
			t := time.Now()
			d := store.TxDetails(r.ids)
			details = append(details, float64(time.Since(t))/1e3)
			encDetail = append(encDetail, encodeUs(explorer.DetailResponse{Transactions: d}))
		}
	}
	m.add("explorer.store_read_us.recent", median(newest))
	m.add("explorer.store_read_us.before", median(cursor))
	m.add("explorer.store_read_us.details", median(details))
	m.add("explorer.encode_us.recent", median(encPage))
	m.add("explorer.encode_us.details", median(encDetail))
	return nil
}

func newRequest(r *request) *http.Request {
	req := httptest.NewRequest(r.method, r.path, bytes.NewReader(r.body)).WithContext(context.Background())
	req.RemoteAddr = "127.0.0.1:1"
	return req
}

// encodeUs times the explorer's response encoding (json.Encoder, as
// writeJSON uses) in microseconds.
func encodeUs(v any) float64 {
	var b bytes.Buffer
	t := time.Now()
	_ = json.NewEncoder(&b).Encode(v)
	return float64(time.Since(t)) / 1e3
}
