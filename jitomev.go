// Package jitomev reproduces the measurement pipeline of "Quantifying the
// Threat of Sandwiching MEV on Jito" (IMC '25) end to end, against a
// calibrated synthetic Solana/Jito substrate:
//
//	workload  →  Jito block engine  →  explorer (HTTP API)  →  collector
//	                                                  ↓
//	                      sandwich detector + defensive-bundling classifier
//	                                                  ↓
//	                      Figures 1–4, Table 1 and headline statistics
//
// The one-call entry point is Run:
//
//	out, err := jitomev.Run(jitomev.Config{Workload: workload.Params{Days: 30, Scale: 5000}})
//	report.RenderHeadline(os.Stdout, out.Results, out.Study.P.Scale)
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for measured-
// versus-paper numbers.
package jitomev

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"jitomev/internal/collector"
	"jitomev/internal/core"
	"jitomev/internal/explorer"
	"jitomev/internal/faults"
	"jitomev/internal/jito"
	"jitomev/internal/obs"
	"jitomev/internal/parallel"
	"jitomev/internal/quality"
	"jitomev/internal/report"
	"jitomev/internal/stream"
	"jitomev/internal/validator"
	"jitomev/internal/workload"
)

// Config configures one full study.
type Config struct {
	// Workload shapes the synthetic traffic; zero values take the
	// calibrated defaults (120 days at 1/2000 of paper volume).
	Workload workload.Params

	// Collector overrides the scraper configuration. A zero PageLimit is
	// auto-scaled: the paper's 50,000-bundle page divided by the workload
	// scale, so page-vs-traffic coverage dynamics match the paper's.
	Collector collector.Config

	// UseHTTP routes collection through a real loopback HTTP server
	// speaking the explorer's JSON API, exactly like the paper's scraper.
	// The default (false) reads the store in-process: byte-identical
	// datasets, much faster at large scales.
	UseHTTP bool

	// SOLPriceUSD for dollar conversions; 0 selects the paper's $242.
	SOLPriceUSD float64

	// RunAblation also scores the full detector against the naive A-B-A
	// baseline on simulator ground truth.
	RunAblation bool

	// ExtendedDetection widens detail collection to length-4/5 bundles and
	// runs the extended detector over them, recovering disguised
	// sandwiches the paper's length-3 methodology misses by construction.
	ExtendedDetection bool

	// BackfillPages enables the collector's spike-recovery improvement:
	// on a broken overlap pair it pages backwards up to this many pages
	// through the explorer's cursor. 0 reproduces the paper's collector
	// exactly (spike-overflowed bundles are lost).
	BackfillPages int

	// RunBlockScan also runs the pre-bundle, Ethereum-style block-scan
	// detector over every produced block (transaction order without
	// bundle boundaries), for comparison against the bundle-aware count.
	RunBlockScan bool

	// Workers bounds pipeline concurrency: the analysis and ablation
	// passes shard across this many workers, and generation→ingest runs
	// pipelined (explorer ingest and collector polling overlap block
	// production). 0 selects GOMAXPROCS; 1 runs the legacy single-core
	// reference path (serial analysis, synchronous ingest). Every
	// setting produces bit-identical Results.
	Workers int

	// FaultRate enables deterministic chaos on the collection path: each
	// transport call faults with this probability, drawn from the full
	// taxonomy (transport errors, 429 + Retry-After, 5xx, timeouts,
	// truncated/corrupt payloads, partial details, duplicated and
	// reordered page entries). The schedule is a pure function of
	// (ChaosSeed, call index), so a chaos run is exactly reproducible
	// and — like everything else — bit-identical at any Workers count.
	// 0 disables injection. With UseHTTP the explorer server is
	// additionally wrapped in its wire-level chaos mode, so the faults
	// travel through real headers and a real JSON decoder.
	FaultRate float64
	// ChaosSeed selects the chaos universe (independent of the workload
	// seed, so the same traffic can be collected under different fault
	// schedules).
	ChaosSeed int64

	// Obs receives every metric the pipeline records — collector tallies,
	// fault injections, detection rejections, shard timings, pipeline
	// spans. nil makes Run create a fresh registry; either way the
	// registry used is returned on Outcome.Obs. Count-valued metrics are
	// bit-identical at any Workers setting (duration- and scheduling-
	// dependent families are marked volatile and excluded from
	// Registry.DeterministicSnapshot).
	Obs *obs.Registry

	// StreamDetect taps the accepted-bundle feed into the incremental
	// streaming detector (internal/stream) alongside batch collection.
	// The tap sees every accepted bundle with full details — coverage
	// 1.0 by construction — so on a lossy collection run
	// Outcome.StreamResults can exceed Outcome.Results.
	StreamDetect bool

	// StreamCrossSlots sets the streaming detector's cross-block window
	// (slots of leader contiguity a front/back pair may span). 0 selects
	// 4, the common Jito leader rotation span; < 0 disables the
	// cross-block stage. Only meaningful with StreamDetect.
	StreamCrossSlots int

	// Quality receives the data-quality feed: the collector's coverage
	// ledger (every poll, backfill and detail fetch), the workload's
	// per-day landed counts, and the analysis pass's paper-anchored
	// invariants. nil makes Run create a fresh sentinel on the run's
	// registry; either way the sentinel used is returned on
	// Outcome.Quality, and its end-of-run verdict on
	// Outcome.QualityReport. Like every count-valued metric, sentinel
	// state is bit-identical at any Workers setting.
	Quality *quality.Sentinel
}

// Outcome bundles everything a study produces.
type Outcome struct {
	Results   *report.Results
	Ablation  report.AblationResult
	Study     *workload.Study
	Collector *collector.Collector
	Store     *explorer.Store

	// CoverageRate is collected bundles over bundles actually accepted
	// on chain — the completeness the paper argues for via page overlap.
	CoverageRate float64

	// BlockScanFlags counts sandwich-shaped triples the Ethereum-style
	// block scanner flags (set by Config.RunBlockScan); compare with
	// Results.Sandwiches to see what bundle visibility buys.
	BlockScanFlags int

	// PendingDetails counts transaction ids whose details were never
	// recovered — the visible shortfall of a degraded collection (0 on
	// a fault-free run).
	PendingDetails int
	// Chaos is the fault injector when Config.FaultRate > 0 (nil
	// otherwise); Chaos.Stats() breaks down what was injected, while
	// Collector.Faults breaks down what the consumers saw.
	Chaos *faults.Injector

	// Obs is the registry every pipeline stage recorded onto — Config.Obs
	// when set, a fresh registry otherwise. Snapshot it for assertions,
	// WriteSummary it for a run report, or mount it on /metrics.
	Obs *obs.Registry

	// Quality is the data-quality sentinel the run fed — Config.Quality
	// when set, a fresh sentinel otherwise. Serve its OpsEndpoints, or
	// WriteReport it beside Obs.WriteSummary.
	Quality *quality.Sentinel
	// QualityReport is the end-of-run verdict (Quality.Evaluate at
	// pipeline completion).
	QualityReport quality.Report

	// StreamResults is the streaming detector's completed analysis when
	// Config.StreamDetect is set (nil otherwise). Over the live tap the
	// stream sees every accepted bundle, so these Results cover the full
	// chain feed rather than the collected subset.
	StreamResults *report.Results
	// StreamSummary carries the stream's counters and latency
	// percentiles.
	StreamSummary stream.Summary
	// StreamCross holds cross-block sandwich verdicts — front/back legs
	// in different bundles within the leader-contiguity window — which
	// the batch path cannot see.
	StreamCross []stream.CrossVerdict
}

// truthAdapter exposes workload ground truth through report.Truther.
type truthAdapter struct{ gt *workload.GroundTruth }

func (t truthAdapter) IsSandwich(id jito.BundleID) bool {
	return t.gt.Lookup(id).Label == workload.LabelSandwich
}

// Run executes the full pipeline: generate, collect, fetch details,
// detect, analyze.
func Run(cfg Config) (*Outcome, error) {
	reg := cfg.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	st := workload.New(cfg.Workload)
	p := st.P

	ccfg := cfg.Collector
	if ccfg.PageLimit == 0 {
		ccfg.PageLimit = explorer.MaxPageLimit / p.Scale
		if ccfg.PageLimit < 20 {
			ccfg.PageLimit = 20
		}
	}

	ccfg.BackfillPages = cfg.BackfillPages

	store := explorer.NewStore()
	if cfg.ExtendedDetection {
		store.RetainDetailsFor(3, 4, 5)
		ccfg.DetailLengths = []int{4, 5}
	}
	var chaos *faults.Injector
	if cfg.FaultRate > 0 {
		chaos = faults.NewInjectorObs(cfg.ChaosSeed, cfg.FaultRate, reg)
	}

	var transport collector.Transport = &collector.Direct{Store: store}
	var shutdown func()
	if cfg.UseHTTP {
		var handler http.Handler = explorer.NewServerObs(store, 0, reg)
		if chaos != nil {
			// The server's chaos mode injects wire-level faults (429 +
			// Retry-After, 5xx, slow/truncated/corrupt responses) on the
			// same deterministic schedule, in front of a real client.
			handler = faults.ChaosHandler(handler, chaos, faults.ChaosConfig{})
		}
		if t := reg.TracerAttached(); t != nil {
			// With a tracer on the registry, the loopback server stitches
			// into the collector's traces: the middleware sits outside the
			// chaos wrapper, so injected faults are attributed to the
			// client trace that suffered them.
			handler = obs.TraceMiddleware(t, handler)
		}
		srv, addr, err := serveLoopback(handler)
		if err != nil {
			return nil, err
		}
		client := collector.NewHTTP("http://" + addr).WithObs(reg)
		transport = client
		shutdown = func() {
			client.Close()
			_ = srv.Shutdown(context.Background())
		}
		defer shutdown()
	} else if chaos != nil {
		// In-process chaos: wrap the transport itself, adding the
		// content-level faults HTTP middleware cannot express (partial
		// details, duplicated and reordered page entries).
		transport = faults.WrapTransport(transport, chaos, faults.TransportOptions{})
	}

	coll := collector.NewObs(ccfg, p.Clock(), transport, reg)
	q := cfg.Quality
	if q == nil {
		q = quality.New(quality.Config{}, reg)
	}
	coll.AttachQuality(q)
	// Ground truth for per-day coverage: the workload reports each day's
	// landed bundles as it completes. The feed only touches the ledger's
	// Generated column (a commutative add), so pipelined generation
	// cannot perturb the drift detectors.
	st.DayObserver = func(ds workload.DayStats) { q.ObserveGenerated(ds.Day, ds.BundlesLanded) }
	sink := &collector.PollingSink{Store: store, Collector: coll, InOutage: p.InOutage}
	var runSink workload.Sink = sink

	var eng *stream.Engine
	if cfg.StreamDetect {
		crossSlots := cfg.StreamCrossSlots
		if crossSlots == 0 {
			crossSlots = 4
		}
		if crossSlots < 0 {
			crossSlots = 0
		}
		eng = stream.New(stream.Config{
			Workers:     cfg.Workers,
			Extended:    cfg.ExtendedDetection,
			Clock:       p.Clock(),
			SOLPriceUSD: cfg.SOLPriceUSD,
			Cross:       stream.CrossConfig{WindowSlots: crossSlots},
			Reg:         reg,
		})
		runSink = workload.SinkFunc(func(day int, acc *jito.Accepted) {
			sink.Accept(day, acc)
			eng.Offer(stream.Event{Rec: acc.Record, Details: acc.Details})
		})
	}

	var blockScanFlags int
	if cfg.RunBlockScan {
		scanDet := core.NewDefaultDetector()
		st.BlockObserver = func(blk *validator.Block) {
			blockScanFlags += len(scanDet.DetectBlockScan(blk.TxDetails(), core.BlockScanWindow))
		}
	}
	span := reg.StartSpan("generate")
	if parallel.Workers(cfg.Workers) > 1 {
		// Ingest (store writes + polling) never touches the bank, so it
		// overlaps block production; order and output stay identical.
		st.RunPipelinedObs(runSink, 0, reg)
	} else {
		st.Run(runSink)
	}
	span.AddItems(store.Len())
	span.End()

	var streamRes *report.Results
	var streamSummary stream.Summary
	var streamCross []stream.CrossVerdict
	if eng != nil {
		span = reg.StartSpan("stream_finish")
		streamRes = eng.Finish()
		streamSummary = eng.Summary()
		streamCross = eng.CrossVerdicts()
		span.End()
	}

	span = reg.StartSpan("fetch_details")
	fetched, err := coll.FetchDetails()
	span.AddItems(fetched)
	if err != nil {
		// A detail shortfall is graceful degradation, not failure: the
		// skipped ids stay pending (Outcome.PendingDetails) and every
		// fetched detail is intact — exactly how the paper's scraper
		// carried on through bad nights. Anything else is fatal.
		span.AddErrors(1)
		if !errors.Is(err, collector.ErrDetailShortfall) {
			span.End()
			return nil, fmt.Errorf("jitomev: fetching details: %w", err)
		}
	}
	span.End()

	det := core.NewDefaultDetector()
	res := report.AnalyzeQuality(coll.Data, det, cfg.SOLPriceUSD, cfg.Workers, reg, q)
	res.OverlapRate = coll.OverlapRate()
	res.PollCount = coll.Polls()
	res.DetailRequests = coll.DetailRequests()

	out := &Outcome{
		Results:        res,
		Study:          st,
		Collector:      coll,
		Store:          store,
		BlockScanFlags: blockScanFlags,
		PendingDetails: coll.PendingDetails(),
		Chaos:          chaos,
		Obs:            reg,
		Quality:        q,
		StreamResults:  streamRes,
		StreamSummary:  streamSummary,
		StreamCross:    streamCross,
	}
	out.QualityReport = q.Evaluate()
	if store.Len() > 0 {
		out.CoverageRate = float64(coll.Data.Collected) / float64(store.Len())
	}
	if cfg.RunAblation {
		out.Ablation = report.AblateN(coll.Data, det, truthAdapter{st.GT}, cfg.Workers)
	}
	return out, nil
}

// serveLoopback starts an explorer API server (or its chaos-wrapped
// variant) on an ephemeral loopback port and returns the server and its
// address.
func serveLoopback(handler http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", fmt.Errorf("jitomev: loopback listener: %w", err)
	}
	srv := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}
	go func() { _ = srv.Serve(ln) }()
	return srv, ln.Addr().String(), nil
}
