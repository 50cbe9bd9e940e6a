package main

import (
	"fmt"
	"io"
	"os"
	"reflect"
	"runtime"
	"time"

	"jitomev"
	"jitomev/internal/collector"
	"jitomev/internal/core"
	"jitomev/internal/jito"
	"jitomev/internal/query"
	"jitomev/internal/report"
	"jitomev/internal/snapshot"
	"jitomev/internal/stream"
	"jitomev/internal/workload"
)

// reanalyze: set-up generates and collects a seeded study with extended
// detection and writes it as a v3 snapshot of several shards. Each pass
// answers the headline over that file through the three drivers —
// resident (LoadDataset + AnalyzeN), out-of-core (query.RunFile) and
// replay (stream.Replay + Finish) — and all three Results must equal the
// resident answer computed in set-up.

func reanalyzeParams(cfg config) workload.Params {
	if cfg.tiny {
		return workload.Params{Seed: cfg.seed, Days: 3, Scale: 50_000}
	}
	return workload.Params{Seed: cfg.seed, Days: 60, Scale: 12_000}
}

// monthQuery is the day range of the pruning probe: the study's first
// month.
var monthQuery = query.DayRange{Lo: 0, Hi: 29}

func loadFile(path string) (*collector.Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return collector.LoadDataset(f, 1)
}

func runReanalyze(cfg config, res *result) error {
	p := reanalyzeParams(cfg)
	path := workPath(cfg, "study.snap")

	var setups []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		out, err := jitomev.Run(jitomev.Config{Workload: p, ExtendedDetection: true})
		if err != nil {
			return err
		}
		if _, err := snapshot.WriteFileAtomic(path, out.Collector.Data.Save); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	res.e2e["setup_s"] = median(setups)

	data, err := loadFile(path)
	if err != nil {
		return err
	}
	records := len(data.Len3) + len(data.Long)
	want := report.AnalyzeN(data, core.NewDefaultDetector(), 0, 0)
	if cfg.sabotage {
		want.TotalBundles++
	}
	data = nil // released, so it does not count toward the drivers' peak heap
	d := drivers{path: path, scale: p.Scale}
	check := func(r *report.Results) { res.check(reflect.DeepEqual(r, want)) }

	budget := time.Duration(cfg.seconds * float64(time.Second))
	start := time.Now()
	var rate, cpuPer, allocPer, heap, resident, scan, replay, scanHeap []float64
	m := newMedianOf()
	for n := 0; !deadline(start, budget, n, 3); n++ {
		var wall, cpu time.Duration
		var alloc uint64
		var r [3]*report.Results
		var cost [3]passCost
		for i, drive := range []func() (*report.Results, error){d.resident, d.scan, d.replay} {
			var err error
			cost[i], err = measured(func() (err error) {
				r[i], err = drive()
				return err
			})
			if err != nil {
				return err
			}
			check(r[i])
			wall += cost[i].wall
			cpu += cost[i].cpu
			alloc += cost[i].alloc
		}
		n3 := float64(3 * records)
		rate = append(rate, n3/wall.Seconds())
		cpuPer = append(cpuPer, float64(cpu.Microseconds())/n3)
		allocPer = append(allocPer, float64(alloc)/1024/n3)
		heap = append(heap, cost[0].heapMiB)
		resident = append(resident, float64(records)/cost[0].wall.Seconds())
		scan = append(scan, float64(records)/cost[1].wall.Seconds())
		replay = append(replay, float64(records)/cost[2].wall.Seconds())
		scanHeap = append(scanHeap, cost[1].heapMiB)

		if cfg.trace {
			runtime.GC()
			traced, err := d.traced(m, check)
			if err != nil {
				return err
			}
			m.add("trace.untraced_wall_s", wall.Seconds())
			m.add("trace.overhead_s", (traced - wall).Seconds())
		}
	}
	res.e2e["alloc_kib_per_bundle"] = median(allocPer)
	res.e2e["peak_heap_mib"] = median(heap)
	if cfg.trace {
		m.into(res.layer)
		res.layer["bundles_per_s"] = median(rate)
		res.layer["cpu_us_per_bundle"] = median(cpuPer)
		res.layer["resident_bundles_per_s"] = median(resident)
		res.layer["scan_bundles_per_s"] = median(scan)
		res.layer["replay_bundles_per_s"] = median(replay)
		res.layer["scan_peak_heap_mib"] = median(scanHeap)
	}
	return nil
}

// drivers are the three ways of answering the headline over the file;
// each renders it, as a user of that driver would.
type drivers struct {
	path  string
	scale int
}

func (d drivers) render(r *report.Results) { report.RenderHeadline(io.Discard, r, d.scale) }

func (d drivers) resident() (*report.Results, error) {
	data, err := loadFile(d.path)
	if err != nil {
		return nil, err
	}
	r := report.AnalyzeN(data, core.NewDefaultDetector(), 0, 0)
	d.render(r)
	return r, nil
}

func (d drivers) scan() (*report.Results, error) {
	r, _, err := query.RunFile(d.path, query.Options{})
	if err != nil {
		return nil, err
	}
	d.render(r)
	return r, nil
}

func (d drivers) replay() (*report.Results, error) {
	data, err := loadFile(d.path)
	if err != nil {
		return nil, err
	}
	eng := stream.New(stream.Config{Extended: true, Clock: data.Clock})
	stream.Replay(eng, data)
	r := eng.Finish()
	d.render(r)
	return r, nil
}

// traced runs the three drivers again with a span around every call into
// a layer, then the single-layer probes: a decode-only snapshot.Scan, a
// one-month query for pruning, and the Accumulator driven directly.
func (d drivers) traced(m *medianOf, check func(*report.Results)) (time.Duration, error) {
	rec := newRecorder()
	root := rec.begin("unattributed", laneMain, nil)
	var err error
	var data *collector.Dataset
	var r *report.Results
	rec.timed("snapshot.load", root, func() { data, err = loadFile(d.path) })
	if err != nil {
		return 0, err
	}
	rec.timed("report.analyze", root, func() { r = report.AnalyzeN(data, core.NewDefaultDetector(), 0, 0) })
	rec.timed("report.render", root, func() { d.render(r) })
	check(r)

	rec.timed("query.run", root, func() { r, _, err = query.RunFile(d.path, query.Options{}) })
	if err != nil {
		return 0, err
	}
	rec.timed("report.render", root, func() { d.render(r) })
	check(r)

	var replayData *collector.Dataset
	rec.timed("snapshot.load", root, func() { replayData, err = loadFile(d.path) })
	if err != nil {
		return 0, err
	}
	var eng *stream.Engine
	rec.timed("stream.offer", root, func() {
		eng = stream.New(stream.Config{Extended: true, Clock: replayData.Clock})
		stream.Replay(eng, replayData)
	})
	rec.timed("stream.finish", root, func() { r = eng.Finish() })
	rec.timed("report.render", root, func() { d.render(r) })
	check(r)
	rec.end(root)

	an := rec.analyse()
	m.addPath(an.blockingPath(root), root.dur())
	m.add("trace.spans", float64(len(an.spans)))
	m.add("snapshot.load_s", an.sum("snapshot.load", false).Seconds()/2)
	m.add("report.analyze_s", an.sum("report.analyze", false).Seconds())
	m.add("report.render_s", an.sum("report.render", false).Seconds())
	queryRun := an.sum("query.run", false)
	m.add("query.run_s", queryRun.Seconds())
	m.add("stream.offer_s", an.sum("stream.offer", false).Seconds())
	m.add("stream.finish_s", an.sum("stream.finish", false).Seconds())
	sum := eng.Summary()
	m.add("stream.events", float64(sum.Events))
	m.add("stream.late_dropped", float64(sum.Late))

	// Decode alone: snapshot.Scan with an empty fold.
	t0 := time.Now()
	f, err := os.Open(d.path)
	if err != nil {
		return 0, err
	}
	err = snapshot.Scan(f, snapshot.ScanOptions{}, func(*snapshot.Prelude) error { return nil },
		func(snapshot.Section, snapshot.ShardMeta, *snapshot.Batch, any) error { return nil })
	f.Close()
	if err != nil {
		return 0, fmt.Errorf("scan: %w", err)
	}
	scan := time.Since(t0)
	m.add("snapshot.scan_s", scan.Seconds())
	m.add("query.detect_s", (queryRun - scan).Seconds())

	_, st, err := query.RunFile(d.path, query.Options{Days: &monthQuery})
	if err != nil {
		return 0, err
	}
	m.add("query.shards_scanned", float64(st.ShardsScanned))
	m.add("query.pruned_ratio", st.PrunedFraction())

	// The fold the three drivers share, called directly and serially.
	a := report.NewAccumulator(core.NewDefaultDetector(), 0, stream.ScopeOf(data))
	var p3 report.Len3Partial
	var pl report.LongPartial
	t0 = time.Now()
	p3 = a.DetectLen3(data.Len3, source(data, data.Len3))
	pl = a.DetectLong(data.Long, source(data, data.Long))
	detect := time.Since(t0)
	t0 = time.Now()
	a.FoldLen3(p3)
	a.FoldLong(pl)
	fold := time.Since(t0)
	t0 = time.Now()
	r = a.Finish(nil)
	m.add("report.detect_s", detect.Seconds())
	m.add("report.fold_s", fold.Seconds())
	m.add("report.finish_s", time.Since(t0).Seconds())
	check(r)
	return root.dur(), nil
}

// source resolves details for recs from a resident dataset.
func source(data *collector.Dataset, recs []jito.BundleRecord) report.DetailSource {
	return func(i int, dst []jito.TxDetail) ([]jito.TxDetail, bool) {
		return data.AppendDetails(dst, &recs[i])
	}
}
