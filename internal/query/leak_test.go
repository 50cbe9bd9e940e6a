package query

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"jitomev/internal/core"
	"jitomev/internal/report"
	"jitomev/internal/snapshot"
	"jitomev/internal/stream"
)

// TestAnalysisPathsLeaveNoGoroutines: every path over the ordered pool — the
// resident analysis, the streaming query and the scan beneath it, and
// the stream engine — has stopped the pool's goroutines by the time it
// returns, on success and on a scan cut short by corruption.
func TestAnalysisPathsLeaveNoGoroutines(t *testing.T) {
	data := synthDataset(5, 3000, 4, 0.9, 50)
	file := saveV3(t, data)
	// Save's encode pool has stopped, but a worker can still be
	// returning: take the baseline once the count stops falling.
	start := runtime.NumGoroutine()
	for deadline := time.Now().Add(100 * time.Millisecond); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		start = min(start, runtime.NumGoroutine())
	}
	settled := func(what string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > start && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if got := runtime.NumGoroutine(); got != start {
			t.Errorf("%s: %d goroutines left running, started with %d", what, got, start)
		}
	}

	report.AnalyzeN(data, core.NewDefaultDetector(), 0, 4)
	settled("report.AnalyzeN")

	if _, _, err := Run(bytes.NewReader(file), Options{Workers: 4}); err != nil {
		t.Fatal(err)
	}
	settled("query.Run")

	if _, _, err := Run(bytes.NewReader(file[:len(file)/2]), Options{Workers: 4}); err == nil {
		t.Fatal("query.Run accepted a truncated file")
	}
	settled("query.Run over a truncated file")

	err := snapshot.Scan(bytes.NewReader(file), snapshot.ScanOptions{Workers: 4}, nil,
		func(snapshot.Section, snapshot.ShardMeta, *snapshot.Batch, any) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	settled("snapshot.Scan")

	eng := stream.New(stream.Config{Workers: 4, Extended: true, Clock: data.Clock})
	stream.Replay(eng, data)
	eng.Finish()
	settled("stream Engine.Finish")
}
