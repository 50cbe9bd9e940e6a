package collector

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"sync"
	"testing"

	"jitomev/internal/explorer"
	"jitomev/internal/workload"
)

// The persistence benchmarks run over the shared 20-day Scale=10,000
// bench study — the same dataset scale the analysis benchmarks use —
// so save/load numbers in EXPERIMENTS.md are comparable across PRs.
var (
	persistBenchOnce sync.Once
	persistBenchData *Dataset
)

func benchDataset(b *testing.B) *Dataset {
	b.Helper()
	persistBenchOnce.Do(func() {
		st := workload.New(workload.Params{Seed: 1, Days: 20, Scale: 10_000})
		store := explorer.NewStore()
		c := New(Config{PageLimit: 500}, st.P.Clock(), &Direct{Store: store})
		sink := &PollingSink{Store: store, Collector: c}
		st.Run(sink)
		if _, err := c.FetchDetails(); err != nil {
			panic(err)
		}
		persistBenchData = c.Data
	})
	return persistBenchData
}

// BenchmarkSnapshotSave measures checkpoint encoding, serial (w1) and at
// NumCPU workers (wN). SetBytes reports throughput in snapshot bytes/sec.
func BenchmarkSnapshotSave(b *testing.B) {
	d := benchDataset(b)
	run := func(name string, save func(w io.Writer) error) {
		b.Run(name, func(b *testing.B) {
			var probe bytes.Buffer
			if err := save(&probe); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(probe.Len()))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := save(io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	run("w1", func(w io.Writer) error { return d.SaveWorkers(w, 1) })
	if n := runtime.NumCPU(); n > 1 {
		run(fmt.Sprintf("w%d", n), func(w io.Writer) error {
			return d.SaveWorkers(w, n)
		})
	}
}

// BenchmarkSnapshotLoad measures checkpoint decoding for the same
// matrix. SetBytes reports throughput in snapshot bytes/sec.
func BenchmarkSnapshotLoad(b *testing.B) {
	d := benchDataset(b)
	var snap bytes.Buffer
	if err := d.Save(&snap); err != nil {
		b.Fatal(err)
	}
	run := func(name string, data []byte, workers int) {
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := LoadDatasetWorkers(bytes.NewReader(data), 200, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	run("w1", snap.Bytes(), 1)
	if n := runtime.NumCPU(); n > 1 {
		run(fmt.Sprintf("w%d", n), snap.Bytes(), n)
	}
}
