package query

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"jitomev/internal/collector"
)

// TestLoadedDatasetSurvivesRecycling: a loaded dataset aliases the TxIDs
// and TokenDelta arrays its snapshot decoded into, so the decoder must
// never hand those to a later scan or load. Load one file, run streaming
// queries and another load over other files, and the first dataset must
// still equal both its source and a fresh load of its file.
func TestLoadedDatasetSurvivesRecycling(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, data *collector.Dataset) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, saveV3(t, data), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	load := func(path string) *collector.Dataset {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		data, err := collector.LoadDatasetWorkers(f, 1, 2)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	same := func(what string, want, got *collector.Dataset) {
		t.Helper()
		if !reflect.DeepEqual(want.Len3, got.Len3) || !reflect.DeepEqual(want.Long, got.Long) ||
			want.Details.Len() != got.Details.Len() {
			t.Fatalf("%s: records or details diverge", what)
		}
		for i := 0; i < want.Details.Len(); i++ {
			w := want.Details.At(i)
			p := got.Details.Index(w.Sig)
			if p < 0 || !reflect.DeepEqual(*w, *got.Details.At(p)) {
				t.Fatalf("%s: detail %x diverges", what, w.Sig[:4])
			}
		}
	}

	src := synthDataset(81, 2*4096+300, 6, 0.9, 200)
	path := write("a.snap", src)
	others := []string{
		write("b.snap", synthDataset(82, 3*4096+17, 9, 0.95, 300)),
		write("c.snap", buildStudyDataset(t)),
	}

	first := load(path)
	same("first load vs source", src, first)
	for _, other := range others {
		for _, workers := range []int{1, 4} {
			if _, _, err := RunFile(other, Options{Workers: workers}); err != nil {
				t.Fatal(err)
			}
		}
		load(other)
	}
	same("first load after later scans", src, first)
	same("first load vs a fresh load", load(path), first)
}
