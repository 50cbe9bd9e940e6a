package report

import (
	"reflect"
	"runtime"
	"sync"
	"testing"

	"jitomev/internal/collector"
	"jitomev/internal/core"
	"jitomev/internal/explorer"
	"jitomev/internal/jito"
	"jitomev/internal/workload"
)

var studyOnce sync.Once
var studyData *collector.Dataset
var studyGT *workload.GroundTruth

// buildStudyDataset runs a seeded 10-day study through the real store +
// collector pipeline (with length-4/5 retention so the extended pass has
// work) and returns the collected dataset plus the ground truth. Built
// once and shared: every consumer treats the dataset as read-only.
func buildStudyDataset(tb testing.TB) (*collector.Dataset, *workload.GroundTruth) {
	tb.Helper()
	studyOnce.Do(func() {
		st := workload.New(workload.Params{Seed: 7, Days: 10, Scale: 20_000})
		store := explorer.NewStore()
		store.RetainDetailsFor(3, 4, 5)
		coll := collector.New(collector.Config{DetailLengths: []int{4, 5}},
			st.P.Clock(), &collector.Direct{Store: store})
		sink := &collector.PollingSink{Store: store, Collector: coll, InOutage: st.P.InOutage}
		st.Run(sink)
		if _, err := coll.FetchDetails(); err != nil {
			panic(err)
		}
		studyData, studyGT = coll.Data, st.GT
	})
	return studyData, studyGT
}

type gtTruth struct{ gt *workload.GroundTruth }

func (t gtTruth) IsSandwich(id jito.BundleID) bool {
	return t.gt.Lookup(id).Label == workload.LabelSandwich
}

// TestAnalyzeDeterministicAcrossWorkers is the tentpole's fidelity
// contract: the sharded analysis pass must reproduce the serial
// reference pass exactly — verdict order, rejection tallies, per-day
// float series, ECDF samples — at every worker count.
func TestAnalyzeDeterministicAcrossWorkers(t *testing.T) {
	data, _ := buildStudyDataset(t)
	det := core.NewDefaultDetector()

	ref := AnalyzeN(data, det, 0, 1)
	if ref.Sandwiches == 0 {
		t.Fatal("study produced no sandwiches; determinism test is vacuous")
	}
	if len(ref.Rejections) == 0 {
		t.Fatal("study produced no rejections; determinism test is vacuous")
	}

	for _, w := range []int{2, 4, runtime.GOMAXPROCS(0), 0, 13} {
		got := AnalyzeN(data, det, 0, w)
		if !reflect.DeepEqual(ref, got) {
			t.Errorf("workers=%d: Results diverge from serial reference", w)
			if !reflect.DeepEqual(ref.Verdicts, got.Verdicts) {
				t.Errorf("workers=%d: verdict order differs (%d vs %d)", w, len(ref.Verdicts), len(got.Verdicts))
			}
			if !reflect.DeepEqual(ref.Rejections, got.Rejections) {
				t.Errorf("workers=%d: rejections %v vs %v", w, ref.Rejections, got.Rejections)
			}
			if ref.VictimLossSOL != got.VictimLossSOL {
				t.Errorf("workers=%d: VictimLossSOL %v vs %v — float accumulation order leaked", w, ref.VictimLossSOL, got.VictimLossSOL)
			}
			if !reflect.DeepEqual(ref.LossSOLByDay, got.LossSOLByDay) {
				t.Errorf("workers=%d: per-day loss series differs", w)
			}
			if !reflect.DeepEqual(ref.LossUSD, got.LossUSD) {
				t.Errorf("workers=%d: loss ECDF differs", w)
			}
		}
	}
}

// TestAnalyzeDeterministicExtended pins the sharded extended pass (the
// data.Long scan) to its serial reference as well.
func TestAnalyzeDeterministicExtended(t *testing.T) {
	data, _ := buildStudyDataset(t)
	det := core.NewDefaultDetector()
	ref := AnalyzeN(data, det, 0, 1)
	if ref.LongBundlesScanned == 0 {
		t.Fatal("no length-4/5 bundles retained; extended determinism test is vacuous")
	}
	got := AnalyzeN(data, det, 0, 4)
	if ref.LongBundlesScanned != got.LongBundlesScanned {
		t.Errorf("LongBundlesScanned %d vs %d", ref.LongBundlesScanned, got.LongBundlesScanned)
	}
	if ref.DisguisedSandwiches != got.DisguisedSandwiches {
		t.Errorf("DisguisedSandwiches %d vs %d", ref.DisguisedSandwiches, got.DisguisedSandwiches)
	}
	if !reflect.DeepEqual(ref.DisguisedVerdicts, got.DisguisedVerdicts) {
		t.Error("disguised verdict order differs between serial and sharded pass")
	}
}

// TestAblateDeterministicAcrossWorkers pins the sharded ablation tally to
// the serial one.
func TestAblateDeterministicAcrossWorkers(t *testing.T) {
	data, gt := buildStudyDataset(t)
	det := core.NewDefaultDetector()
	truth := gtTruth{gt}

	ref := AblateN(data, det, truth, 1)
	if ref.Full.TruePositive == 0 {
		t.Fatal("ablation found no true positives; determinism test is vacuous")
	}
	for _, w := range []int{2, 4, 0} {
		if got := AblateN(data, det, truth, w); got != ref {
			t.Errorf("workers=%d: ablation %+v diverges from serial %+v", w, got, ref)
		}
	}
}

// TestAnalyzeMatchesLegacySemantics re-runs the fixture-based count
// assertions through an explicitly sharded pass, guarding the map→array
// rejection refactor and the preallocated slices against semantic drift.
func TestAnalyzeMatchesLegacySemantics(t *testing.T) {
	d := buildDataset(t)
	r := AnalyzeN(d, core.NewDefaultDetector(), 0, 4)
	if r.Sandwiches != 4 {
		t.Errorf("Sandwiches = %d", r.Sandwiches)
	}
	if r.Rejections[core.CritSigners] != 6 {
		t.Errorf("rejections = %v", r.Rejections)
	}
	if _, ok := r.Rejections[core.CritNone]; ok {
		t.Error("zero-count criterion leaked into the exported map")
	}
	if r.LossUSD.Quantile(0.5) != 100*242 {
		t.Errorf("median loss = %f", r.LossUSD.Quantile(0.5))
	}
}
