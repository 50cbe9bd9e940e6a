package report

import (
	"reflect"
	"testing"

	"jitomev/internal/collector"
	"jitomev/internal/core"
	"jitomev/internal/snapshot"
	"jitomev/internal/solana"
	"jitomev/internal/stats"
)

// TestFinishWithNoFolds: an accumulator that never saw a record still
// produces a fully-formed, render-safe Results — non-nil series, ECDFs
// and rejection map, zero counts, no division by zero.
func TestFinishWithNoFolds(t *testing.T) {
	det := core.NewDefaultDetector()
	r := NewAccumulator(det, 0, &snapshot.Scope{}).Finish(nil)

	if r.Sandwiches != 0 || r.TotalBundles != 0 || r.Len3WithDetails != 0 {
		t.Errorf("empty accumulator produced counts: %d sandwiches, %d bundles", r.Sandwiches, r.TotalBundles)
	}
	if r.Rejections == nil {
		t.Error("Rejections map is nil")
	}
	if len(r.Rejections) != 0 {
		t.Errorf("empty fold recorded rejections: %v", r.Rejections)
	}
	if r.Verdicts == nil {
		t.Error("Verdicts slice is nil")
	}
	if r.LossUSD == nil || r.TipsSandwich == nil {
		t.Error("ECDFs are nil")
	}
	if r.AttacksByDay == nil || r.DefenseByDay == nil {
		t.Error("time series are nil")
	}
	if r.SandwichShare != 0 {
		t.Errorf("SandwichShare = %v over zero bundles", r.SandwichShare)
	}
	if r.SOLPriceUSD != stats.SOLPriceUSD {
		t.Errorf("SOLPriceUSD = %v, want the paper default", r.SOLPriceUSD)
	}
}

// TestLiveAccumulatorMatchesBatchConstruction: Finish reads the scope,
// not NewAccumulator; an accumulator built over an empty scope that is
// filled before Finish must be bit-identical to one built over the
// filled scope — the property the streaming engine's live scope rests
// on.
func TestLiveAccumulatorMatchesBatchConstruction(t *testing.T) {
	det := core.NewDefaultDetector()
	clock := solana.Clock{}
	days := map[int]*collector.DayAgg{
		0: {Bundles: 10, Txs: 17, ByLength: [6]uint64{3: 2}, DefensiveCount: 4, PriorityCount: 2, DefensiveSpend: 40_000},
		2: {Bundles: 5, Txs: 9, DefensiveCount: 1, PriorityCount: 1, DefensiveSpend: 9_000},
	}
	tips1, tips3 := stats.NewTipHistogram(), stats.NewTipHistogram()
	tips1.Add(5_000)
	tips3.Add(1_200)
	sc := snapshot.Scope{
		Clock: clock, Days: days, TipsLen1: tips1, TipsLen3: tips3,
		Collected: 15, Duplicates: 3,
	}

	batch := NewAccumulator(det, 0, &sc).Finish(nil)

	liveScope := snapshot.NewScope(clock)
	live := NewAccumulator(det, 0, &liveScope)
	liveScope = sc
	got := live.Finish(nil)

	if !reflect.DeepEqual(batch, got) {
		t.Error("live construction diverges from batch construction")
		rv, gv := reflect.ValueOf(*batch), reflect.ValueOf(*got)
		for i := 0; i < rv.NumField(); i++ {
			if !reflect.DeepEqual(rv.Field(i).Interface(), gv.Field(i).Interface()) {
				t.Errorf("  field %s differs", rv.Type().Field(i).Name)
			}
		}
	}
}
