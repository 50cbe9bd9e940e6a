package report

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"jitomev/internal/collector"
	"jitomev/internal/core"
	"jitomev/internal/jito"
	"jitomev/internal/solana"
)

var clock = solana.Clock{Genesis: time.Date(2025, 2, 9, 0, 0, 0, 0, time.UTC)}

var (
	attacker = solana.NewKeypairFromSeed("r/attacker").Pubkey()
	victim   = solana.NewKeypairFromSeed("r/victim").Pubkey()
	memeMint = solana.NewKeypairFromSeed("r/meme").Pubkey()
)

// sandwichBundle fabricates a detectable length-3 sandwich at slot.
func sandwichBundle(i int, slot solana.Slot, tip uint64) (jito.BundleRecord, []jito.TxDetail) {
	mk := func(j int) solana.Signature {
		var s solana.Signature
		s[0], s[1], s[2] = byte(i), byte(i>>8), byte(j)
		return s
	}
	sol := solanaSOLMint()
	details := []jito.TxDetail{
		{Sig: mk(0), Signer: attacker, Slot: slot, TokenDeltas: []jito.TokenDelta{
			{Owner: attacker, Mint: sol, Delta: -10_000_000_000},
			{Owner: attacker, Mint: memeMint, Delta: 10_000},
		}},
		{Sig: mk(1), Signer: victim, Slot: slot, TokenDeltas: []jito.TokenDelta{
			{Owner: victim, Mint: sol, Delta: -1_000_000_000_000},
			{Owner: victim, Mint: memeMint, Delta: 900_000},
		}},
		{Sig: mk(2), Signer: attacker, Slot: slot, TokenDeltas: []jito.TokenDelta{
			{Owner: attacker, Mint: memeMint, Delta: -10_000},
			{Owner: attacker, Mint: solanaSOLMint(), Delta: 11_000_000_000},
		}},
	}
	rec := jito.BundleRecord{Slot: slot, TipLamps: tip,
		TxIDs: []solana.Signature{mk(0), mk(1), mk(2)}}
	rec.ID[0], rec.ID[1] = byte(i), byte(i>>8)
	return rec, details
}

func solanaSOLMint() solana.Pubkey {
	return solana.NewKeypairFromSeed("mint/wSOL").Pubkey()
}

// benignBundle fabricates a length-3 arb (same signer throughout).
func benignBundle(i int, slot solana.Slot) (jito.BundleRecord, []jito.TxDetail) {
	rec, details := sandwichBundle(i, slot, 1_000)
	for j := range details {
		details[j].Signer = attacker
		for k := range details[j].TokenDeltas {
			details[j].TokenDeltas[k].Owner = attacker
		}
	}
	return rec, details
}

func buildDataset(t *testing.T) *collector.Dataset {
	t.Helper()
	d := collector.NewDataset(clock, 1_000)

	// Length-1 bundles across two days: defensive and priority.
	for i := 0; i < 80; i++ {
		var sig solana.Signature
		sig[0], sig[1] = byte(i), 0xAA
		tip := uint64(2_000)
		if i%10 == 0 {
			tip = 500_000
		}
		slot := solana.Slot(i)
		if i >= 40 {
			slot += solana.SlotsPerDay
		}
		rec := jito.BundleRecord{Slot: slot, TipLamps: tip, TxIDs: []solana.Signature{sig}}
		rec.ID[0], rec.ID[1] = byte(i), 0xBB
		d.Ingest(rec)
	}
	// Sandwiches: 3 on day 0, 1 on day 1.
	for i := 0; i < 4; i++ {
		slot := solana.Slot(100 + i)
		if i == 3 {
			slot += solana.SlotsPerDay
		}
		rec, details := sandwichBundle(1000+i, slot, 2_000_000)
		d.Ingest(rec)
		for _, det := range details {
			d.Details.Put(det)
		}
	}
	// Benign length-3.
	for i := 0; i < 6; i++ {
		rec, details := benignBundle(2000+i, solana.Slot(200+i))
		d.Ingest(rec)
		for _, det := range details {
			d.Details.Put(det)
		}
	}
	return d
}

func TestAnalyzeCounts(t *testing.T) {
	d := buildDataset(t)
	r := Analyze(d, core.NewDefaultDetector(), 0)

	if r.TotalBundles != 90 {
		t.Errorf("TotalBundles = %d", r.TotalBundles)
	}
	if r.Sandwiches != 4 {
		t.Errorf("Sandwiches = %d", r.Sandwiches)
	}
	if r.Len3Bundles != 10 || r.Len3WithDetails != 10 {
		t.Errorf("len3 = %d/%d", r.Len3Bundles, r.Len3WithDetails)
	}
	if r.SandwichesNoSOL != 0 {
		t.Errorf("NoSOL = %d", r.SandwichesNoSOL)
	}
	// Each fabricated sandwich: victim lost 100 SOL, attacker gained 1.
	if r.VictimLossSOL < 399 || r.VictimLossSOL > 401 {
		t.Errorf("VictimLossSOL = %f", r.VictimLossSOL)
	}
	if r.AttackerGainSOL < 3.99 || r.AttackerGainSOL > 4.01 {
		t.Errorf("AttackerGainSOL = %f", r.AttackerGainSOL)
	}
	if r.VictimLossUSD() != r.VictimLossSOL*242 {
		t.Error("USD conversion wrong")
	}
	// Per-day series.
	if r.AttacksByDay.Get(0) != 3 || r.AttacksByDay.Get(1) != 1 {
		t.Errorf("attacks/day = %v/%v", r.AttacksByDay.Get(0), r.AttacksByDay.Get(1))
	}
	// Defensive: 72 of 80 len-1 bundles carry 2,000-lamport tips.
	if r.Defense.Defensive != 72 || r.Defense.Priority != 8 {
		t.Errorf("defense %+v", r.Defense)
	}
	if r.Defense.DefensiveShare() != 0.9 {
		t.Errorf("share = %f", r.Defense.DefensiveShare())
	}
	// Benign arbs rejected on C1.
	if r.Rejections[core.CritSigners] != 6 {
		t.Errorf("rejections = %v", r.Rejections)
	}
	if r.SandwichShare < 0.044 || r.SandwichShare > 0.045 {
		t.Errorf("share = %f", r.SandwichShare)
	}
	// Median loss: all four identical at 100 SOL = $24,200.
	if got := r.LossUSD.Quantile(0.5); got != 100*242 {
		t.Errorf("median loss = %f", got)
	}
}

func TestAnalyzeSkipsMissingDetails(t *testing.T) {
	d := collector.NewDataset(clock, 100)
	rec, _ := sandwichBundle(1, 10, 1_000) // details never stored
	d.Ingest(rec)
	r := Analyze(d, core.NewDefaultDetector(), 0)
	if r.Len3WithDetails != 0 || r.Sandwiches != 0 {
		t.Error("bundle without details was analyzed")
	}
}

func TestRenderersContainKeyFacts(t *testing.T) {
	d := buildDataset(t)
	r := Analyze(d, core.NewDefaultDetector(), 0)
	var buf bytes.Buffer

	RenderHeadline(&buf, r, 2000)
	if !strings.Contains(buf.String(), "521,903") {
		t.Error("headline missing paper reference values")
	}

	buf.Reset()
	RenderFigure1(&buf, r, func(day int) bool { return day == 1 })
	if !strings.Contains(buf.String(), "outage") {
		t.Error("figure 1 missing outage marks")
	}

	buf.Reset()
	RenderFigure3(&buf, r, 10)
	if !strings.Contains(buf.String(), "median=$24200.00") {
		t.Errorf("figure 3 median missing:\n%s", buf.String())
	}

	buf.Reset()
	RenderFigure4(&buf, r)
	if !strings.Contains(buf.String(), "defensive") {
		t.Error("figure 4 missing defensive share line")
	}

	buf.Reset()
	WriteCSV(&buf, r, nil)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 { // header + 2 days
		t.Errorf("CSV lines = %d", len(lines))
	}
	if !strings.HasPrefix(lines[0], "day,len1") {
		t.Error("CSV header wrong")
	}
}

func TestRenderTable1Executes(t *testing.T) {
	var buf bytes.Buffer
	RenderTable1(&buf)
	out := buf.String()
	for _, want := range []string{"ATTACKER", "NORMAL", "BUY", "SELL", "sandwich=true"} {
		if !strings.Contains(out, want) {
			t.Errorf("table 1 output missing %q:\n%s", want, out)
		}
	}
}

type fakeTruth map[jito.BundleID]bool

func (f fakeTruth) IsSandwich(id jito.BundleID) bool { return f[id] }

func TestAblate(t *testing.T) {
	d := collector.NewDataset(clock, 100)
	truth := fakeTruth{}

	rec, details := sandwichBundle(1, 10, 2_000_000)
	d.Ingest(rec)
	for _, det := range details {
		d.Details.Put(det)
	}
	truth[rec.ID] = true

	// A tip-only-final app bundle: naive flags it, full does not.
	rec2, details2 := sandwichBundle(2, 11, 5_000)
	details2[2] = jito.TxDetail{Sig: details2[2].Sig, Signer: attacker, TipOnly: true}
	d.Ingest(rec2)
	for _, det := range details2 {
		d.Details.Put(det)
	}

	ab := Ablate(d, core.NewDefaultDetector(), truth)
	if ab.Full.TruePositive != 1 || ab.Full.FalsePositive != 0 {
		t.Errorf("full confusion %+v", ab.Full)
	}
	if ab.Naive.FalsePositive != 1 {
		t.Errorf("naive confusion %+v", ab.Naive)
	}

	var buf bytes.Buffer
	RenderAblation(&buf, ab)
	if !strings.Contains(buf.String(), "naive A-B-A baseline") {
		t.Error("ablation render incomplete")
	}
}
