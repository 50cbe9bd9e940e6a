package core

import (
	"testing"
	"time"

	"jitomev/internal/amm"
	"jitomev/internal/jito"
	"jitomev/internal/ledger"
	"jitomev/internal/solana"
	"jitomev/internal/token"
)

var (
	attacker = solana.NewKeypairFromSeed("attacker").Pubkey()
	victim   = solana.NewKeypairFromSeed("victim").Pubkey()
	other    = solana.NewKeypairFromSeed("other").Pubkey()
	memeMint = solana.NewKeypairFromSeed("meme-mint").Pubkey()
	meme2    = solana.NewKeypairFromSeed("meme-mint-2").Pubkey()
	solMint  = token.SOL.Address
)

func sig(i int) solana.Signature {
	return solana.NewKeypairFromSeed("sig").Sign([]byte{byte(i), byte(i >> 8)})
}

// detail builds a TxDetail with a two-mint trade for the signer.
func detail(i int, signer solana.Pubkey, soldMint solana.Pubkey, soldAmt uint64, boughtMint solana.Pubkey, boughtAmt uint64) jito.TxDetail {
	return jito.TxDetail{
		Sig:    sig(i),
		Signer: signer,
		TokenDeltas: []jito.TokenDelta{
			{Owner: signer, Mint: soldMint, Delta: -int64(soldAmt)},
			{Owner: signer, Mint: boughtMint, Delta: int64(boughtAmt)},
		},
	}
}

func record(details []jito.TxDetail, tip uint64) *jito.BundleRecord {
	ids := make([]solana.Signature, len(details))
	for i, d := range details {
		ids[i] = d.Sig
	}
	return &jito.BundleRecord{ID: jito.BundleID{1}, Slot: 1, TxIDs: ids, TipLamps: tip}
}

// canonicalSandwich is the Table 1 scenario: attacker buys, victim buys at
// a worse rate, attacker sells everything for more SOL than it spent.
func canonicalSandwich() ([]jito.TxDetail, *jito.BundleRecord) {
	details := []jito.TxDetail{
		// A: spends 10 SOL for 10,000 MEME (rate 1000 MEME/SOL)
		detail(1, attacker, solMint, 10_000_000_000, memeMint, 10_000),
		// B: spends 1,000 SOL for 900,000 MEME (rate 900 MEME/SOL — worse)
		detail(2, victim, solMint, 1_000_000_000_000, memeMint, 900_000),
		// A: sells the 10,000 MEME back for 11 SOL
		detail(3, attacker, memeMint, 10_000, solMint, 11_000_000_000),
	}
	return details, record(details, 2_000_000)
}

func TestDetectCanonicalSandwich(t *testing.T) {
	dt := NewDefaultDetector()
	details, rec := canonicalSandwich()
	v := dt.Detect(rec, details)
	if !v.Sandwich {
		t.Fatalf("canonical sandwich not detected: failed %v", v.Failed)
	}
	if v.Attacker != attacker || v.Victim != victim {
		t.Error("attacker/victim attribution wrong")
	}
	if !v.HasSOL {
		t.Error("SOL leg not recognized")
	}
	// Victim paid 1000 SOL for 900,000 MEME; at the attacker's rate
	// (1 SOL per 1000 MEME) that should have cost 900 SOL. Loss = 100 SOL.
	wantLoss := 100e9
	if diff := v.VictimLossLamports - wantLoss; diff > 1 || diff < -1 {
		t.Errorf("VictimLoss = %.0f, want %.0f", v.VictimLossLamports, wantLoss)
	}
	// Attacker: spent 10 SOL, got back 11 SOL.
	if v.AttackerGainLamports != 1e9 {
		t.Errorf("AttackerGain = %.0f, want 1e9", v.AttackerGainLamports)
	}
	if v.TipLamports != 2_000_000 {
		t.Errorf("tip = %d", v.TipLamports)
	}
}

func TestDetectSellSideSandwich(t *testing.T) {
	dt := NewDefaultDetector()
	details := []jito.TxDetail{
		// A sells 10,000 MEME for 10 SOL (rate 0.001 SOL/MEME)
		detail(1, attacker, memeMint, 10_000, solMint, 10_000_000_000),
		// B sells 1,000,000 MEME for 900 SOL (fair would be 1000 SOL)
		detail(2, victim, memeMint, 1_000_000, solMint, 900_000_000_000),
		// A buys back 10,500 MEME for 9 SOL: net +1 SOL and +500 MEME
		detail(3, attacker, solMint, 9_000_000_000, memeMint, 10_500),
	}
	v := dt.Detect(record(details, 1_000_000), details)
	if !v.Sandwich {
		t.Fatalf("sell-side sandwich not detected: %v", v.Failed)
	}
	if !v.HasSOL {
		t.Fatal("SOL leg missed")
	}
	// Fair revenue = 1,000,000 * (10e9/10,000) = 1000 SOL; victim got 900.
	wantLoss := 100e9
	if diff := v.VictimLossLamports - wantLoss; diff > 1 || diff < -1 {
		t.Errorf("VictimLoss = %.0f, want %.0f", v.VictimLossLamports, wantLoss)
	}
	if v.AttackerGainLamports != 1e9 {
		t.Errorf("AttackerGain = %.0f", v.AttackerGainLamports)
	}
}

func TestDetectFootnote7NetCoinProfit(t *testing.T) {
	// The attacker ends with net SOL profit but also a net token deficit
	// is NOT allowed; the footnote-7 case is net profit in the sold coin
	// even though the bought coin went negative.
	dt := NewDefaultDetector()
	details := []jito.TxDetail{
		detail(1, attacker, solMint, 10_000_000_000, memeMint, 10_000),
		detail(2, victim, solMint, 1_000_000_000_000, memeMint, 900_000),
		// A sells MORE than it bought (10,800 > 10,000), netting extra SOL.
		detail(3, attacker, memeMint, 10_800, solMint, 11_500_000_000),
	}
	v := dt.Detect(record(details, 1_000_000), details)
	if !v.Sandwich {
		t.Fatalf("footnote-7 sandwich not detected: %v", v.Failed)
	}
	if v.AttackerGainLamports != 1.5e9 {
		t.Errorf("AttackerGain = %.0f, want 1.5e9", v.AttackerGainLamports)
	}
}

func TestDetectRejectsWrongLength(t *testing.T) {
	dt := NewDefaultDetector()
	details, _ := canonicalSandwich()
	short := details[:2]
	v := dt.Detect(record(short, 1000), short)
	if v.Sandwich || v.Failed != CritLength {
		t.Errorf("length-2 verdict %v", v.Failed)
	}
}

func TestDetectC1Signers(t *testing.T) {
	dt := NewDefaultDetector()

	// Outer signers differ.
	details, _ := canonicalSandwich()
	details[2].Signer = other
	for i := range details[2].TokenDeltas {
		details[2].TokenDeltas[i].Owner = other
	}
	v := dt.Detect(record(details, 1000), details)
	if v.Failed != CritSigners {
		t.Errorf("differing outer signers: %v", v.Failed)
	}

	// All three same signer (self-trading, not a sandwich).
	details, _ = canonicalSandwich()
	details[1].Signer = attacker
	for i := range details[1].TokenDeltas {
		details[1].TokenDeltas[i].Owner = attacker
	}
	v = dt.Detect(record(details, 1000), details)
	if v.Failed != CritSigners {
		t.Errorf("same middle signer: %v", v.Failed)
	}
}

func TestDetectC2MintSet(t *testing.T) {
	dt := NewDefaultDetector()
	details, _ := canonicalSandwich()
	// Victim trades a different memecoin.
	details[1] = detail(2, victim, solMint, 1_000_000_000_000, meme2, 900_000)
	v := dt.Detect(record(details, 1000), details)
	if v.Failed != CritMints {
		t.Errorf("mismatched mint set: %v", v.Failed)
	}
}

func TestDetectC3Direction(t *testing.T) {
	dt := NewDefaultDetector()
	// Attacker SELLS first while the victim buys: opposite direction
	// improves the victim's rate — not a sandwich.
	details := []jito.TxDetail{
		detail(1, attacker, memeMint, 10_000, solMint, 10_000_000_000),
		detail(2, victim, solMint, 1_000_000_000_000, memeMint, 900_000),
		detail(3, attacker, solMint, 9_000_000_000, memeMint, 10_000),
	}
	v := dt.Detect(record(details, 1000), details)
	if v.Failed != CritDirection {
		t.Errorf("opposite direction: %v", v.Failed)
	}
}

func TestDetectC4Profit(t *testing.T) {
	dt := NewDefaultDetector()
	// Attacker loses on the round trip: sells for less SOL than spent and
	// holds no extra tokens.
	details := []jito.TxDetail{
		detail(1, attacker, solMint, 10_000_000_000, memeMint, 10_000),
		detail(2, victim, solMint, 1_000_000_000_000, memeMint, 900_000),
		detail(3, attacker, memeMint, 10_000, solMint, 9_000_000_000),
	}
	v := dt.Detect(record(details, 1000), details)
	if v.Failed != CritProfit {
		t.Errorf("unprofitable A-B-A: %v", v.Failed)
	}
}

func TestDetectC4AllowsTokenAccumulation(t *testing.T) {
	// "Net gains currency with no payment": attacker keeps some tokens
	// while recovering all SOL.
	dt := NewDefaultDetector()
	details := []jito.TxDetail{
		detail(1, attacker, solMint, 10_000_000_000, memeMint, 10_000),
		detail(2, victim, solMint, 1_000_000_000_000, memeMint, 900_000),
		// Sells only 9,000 MEME but recovers all 10 SOL: net +1000 MEME.
		detail(3, attacker, memeMint, 9_000, solMint, 10_000_000_000),
	}
	v := dt.Detect(record(details, 1000), details)
	if !v.Sandwich {
		t.Errorf("token-accumulating sandwich rejected: %v", v.Failed)
	}
}

func TestDetectC5TipOnly(t *testing.T) {
	dt := NewDefaultDetector()
	// Trading-app pattern: two swaps then a tip-only transaction.
	details := []jito.TxDetail{
		detail(1, attacker, solMint, 10_000_000_000, memeMint, 10_000),
		detail(2, victim, solMint, 1_000_000_000_000, memeMint, 900_000),
		{Sig: sig(3), Signer: attacker, TipOnly: true, TipLamports: 5_000},
	}
	v := dt.Detect(record(details, 5_000), details)
	if v.Failed != CritTipOnly {
		t.Errorf("tip-only final tx: %v", v.Failed)
	}
}

func TestDetectNoSOLLeg(t *testing.T) {
	dt := NewDefaultDetector()
	// Memecoin-to-memecoin sandwich: detected, but excluded from dollar
	// quantification (28% of the paper's sandwiches).
	details := []jito.TxDetail{
		detail(1, attacker, meme2, 10_000, memeMint, 10_000),
		detail(2, victim, meme2, 1_000_000, memeMint, 900_000),
		detail(3, attacker, memeMint, 10_000, meme2, 11_000),
	}
	v := dt.Detect(record(details, 1000), details)
	if !v.Sandwich {
		t.Fatalf("non-SOL sandwich not detected: %v", v.Failed)
	}
	if v.HasSOL {
		t.Error("HasSOL true for memecoin pair")
	}
	if v.VictimLossLamports != 0 || v.AttackerGainLamports != 0 {
		t.Error("dollar figures populated without SOL leg")
	}
}

func TestDetectNoTrade(t *testing.T) {
	dt := NewDefaultDetector()
	details, _ := canonicalSandwich()
	details[1].TokenDeltas = nil // middle tx is not a trade
	v := dt.Detect(record(details, 1000), details)
	if v.Failed != CritNoTrade {
		t.Errorf("missing trade: %v", v.Failed)
	}
}

func TestDetectLossClampedNonNegative(t *testing.T) {
	dt := NewDefaultDetector()
	// Victim somehow got a *better* rate than the attacker (rounding).
	details := []jito.TxDetail{
		detail(1, attacker, solMint, 10_000_000_000, memeMint, 10_000),
		detail(2, victim, solMint, 1_000_000_000, memeMint, 1_100),
		detail(3, attacker, memeMint, 10_000, solMint, 10_500_000_000),
	}
	v := dt.Detect(record(details, 1000), details)
	if !v.Sandwich {
		t.Fatalf("not detected: %v", v.Failed)
	}
	if v.VictimLossLamports < 0 {
		t.Errorf("negative loss %f", v.VictimLossLamports)
	}
}

func TestCriterionStrings(t *testing.T) {
	for c := CritNone; c <= CritTipOnly; c++ {
		if c.String() == "unknown" {
			t.Errorf("criterion %d has no name", c)
		}
	}
	if Criterion(99).String() != "unknown" {
		t.Error("out-of-range criterion named")
	}
}

// TestDetectEndToEnd runs a real sandwich through the bank and block
// engine, then feeds the resulting explorer records to the detector —
// the full pipeline the paper's methodology assumes.
func TestDetectEndToEnd(t *testing.T) {
	bank := ledger.NewBank()
	reg := token.NewRegistry()
	mm := reg.NewMemecoin("MEME")
	pool := amm.New(mm.Address, token.SOL.Address, 1e12, 1e12, amm.DefaultFeeBps)
	bank.AddPool(pool)

	atk := solana.NewKeypairFromSeed("e2e-attacker")
	vic := solana.NewKeypairFromSeed("e2e-victim")
	for _, kp := range []*solana.Keypair{atk, vic} {
		bank.CreditLamports(kp.Pubkey(), 100*solana.LamportsPerSOL)
		bank.MintTo(kp.Pubkey(), token.SOL.Address, 1e12)
		bank.MintTo(kp.Pubkey(), mm.Address, 1e12)
	}
	engine := jito.NewBlockEngine(bank, solana.Clock{Genesis: time.Unix(0, 0)})

	victimIn := uint64(20_000_000_000)
	quote, _ := pool.QuoteOut(token.SOL.Address, victimIn)
	minOut := quote * 9_500 / 10_000
	snap, _ := bank.PoolSnapshot(pool.Address)
	plan, ok := amm.PlanSandwich(&snap, token.SOL.Address, victimIn, minOut, 1<<40)
	if !ok {
		t.Fatal("no plan")
	}

	bundle := jito.NewBundle(
		solana.NewTransaction(atk, 1, 0,
			&solana.Swap{Pool: pool.Address, InputMint: token.SOL.Address, AmountIn: plan.FrontrunIn},
			&solana.Tip{TipAccount: jito.TipAccounts[0], Amount: 2_000_000}),
		solana.NewTransaction(vic, 1, 0,
			&solana.Swap{Pool: pool.Address, InputMint: token.SOL.Address, AmountIn: victimIn, MinOut: minOut}),
		solana.NewTransaction(atk, 2, 0,
			&solana.Swap{Pool: pool.Address, InputMint: mm.Address, AmountIn: plan.FrontrunOut}),
	)
	if err := engine.Submit(bundle); err != nil {
		t.Fatal(err)
	}
	acc := engine.ProcessSlot(1)
	if len(acc) != 1 {
		t.Fatal("bundle did not land")
	}

	v := NewDefaultDetector().Detect(&acc[0].Record, acc[0].Details)
	if !v.Sandwich {
		t.Fatalf("end-to-end sandwich not detected: %v", v.Failed)
	}
	if v.Attacker != atk.Pubkey() || v.Victim != vic.Pubkey() {
		t.Error("attribution wrong")
	}
	if !v.HasSOL {
		t.Error("SOL leg missed")
	}
	// The detector's attacker gain must match the plan's profit. The tip
	// is paid in lamports, not wSOL, so it does not appear in token deltas.
	if int64(v.AttackerGainLamports) != plan.Profit {
		t.Errorf("gain %.0f != planned profit %d", v.AttackerGainLamports, plan.Profit)
	}
	if v.VictimLossLamports <= 0 {
		t.Error("victim loss not positive")
	}
}

func BenchmarkDetect(b *testing.B) {
	dt := NewDefaultDetector()
	details, rec := canonicalSandwich()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if v := dt.Detect(rec, details); !v.Sandwich {
			b.Fatal("not detected")
		}
	}
}
