package core

import (
	"testing"

	"jitomev/internal/jito"
	"jitomev/internal/solana"
)

func recordN(details []jito.TxDetail, tip uint64) *jito.BundleRecord {
	ids := make([]solana.Signature, len(details))
	for i, d := range details {
		ids[i] = d.Sig
	}
	return &jito.BundleRecord{ID: jito.BundleID{2}, Slot: 1, TxIDs: ids, TipLamps: tip}
}

func tipOnlyDetail(i int, signer solana.Pubkey) jito.TxDetail {
	return jito.TxDetail{Sig: sig(i), Signer: signer, TipOnly: true, TipLamports: 5_000}
}

func memoDetail(i int, signer solana.Pubkey) jito.TxDetail {
	return jito.TxDetail{Sig: sig(i), Signer: signer}
}

func TestExtendedFindsPlainLength3(t *testing.T) {
	dt := NewDefaultDetector()
	details, rec := canonicalSandwich()
	ev := dt.DetectExtended(rec, details)
	if !ev.Found() || len(ev.Sandwiches) != 1 {
		t.Fatalf("extended missed canonical sandwich: %+v", ev)
	}
	if ev.Indices[0] != [3]int{0, 1, 2} {
		t.Errorf("indices %v", ev.Indices[0])
	}
	// Quantification must agree with the plain detector.
	plain := dt.Detect(rec, details)
	if ev.Sandwiches[0].VictimLossLamports != plain.VictimLossLamports {
		t.Error("extended quantification diverges from plain detector")
	}
}

func TestExtendedFindsTrailingPad(t *testing.T) {
	dt := NewDefaultDetector()
	details, _ := canonicalSandwich()
	padded := append(details, memoDetail(10, other))
	rec := recordN(padded, 2_000_000)

	// The plain detector misses it (CritLength) — the paper's gap.
	if v := dt.Detect(rec, padded); v.Sandwich || v.Failed != CritLength {
		t.Fatalf("plain detector verdict %v", v.Failed)
	}
	ev := dt.DetectExtended(rec, padded)
	if !ev.Found() {
		t.Fatal("extended missed length-4 disguised sandwich")
	}
	if ev.Indices[0] != [3]int{0, 1, 2} {
		t.Errorf("indices %v", ev.Indices[0])
	}
}

func TestExtendedFindsLeadingAndMiddlePads(t *testing.T) {
	dt := NewDefaultDetector()
	s, _ := canonicalSandwich()

	// Pad at the front.
	front := append([]jito.TxDetail{memoDetail(11, other)}, s...)
	ev := dt.DetectExtended(recordN(front, 1_000), front)
	if !ev.Found() || ev.Indices[0] != [3]int{1, 2, 3} {
		t.Fatalf("front pad: %+v", ev.Indices)
	}

	// Pad between victim and back-run.
	mid := []jito.TxDetail{s[0], s[1], tipOnlyDetail(12, attacker), s[2]}
	ev = dt.DetectExtended(recordN(mid, 1_000), mid)
	if !ev.Found() || ev.Indices[0] != [3]int{0, 1, 3} {
		t.Fatalf("middle pad: %+v", ev.Indices)
	}
}

func TestExtendedUnrelatedTradePad(t *testing.T) {
	// The pad is itself a trade, but on a different mint pair.
	dt := NewDefaultDetector()
	s, _ := canonicalSandwich()
	pad := detail(13, other, meme2, 500, solMint, 400)
	padded := []jito.TxDetail{s[0], pad, s[1], s[2]}
	ev := dt.DetectExtended(recordN(padded, 1_000), padded)
	if !ev.Found() {
		t.Fatal("unrelated-trade pad defeated extended detector")
	}
	if ev.Indices[0] != [3]int{0, 2, 3} {
		t.Errorf("indices %v", ev.Indices[0])
	}
	if ev.Sandwiches[0].Victim != victim {
		t.Error("victim attribution wrong")
	}
}

func TestExtendedRejectsBenignLong(t *testing.T) {
	dt := NewDefaultDetector()
	// Four unrelated trades by four signers.
	a := detail(20, attacker, solMint, 100, memeMint, 90)
	b := detail(21, victim, solMint, 100, meme2, 90)
	c := detail(22, other, meme2, 100, solMint, 90)
	d := tipOnlyDetail(23, other)
	details := []jito.TxDetail{a, b, c, d}
	if ev := dt.DetectExtended(recordN(details, 1_000), details); ev.Found() {
		t.Fatalf("benign length-4 flagged: %+v", ev.Indices)
	}
}

func TestExtendedRejectsUnprofitableTriple(t *testing.T) {
	dt := NewDefaultDetector()
	details := []jito.TxDetail{
		detail(30, attacker, solMint, 10_000_000_000, memeMint, 10_000),
		detail(31, victim, solMint, 1_000_000_000_000, memeMint, 900_000),
		detail(32, attacker, memeMint, 10_000, solMint, 9_000_000_000), // loss
		memoDetail(33, other),
	}
	if ev := dt.DetectExtended(recordN(details, 1_000), details); ev.Found() {
		t.Fatal("unprofitable padded A-B-A flagged")
	}
}

func TestExtendedTipOnlyNeverALeg(t *testing.T) {
	dt := NewDefaultDetector()
	s, _ := canonicalSandwich()
	// Replace the back-run with a tip-only tx: no complete sandwich left.
	details := []jito.TxDetail{s[0], s[1], tipOnlyDetail(40, attacker), memoDetail(41, attacker)}
	if ev := dt.DetectExtended(recordN(details, 1_000), details); ev.Found() {
		t.Fatal("tip-only transaction used as a sandwich leg")
	}
}

func TestExtendedBoundsChecks(t *testing.T) {
	dt := NewDefaultDetector()
	s, _ := canonicalSandwich()
	if ev := dt.DetectExtended(recordN(s[:2], 1_000), s[:2]); ev.Found() {
		t.Error("length-2 bundle produced a sandwich")
	}
	six := append(append([]jito.TxDetail{}, s...), s...)
	if ev := dt.DetectExtended(recordN(six, 1_000), six); ev.Found() {
		t.Error("over-length bundle should be rejected (Jito max is 5)")
	}
}

func TestExtendedLength5WithTwoPads(t *testing.T) {
	dt := NewDefaultDetector()
	s, _ := canonicalSandwich()
	details := []jito.TxDetail{memoDetail(50, other), s[0], s[1], s[2], tipOnlyDetail(51, attacker)}
	ev := dt.DetectExtended(recordN(details, 3_000_000), details)
	if !ev.Found() || ev.Indices[0] != [3]int{1, 2, 3} {
		t.Fatalf("length-5 disguise: %+v", ev.Indices)
	}
	if ev.Sandwiches[0].TipLamports != 3_000_000 {
		t.Error("bundle tip not propagated")
	}
}

func BenchmarkDetectExtendedLen5(b *testing.B) {
	dt := NewDefaultDetector()
	s, _ := canonicalSandwich()
	details := []jito.TxDetail{memoDetail(60, other), s[0], s[1], s[2], tipOnlyDetail(61, attacker)}
	rec := recordN(details, 1_000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if ev := dt.DetectExtended(rec, details); !ev.Found() {
			b.Fatal("missed")
		}
	}
}

// benignLen5 is a five-transaction bundle with no embedded sandwich:
// three trades by three signers on different pairs, a tip and a memo.
func benignLen5() ([]jito.TxDetail, *jito.BundleRecord) {
	details := []jito.TxDetail{
		detail(70, attacker, solMint, 100, memeMint, 90),
		detail(71, victim, solMint, 100, meme2, 90),
		detail(72, other, meme2, 100, solMint, 90),
		tipOnlyDetail(73, other),
		memoDetail(74, attacker),
	}
	return details, recordN(details, 1_000)
}

// TestDetectExtendedAllocs pins the stack-only scratch: a bundle with no
// sandwich allocates nothing, and a found one only the verdict slices.
func TestDetectExtendedAllocs(t *testing.T) {
	dt := NewDefaultDetector()
	benign, rec := benignLen5()
	if n := testing.AllocsPerRun(100, func() {
		if ev := dt.DetectExtended(rec, benign); ev.Found() {
			t.Fatal("benign bundle flagged")
		}
	}); n != 0 {
		t.Errorf("benign 5-tx bundle: %v allocs, want 0", n)
	}

	s, _ := canonicalSandwich()
	found := []jito.TxDetail{memoDetail(75, other), s[0], s[1], s[2], tipOnlyDetail(76, attacker)}
	frec := recordN(found, 1_000)
	if n := testing.AllocsPerRun(100, func() {
		if ev := dt.DetectExtended(frec, found); !ev.Found() {
			t.Fatal("missed")
		}
	}); n > 2 {
		t.Errorf("5-tx bundle with a sandwich: %v allocs, want ≤ 2", n)
	}
}

// BenchmarkDetectExtended is the common case of the extended pass: a
// retained long bundle that holds no sandwich.
func BenchmarkDetectExtended(b *testing.B) {
	dt := NewDefaultDetector()
	details, rec := benignLen5()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if ev := dt.DetectExtended(rec, details); ev.Found() {
			b.Fatal("benign bundle flagged")
		}
	}
}
