package jito

import (
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"jitomev/internal/amm"
	"jitomev/internal/ledger"
	"jitomev/internal/solana"
	"jitomev/internal/token"
)

type fixture struct {
	bank   *ledger.Bank
	engine *BlockEngine
	pool   *amm.Pool
	meme   token.Mint
	alice  *solana.Keypair
	bob    *solana.Keypair
}

func newFixture(t testing.TB) *fixture {
	t.Helper()
	f := &fixture{
		bank:  ledger.NewBank(),
		alice: solana.NewKeypairFromSeed("alice"),
		bob:   solana.NewKeypairFromSeed("bob"),
	}
	reg := token.NewRegistry()
	f.meme = reg.NewMemecoin("MEME")
	f.pool = amm.New(f.meme.Address, token.SOL.Address, 1e12, 1e12, amm.DefaultFeeBps)
	f.bank.AddPool(f.pool)
	clock := solana.Clock{Genesis: time.Date(2025, 2, 9, 0, 0, 0, 0, time.UTC)}
	f.engine = NewBlockEngine(f.bank, clock)
	for _, kp := range []*solana.Keypair{f.alice, f.bob} {
		f.bank.CreditLamports(kp.Pubkey(), 100*solana.LamportsPerSOL)
		f.bank.MintTo(kp.Pubkey(), token.SOL.Address, 1e12)
		f.bank.MintTo(kp.Pubkey(), f.meme.Address, 1e12)
	}
	return f
}

func (f *fixture) swapTx(kp *solana.Keypair, nonce uint64, in uint64, tip solana.Lamports) *solana.Transaction {
	instrs := []solana.Instruction{
		&solana.Swap{Pool: f.pool.Address, InputMint: token.SOL.Address, AmountIn: in},
	}
	if tip > 0 {
		instrs = append(instrs, &solana.Tip{TipAccount: TipAccounts[0], Amount: tip})
	}
	return solana.NewTransaction(kp, nonce, 0, instrs...)
}

func TestTipAccountsDistinct(t *testing.T) {
	seen := map[solana.Pubkey]bool{}
	for _, a := range TipAccounts {
		if seen[a] {
			t.Fatal("duplicate tip account")
		}
		seen[a] = true
		if !IsTipAccount(a) {
			t.Error("IsTipAccount false for designated account")
		}
	}
	if IsTipAccount(solana.NewKeypairFromSeed("random").Pubkey()) {
		t.Error("IsTipAccount true for random key")
	}
}

func TestBundleIDDeterministicAndDistinct(t *testing.T) {
	f := newFixture(t)
	b1 := NewBundle(f.swapTx(f.alice, 1, 1e6, 1000))
	b2 := NewBundle(f.swapTx(f.alice, 1, 1e6, 1000))
	b3 := NewBundle(f.swapTx(f.alice, 2, 1e6, 1000))
	if b1.ID() != b2.ID() {
		t.Error("identical bundles have different ids")
	}
	if b1.ID() == b3.ID() {
		t.Error("different bundles share an id")
	}
}

func TestBundleIDOrderSensitive(t *testing.T) {
	f := newFixture(t)
	t1 := f.swapTx(f.alice, 1, 1e6, 1000)
	t2 := f.swapTx(f.bob, 1, 1e6, 0)
	if NewBundle(t1, t2).ID() == NewBundle(t2, t1).ID() {
		t.Error("bundle id ignores transaction order")
	}
}

func TestBundleIDJSONRoundTrip(t *testing.T) {
	f := newFixture(t)
	id := NewBundle(f.swapTx(f.alice, 1, 1e6, 1000)).ID()
	b, err := json.Marshal(id)
	if err != nil {
		t.Fatal(err)
	}
	var back BundleID
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back != id {
		t.Error("bundle id JSON round trip mismatch")
	}
	if len(id.String()) != 64 {
		t.Errorf("id hex length %d, want 64", len(id.String()))
	}
}

func TestBundleValidate(t *testing.T) {
	f := newFixture(t)

	if err := NewBundle().Validate(); !errors.Is(err, ErrEmptyBundle) {
		t.Errorf("empty bundle: %v", err)
	}

	txs := make([]*solana.Transaction, 6)
	for i := range txs {
		txs[i] = f.swapTx(f.alice, uint64(i), 1e6, 1000)
	}
	if err := NewBundle(txs...).Validate(); !errors.Is(err, ErrBundleTooLarge) {
		t.Errorf("oversized bundle: %v", err)
	}

	noTip := NewBundle(f.swapTx(f.alice, 1, 1e6, 0))
	if err := noTip.Validate(); !errors.Is(err, ErrNoTipAccount) {
		t.Errorf("untipped bundle: %v", err)
	}

	// Tip below the 1000-lamport minimum.
	lowTip := NewBundle(f.swapTx(f.alice, 1, 1e6, 999))
	if err := lowTip.Validate(); !errors.Is(err, ErrTipTooSmall) {
		t.Errorf("low-tip bundle: %v", err)
	}

	// Tip paid to a non-designated account doesn't count.
	stray := solana.NewTransaction(f.alice, 1, 0,
		&solana.Swap{Pool: f.pool.Address, InputMint: token.SOL.Address, AmountIn: 1e6},
		&solana.Tip{TipAccount: solana.NewKeypairFromSeed("stray").Pubkey(), Amount: 1e6})
	if err := NewBundle(stray).Validate(); !errors.Is(err, ErrNoTipAccount) {
		t.Errorf("stray-tip bundle: %v", err)
	}

	ok := NewBundle(f.swapTx(f.alice, 1, 1e6, 1000))
	if err := ok.Validate(); err != nil {
		t.Errorf("valid bundle rejected: %v", err)
	}
}

func TestBundleTipSumsAcrossTxs(t *testing.T) {
	f := newFixture(t)
	b := NewBundle(
		f.swapTx(f.alice, 1, 1e6, 600),
		f.swapTx(f.bob, 1, 1e6, 500),
	)
	if b.Tip() != 1100 {
		t.Errorf("Tip = %d, want 1100", b.Tip())
	}
}

func TestProcessSlotOrdersByTip(t *testing.T) {
	f := newFixture(t)
	low := NewBundle(f.swapTx(f.alice, 1, 1e6, 1_000))
	high := NewBundle(f.swapTx(f.bob, 1, 1e6, 2_000_000))
	if err := f.engine.Submit(low); err != nil {
		t.Fatal(err)
	}
	if err := f.engine.Submit(high); err != nil {
		t.Fatal(err)
	}
	acc := f.engine.ProcessSlot(1)
	if len(acc) != 2 {
		t.Fatalf("accepted %d bundles", len(acc))
	}
	if acc[0].Record.ID != high.ID() {
		t.Error("higher tip did not execute first")
	}
	if acc[0].Record.Seq >= acc[1].Record.Seq {
		t.Error("seq not monotone in execution order")
	}
}

func TestProcessSlotAtomicRejection(t *testing.T) {
	f := newFixture(t)
	// Victim swap with impossible MinOut makes the bundle fail atomically.
	victim := solana.NewTransaction(f.bob, 1, 0,
		&solana.Swap{Pool: f.pool.Address, InputMint: token.SOL.Address,
			AmountIn: 1e6, MinOut: 1 << 60})
	b := NewBundle(
		f.swapTx(f.alice, 1, 1e6, 5_000),
		victim,
		solana.NewTransaction(f.alice, 2, 0,
			&solana.Swap{Pool: f.pool.Address, InputMint: f.meme.Address, AmountIn: 1e5}),
	)
	if err := f.engine.Submit(b); err != nil {
		t.Fatal(err)
	}
	if acc := f.engine.ProcessSlot(1); len(acc) != 0 {
		t.Fatal("failing bundle was accepted")
	}
	if f.engine.Stats.RejectedExec != 1 {
		t.Errorf("RejectedExec = %d", f.engine.Stats.RejectedExec)
	}
	if f.bank.TipsCollected != 0 {
		t.Error("rejected bundle paid tips")
	}
}

func TestProcessSlotRecordsAndDetails(t *testing.T) {
	f := newFixture(t)
	tipTx := solana.NewTransaction(f.alice, 3, 0,
		&solana.Tip{TipAccount: TipAccounts[2], Amount: 7_000})
	b := NewBundle(f.swapTx(f.alice, 1, 2e6, 0), f.swapTx(f.bob, 1, 3e6, 0), tipTx)
	if err := f.engine.Submit(b); err != nil {
		t.Fatal(err)
	}
	acc := f.engine.ProcessSlot(42)
	if len(acc) != 1 {
		t.Fatal("bundle not accepted")
	}
	rec, det := acc[0].Record, acc[0].Details
	if rec.Slot != 42 || rec.NumTxs() != 3 || rec.Tip() != 7_000 {
		t.Errorf("record %+v", rec)
	}
	if len(det) != 3 {
		t.Fatalf("details = %d", len(det))
	}
	if det[0].Signer != f.alice.Pubkey() || det[1].Signer != f.bob.Pubkey() {
		t.Error("detail signers wrong")
	}
	if len(det[0].TokenDeltas) != 2 {
		t.Errorf("tx0 deltas = %v", det[0].TokenDeltas)
	}
	if !det[2].TipOnly || det[2].TipLamports != 7_000 {
		t.Errorf("tip tx detail %+v", det[2])
	}
	if det[0].TipOnly {
		t.Error("swap tx marked tip-only")
	}
	// Timestamp corresponds to slot 42 on the clock.
	wantMs := time.Date(2025, 2, 9, 0, 0, 16, 800e6, time.UTC).UnixMilli()
	if rec.UnixMs != wantMs {
		t.Errorf("UnixMs = %d, want %d", rec.UnixMs, wantMs)
	}
}

func TestEngineStatsByLength(t *testing.T) {
	f := newFixture(t)
	f.engine.Submit(NewBundle(f.swapTx(f.alice, 1, 1e6, 1_000)))
	f.engine.Submit(NewBundle(
		f.swapTx(f.alice, 2, 1e6, 1_000),
		f.swapTx(f.bob, 1, 1e6, 0),
	))
	f.engine.ProcessSlot(1)
	if f.engine.Stats.ByLength[1] != 1 || f.engine.Stats.ByLength[2] != 1 {
		t.Errorf("ByLength = %v", f.engine.Stats.ByLength)
	}
	if f.engine.Stats.TxsLanded != 3 {
		t.Errorf("TxsLanded = %d", f.engine.Stats.TxsLanded)
	}
}

func TestSubmitInvalidCounted(t *testing.T) {
	f := newFixture(t)
	if err := f.engine.Submit(NewBundle()); err == nil {
		t.Fatal("empty bundle accepted")
	}
	if f.engine.Stats.RejectedInvalid != 1 || f.engine.Stats.Submitted != 1 {
		t.Errorf("stats %+v", f.engine.Stats)
	}
}

func TestDetailFromResultFailedTx(t *testing.T) {
	res := &ledger.TxResult{
		Sig:    solana.NewKeypairFromSeed("x").Sign([]byte("m")),
		Signer: solana.NewKeypairFromSeed("x").Pubkey(),
		Err:    errors.New("boom"),
	}
	d := DetailFromResult(res, 9)
	if !d.Failed || d.Slot != 9 {
		t.Errorf("detail %+v", d)
	}
}

func BenchmarkProcessSlotSandwiches(b *testing.B) {
	f := newFixture(b)
	f.bank.CreditLamports(f.alice.Pubkey(), 1<<50)
	f.bank.CreditLamports(f.bob.Pubkey(), 1<<50)
	f.bank.MintTo(f.alice.Pubkey(), token.SOL.Address, 1<<55)
	f.bank.MintTo(f.alice.Pubkey(), f.meme.Address, 1<<55)
	f.bank.MintTo(f.bob.Pubkey(), token.SOL.Address, 1<<55)
	b.ReportAllocs()
	nonce := uint64(0)
	for i := 0; i < b.N; i++ {
		nonce++
		front := f.swapTx(f.alice, nonce, 1e6, 2_000_000)
		nonce++
		victim := f.swapTx(f.bob, nonce, 5e6, 0)
		nonce++
		back := solana.NewTransaction(f.alice, nonce, 0,
			&solana.Swap{Pool: f.pool.Address, InputMint: f.meme.Address, AmountIn: 9e5})
		if err := f.engine.Submit(NewBundle(front, victim, back)); err != nil {
			b.Fatal(err)
		}
		f.engine.ProcessSlot(solana.Slot(i + 1))
	}
}

func TestSimulateDryRun(t *testing.T) {
	f := newFixture(t)
	preA := f.bank.Lamports(f.alice.Pubkey())
	prePool, _ := f.bank.PoolSnapshot(f.pool.Address)
	preTx, preFees, preTips := f.bank.TxCount, f.bank.FeesCollected, f.bank.TipsCollected

	b := NewBundle(f.swapTx(f.alice, 1, 1e6, 5_000))
	results, err := f.engine.Simulate(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || len(results[0].Swaps) != 1 {
		t.Fatalf("simulation results %+v", results)
	}
	// Nothing changed: balances, pool, counters.
	if f.bank.Lamports(f.alice.Pubkey()) != preA {
		t.Error("simulation mutated lamports")
	}
	postPool, _ := f.bank.PoolSnapshot(f.pool.Address)
	if postPool.ReserveA != prePool.ReserveA || postPool.ReserveB != prePool.ReserveB {
		t.Error("simulation mutated pool")
	}
	if f.bank.TxCount != preTx || f.bank.FeesCollected != preFees || f.bank.TipsCollected != preTips {
		t.Error("simulation leaked counters")
	}
	// The same bundle still lands for real afterwards.
	if err := f.engine.Submit(b); err != nil {
		t.Fatal(err)
	}
	if acc := f.engine.ProcessSlot(1); len(acc) != 1 {
		t.Fatal("bundle failed after simulation")
	}
}

func TestSimulateReportsDoomedBundle(t *testing.T) {
	f := newFixture(t)
	doomed := NewBundle(
		f.swapTx(f.alice, 1, 1e6, 5_000),
		solana.NewTransaction(f.bob, 1, 0,
			&solana.Swap{Pool: f.pool.Address, InputMint: token.SOL.Address,
				AmountIn: 1e6, MinOut: 1 << 60}),
	)
	if _, err := f.engine.Simulate(doomed); err == nil {
		t.Fatal("simulation passed a bundle that must fail")
	}
	if f.bank.TxCount != 0 || f.bank.FeesCollected != 0 {
		t.Error("failed simulation leaked state")
	}
}

func TestBundleRecordEqual(t *testing.T) {
	base := BundleRecord{
		Seq:      7,
		ID:       BundleID{1, 2, 3},
		Slot:     99,
		UnixMs:   -12345,
		TipLamps: 1047,
		TxIDs:    []solana.Signature{{1}, {2}, {3}},
	}
	same := base
	same.TxIDs = append([]solana.Signature(nil), base.TxIDs...)
	if !base.Equal(&same) {
		t.Error("identical records compare unequal")
	}
	empty := BundleRecord{}
	emptySlice := BundleRecord{TxIDs: []solana.Signature{}}
	if !empty.Equal(&emptySlice) {
		t.Error("nil vs empty TxIDs must compare equal (serialization does not preserve the distinction)")
	}
	for _, mut := range []func(*BundleRecord){
		func(r *BundleRecord) { r.Seq++ },
		func(r *BundleRecord) { r.ID[0]++ },
		func(r *BundleRecord) { r.Slot++ },
		func(r *BundleRecord) { r.UnixMs++ },
		func(r *BundleRecord) { r.TipLamps++ },
		func(r *BundleRecord) { r.TxIDs = r.TxIDs[:2] },
		func(r *BundleRecord) { r.TxIDs[1][0]++ },
	} {
		mod := base
		mod.TxIDs = append([]solana.Signature(nil), base.TxIDs...)
		mut(&mod)
		if base.Equal(&mod) {
			t.Error("mutated record compares equal")
		}
	}
}

func TestTxDetailEqual(t *testing.T) {
	owner := solana.Pubkey{9}
	base := TxDetail{
		Sig:         solana.Signature{5},
		Signer:      solana.Pubkey{6},
		Slot:        42,
		Failed:      true,
		TipOnly:     false,
		TipLamports: 1000,
		TokenDeltas: []TokenDelta{{Owner: owner, Mint: solana.Pubkey{7}, Delta: -55}},
	}
	same := base
	same.TokenDeltas = append([]TokenDelta(nil), base.TokenDeltas...)
	if !base.Equal(&same) {
		t.Error("identical details compare unequal")
	}
	noDeltas := TxDetail{Sig: base.Sig}
	emptyDeltas := TxDetail{Sig: base.Sig, TokenDeltas: []TokenDelta{}}
	if !noDeltas.Equal(&emptyDeltas) {
		t.Error("nil vs empty Deltas must compare equal")
	}
	mod := same
	mod.TokenDeltas = []TokenDelta{{Owner: owner, Mint: solana.Pubkey{7}, Delta: 55}}
	if base.Equal(&mod) {
		t.Error("flipped delta sign compares equal")
	}
	mod2 := same
	mod2.TipOnly = true
	if base.Equal(&mod2) {
		t.Error("flag change compares equal")
	}
}

// TestBundleIDJSONMatchesUnmarshal pins the direct hex JSON forms to the
// json.Marshal/json.Unmarshal route they replace.
func TestBundleIDJSONMatchesUnmarshal(t *testing.T) {
	var id BundleID
	for i := range id {
		id[i] = byte(i * 7)
	}
	want, _ := json.Marshal(id.String())
	if got, _ := id.MarshalJSON(); string(got) != string(want) {
		t.Fatalf("MarshalJSON = %s, want %s", got, want)
	}
	upper := `"` + strings.ToUpper(id.String()) + `"`
	for _, in := range []string{string(want), upper, `"0` + id.String()[1:] + `"`, `null`, `""`,
		`"` + id.String()[2:] + `"`, `"zz` + id.String()[2:] + `"`, `7`} {
		var got, ref BundleID
		errGot := got.UnmarshalJSON([]byte(in))
		errRef := func() error {
			var s string
			if err := json.Unmarshal([]byte(in), &s); err != nil {
				return err
			}
			raw, err := hex.DecodeString(s)
			if err != nil {
				return fmt.Errorf("bundle id: %w", err)
			}
			if len(raw) != 32 {
				return fmt.Errorf("bundle id: %d bytes, want 32", len(raw))
			}
			copy(ref[:], raw)
			return nil
		}()
		if fmt.Sprint(errGot) != fmt.Sprint(errRef) || got != ref {
			t.Errorf("%s: got (%s, %v), want (%s, %v)", in, got.Short(), errGot, ref.Short(), errRef)
		}
	}
	if n := testing.AllocsPerRun(50, func() { id.MarshalJSON() }); n != 1 {
		t.Errorf("MarshalJSON allocated %.0f times, want 1", n)
	}
	if n := testing.AllocsPerRun(50, func() { id.UnmarshalJSON(want) }); n != 0 {
		t.Errorf("UnmarshalJSON allocated %.0f times on a plain literal", n)
	}
}
