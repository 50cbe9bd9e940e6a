package ledger

import (
	"errors"
	"reflect"
	"runtime"
	"testing"

	"jitomev/internal/amm"
	"jitomev/internal/solana"
	"jitomev/internal/token"
)

type fixture struct {
	bank  *Bank
	reg   *token.Registry
	meme  token.Mint
	pool  *amm.Pool
	alice *solana.Keypair
	bob   *solana.Keypair
	tip   solana.Pubkey
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	f := &fixture{
		bank:  NewBank(),
		reg:   token.NewRegistry(),
		alice: solana.NewKeypairFromSeed("alice"),
		bob:   solana.NewKeypairFromSeed("bob"),
		tip:   solana.NewKeypairFromSeed("tip-account").Pubkey(),
	}
	f.meme = f.reg.NewMemecoin("MEME")
	f.pool = amm.New(f.meme.Address, token.SOL.Address, 1e12, 1e12, amm.DefaultFeeBps)
	f.bank.AddPool(f.pool)

	for _, kp := range []*solana.Keypair{f.alice, f.bob} {
		f.bank.CreditLamports(kp.Pubkey(), 10*solana.LamportsPerSOL)
		f.bank.MintTo(kp.Pubkey(), token.SOL.Address, 100_000_000_000) // 100 wSOL
		f.bank.MintTo(kp.Pubkey(), f.meme.Address, 50_000_000_000)
	}
	return f
}

func TestTransferMovesLamports(t *testing.T) {
	f := newFixture(t)
	tx := solana.NewTransaction(f.alice, 1, 0,
		&solana.Transfer{From: f.alice.Pubkey(), To: f.bob.Pubkey(), Amount: 1_000_000})

	res, err := f.bank.ExecuteTx(tx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != nil {
		t.Fatalf("instruction failed: %v", res.Err)
	}
	wantAlice := 10*solana.LamportsPerSOL - 1_000_000 - solana.BaseFee
	if got := f.bank.Lamports(f.alice.Pubkey()); got != wantAlice {
		t.Errorf("alice = %d, want %d", got, wantAlice)
	}
	if got := f.bank.Lamports(f.bob.Pubkey()); got != 10*solana.LamportsPerSOL+1_000_000 {
		t.Errorf("bob = %d", got)
	}
}

func TestTransferRequiresSigner(t *testing.T) {
	f := newFixture(t)
	// Alice signs a transfer out of Bob's account.
	tx := solana.NewTransaction(f.alice, 1, 0,
		&solana.Transfer{From: f.bob.Pubkey(), To: f.alice.Pubkey(), Amount: 1})
	res, err := f.bank.ExecuteTx(tx)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(res.Err, ErrNotSigner) {
		t.Fatalf("got %v, want ErrNotSigner", res.Err)
	}
	if got := f.bank.Lamports(f.bob.Pubkey()); got != 10*solana.LamportsPerSOL {
		t.Error("unauthorized transfer moved funds")
	}
}

func TestFeeChargedOnInstructionFailure(t *testing.T) {
	f := newFixture(t)
	tx := solana.NewTransaction(f.alice, 1, 777,
		&solana.Transfer{From: f.alice.Pubkey(), To: f.bob.Pubkey(), Amount: 1 << 62})
	res, err := f.bank.ExecuteTx(tx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Err == nil {
		t.Fatal("oversized transfer succeeded")
	}
	want := 10*solana.LamportsPerSOL - solana.BaseFee - 777
	if got := f.bank.Lamports(f.alice.Pubkey()); got != want {
		t.Errorf("fee not charged on failure: alice = %d, want %d", got, want)
	}
	if f.bank.FailedTxCount != 1 {
		t.Errorf("FailedTxCount = %d", f.bank.FailedTxCount)
	}
}

func TestRejectWhenFeeUnaffordable(t *testing.T) {
	f := newFixture(t)
	pauper := solana.NewKeypairFromSeed("pauper")
	tx := solana.NewTransaction(pauper, 1, 0, &solana.Memo{Data: []byte("x")})
	if _, err := f.bank.ExecuteTx(tx); !errors.Is(err, ErrInsufficientLamports) {
		t.Fatalf("got %v, want ErrInsufficientLamports", err)
	}
	if f.bank.TxCount != 0 {
		t.Error("rejected tx counted")
	}
}

func TestSwapUpdatesBalancesAndPool(t *testing.T) {
	f := newFixture(t)
	in := uint64(1_000_000_000) // 1 wSOL
	tx := solana.NewTransaction(f.alice, 1, 0,
		&solana.Swap{Pool: f.pool.Address, InputMint: token.SOL.Address, AmountIn: in})

	res, err := f.bank.ExecuteTx(tx)
	if err != nil || res.Err != nil {
		t.Fatalf("swap failed: %v / %v", err, res.Err)
	}
	if len(res.Swaps) != 1 {
		t.Fatalf("Swaps = %d entries", len(res.Swaps))
	}
	sw := res.Swaps[0]
	if sw.AmountIn != in || sw.AmountOut == 0 {
		t.Fatalf("swap effect %+v", sw)
	}
	if got := f.bank.TokenBalance(f.alice.Pubkey(), token.SOL.Address); got != 100_000_000_000-in {
		t.Errorf("wSOL balance = %d", got)
	}
	if got := f.bank.TokenBalance(f.alice.Pubkey(), f.meme.Address); got != 50_000_000_000+sw.AmountOut {
		t.Errorf("meme balance = %d", got)
	}

	// Token deltas must mirror the swap exactly.
	if len(res.TokenDeltas) != 2 {
		t.Fatalf("TokenDeltas = %v", res.TokenDeltas)
	}
	for _, d := range res.TokenDeltas {
		switch d.Mint {
		case token.SOL.Address:
			if d.Delta != -int64(in) {
				t.Errorf("SOL delta = %d", d.Delta)
			}
		case f.meme.Address:
			if d.Delta != int64(sw.AmountOut) {
				t.Errorf("meme delta = %d", d.Delta)
			}
		default:
			t.Errorf("unexpected delta mint %s", d.Mint.Short())
		}
	}
}

func TestSwapSlippageFailureRollsBack(t *testing.T) {
	f := newFixture(t)
	quote, _ := f.pool.QuoteOut(token.SOL.Address, 1_000_000_000)
	tx := solana.NewTransaction(f.alice, 1, 0,
		&solana.Swap{Pool: f.pool.Address, InputMint: token.SOL.Address,
			AmountIn: 1_000_000_000, MinOut: quote + 1})

	res, err := f.bank.ExecuteTx(tx)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(res.Err, amm.ErrSlippageExceeded) {
		t.Fatalf("got %v", res.Err)
	}
	if got := f.bank.TokenBalance(f.alice.Pubkey(), token.SOL.Address); got != 100_000_000_000 {
		t.Error("failed swap left token state modified")
	}
	p, _ := f.bank.PoolSnapshot(f.pool.Address)
	if p.ReserveA != 1e12 || p.ReserveB != 1e12 {
		t.Error("failed swap left pool reserves modified")
	}
	if len(res.TokenDeltas) != 0 {
		t.Errorf("failed swap reported deltas: %v", res.TokenDeltas)
	}
}

func TestTipAccounting(t *testing.T) {
	f := newFixture(t)
	tx := solana.NewTransaction(f.alice, 1, 0,
		&solana.Tip{TipAccount: f.tip, Amount: 50_000})
	res, err := f.bank.ExecuteTx(tx)
	if err != nil || res.Err != nil {
		t.Fatal(err, res.Err)
	}
	if res.Tip != 50_000 || !res.TipOnly {
		t.Errorf("Tip=%d TipOnly=%v", res.Tip, res.TipOnly)
	}
	if f.bank.TipsCollected != 50_000 {
		t.Errorf("TipsCollected = %d", f.bank.TipsCollected)
	}
	if f.bank.Lamports(f.tip) != 50_000 {
		t.Errorf("tip account = %d", f.bank.Lamports(f.tip))
	}
}

func TestBundleAtomicCommit(t *testing.T) {
	f := newFixture(t)
	txs := []*solana.Transaction{
		solana.NewTransaction(f.alice, 1, 0,
			&solana.Swap{Pool: f.pool.Address, InputMint: token.SOL.Address, AmountIn: 1e9}),
		solana.NewTransaction(f.bob, 1, 0,
			&solana.Swap{Pool: f.pool.Address, InputMint: token.SOL.Address, AmountIn: 2e9}),
		solana.NewTransaction(f.alice, 2, 0,
			&solana.Tip{TipAccount: f.tip, Amount: 10_000}),
	}
	results, err := f.bank.ExecuteBundle(txs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("results = %d", len(results))
	}
	if f.bank.TxCount != 3 {
		t.Errorf("TxCount = %d", f.bank.TxCount)
	}
	if f.bank.TipsCollected != 10_000 {
		t.Errorf("TipsCollected = %d", f.bank.TipsCollected)
	}
}

func TestBundleAtomicRollback(t *testing.T) {
	f := newFixture(t)
	preAliceL := f.bank.Lamports(f.alice.Pubkey())
	preAliceSOL := f.bank.TokenBalance(f.alice.Pubkey(), token.SOL.Address)

	quote, _ := f.pool.QuoteOut(token.SOL.Address, 2e9)
	txs := []*solana.Transaction{
		// tx1 succeeds on its own...
		solana.NewTransaction(f.alice, 1, 0,
			&solana.Swap{Pool: f.pool.Address, InputMint: token.SOL.Address, AmountIn: 1e9}),
		// ...tx2 fails: tx1's price impact pushes bob's strict MinOut under water.
		solana.NewTransaction(f.bob, 1, 0,
			&solana.Swap{Pool: f.pool.Address, InputMint: token.SOL.Address,
				AmountIn: 2e9, MinOut: quote}),
	}
	if _, err := f.bank.ExecuteBundle(txs); err == nil {
		t.Fatal("bundle with failing tx committed")
	}

	if got := f.bank.Lamports(f.alice.Pubkey()); got != preAliceL {
		t.Errorf("alice lamports changed: %d != %d (fee leaked from rolled-back bundle)", got, preAliceL)
	}
	if got := f.bank.TokenBalance(f.alice.Pubkey(), token.SOL.Address); got != preAliceSOL {
		t.Error("alice token balance changed after rollback")
	}
	p, _ := f.bank.PoolSnapshot(f.pool.Address)
	if p.ReserveA != 1e12 || p.ReserveB != 1e12 {
		t.Error("pool reserves changed after rollback")
	}
	if f.bank.TxCount != 0 || f.bank.FeesCollected != 0 || f.bank.FailedTxCount != 0 {
		t.Errorf("counters leaked: tx=%d fees=%d failed=%d",
			f.bank.TxCount, f.bank.FeesCollected, f.bank.FailedTxCount)
	}
}

func TestNestedCheckpoints(t *testing.T) {
	b := NewBank()
	a := solana.NewKeypairFromSeed("acct").Pubkey()
	b.CreditLamports(a, 100)

	b.Checkpoint()
	b.setLamports(b.account(a), 200)
	b.Checkpoint()
	b.setLamports(b.account(a), 300)
	b.Rollback() // inner
	if b.Lamports(a) != 200 {
		t.Fatalf("after inner rollback: %d", b.Lamports(a))
	}
	b.Rollback() // outer
	if b.Lamports(a) != 100 {
		t.Fatalf("after outer rollback: %d", b.Lamports(a))
	}
}

func TestCommitMergesIntoParent(t *testing.T) {
	b := NewBank()
	a := solana.NewKeypairFromSeed("acct").Pubkey()
	b.CreditLamports(a, 100)

	b.Checkpoint()
	b.Checkpoint()
	b.setLamports(b.account(a), 300)
	b.Commit() // inner commit: undo info must survive in parent
	b.Rollback()
	if b.Lamports(a) != 100 {
		t.Fatalf("outer rollback after inner commit: %d", b.Lamports(a))
	}
}

func TestSandwichThroughBankMatchesPlan(t *testing.T) {
	// The full Table 1 flow executed through the bank must agree with the
	// pure amm.PlanSandwich simulation.
	f := newFixture(t)
	attacker, victim := f.alice, f.bob

	victimIn := uint64(20_000_000_000)
	quote, _ := f.pool.QuoteOut(token.SOL.Address, victimIn)
	minOut := quote * 9_500 / 10_000

	snap, _ := f.bank.PoolSnapshot(f.pool.Address)
	plan, ok := amm.PlanSandwich(&snap, token.SOL.Address, victimIn, minOut, 80_000_000_000)
	if !ok {
		t.Fatal("no plan")
	}

	txs := []*solana.Transaction{
		solana.NewTransaction(attacker, 1, 0,
			&solana.Swap{Pool: f.pool.Address, InputMint: token.SOL.Address, AmountIn: plan.FrontrunIn}),
		solana.NewTransaction(victim, 1, 0,
			&solana.Swap{Pool: f.pool.Address, InputMint: token.SOL.Address, AmountIn: victimIn, MinOut: minOut}),
		solana.NewTransaction(attacker, 2, 0,
			&solana.Swap{Pool: f.pool.Address, InputMint: f.meme.Address, AmountIn: plan.FrontrunOut}),
	}
	results, err := f.bank.ExecuteBundle(txs)
	if err != nil {
		t.Fatal(err)
	}
	if got := results[0].Swaps[0].AmountOut; got != plan.FrontrunOut {
		t.Errorf("frontrun out %d != plan %d", got, plan.FrontrunOut)
	}
	if got := results[1].Swaps[0].AmountOut; got != plan.VictimOut {
		t.Errorf("victim out %d != plan %d", got, plan.VictimOut)
	}
	if got := results[2].Swaps[0].AmountOut; got != plan.BackrunOut {
		t.Errorf("backrun out %d != plan %d", got, plan.BackrunOut)
	}
	gain := int64(results[2].Swaps[0].AmountOut) - int64(results[0].Swaps[0].AmountIn)
	if gain != plan.Profit {
		t.Errorf("realized profit %d != planned %d", gain, plan.Profit)
	}
	if gain <= 0 {
		t.Error("sandwich through bank unprofitable")
	}
}

func TestSetSlotPanicsOnRewind(t *testing.T) {
	b := NewBank()
	b.SetSlot(10)
	defer func() {
		if recover() == nil {
			t.Error("SetSlot backwards did not panic")
		}
	}()
	b.SetSlot(9)
}

func TestDuplicateNonceDistinctSig(t *testing.T) {
	f := newFixture(t)
	tx1 := solana.NewTransaction(f.alice, 7, 0, &solana.Memo{Data: []byte("a")})
	tx2 := solana.NewTransaction(f.alice, 7, 0, &solana.Memo{Data: []byte("b")})
	if tx1.Sig == tx2.Sig {
		t.Error("different payloads same nonce produced identical sigs")
	}
}

// raceEnabled is set under the race detector (race_test.go).
var raceEnabled bool

// TestRecycledScratchKeepsResults executes transactions back to back so
// each reuses the previous one's tracker and journals, and checks that
// no earlier result sees a later transaction's effects.
func TestRecycledScratchKeepsResults(t *testing.T) {
	f := newFixture(t)
	a := solana.NewTransaction(f.alice, 1, 0,
		&solana.Swap{Pool: f.pool.Address, InputMint: token.SOL.Address, AmountIn: 1_000_000})
	b := solana.NewTransaction(f.bob, 2, 0,
		&solana.Swap{Pool: f.pool.Address, InputMint: f.meme.Address, AmountIn: 2_000_000},
		&solana.Swap{Pool: f.pool.Address, InputMint: token.SOL.Address, AmountIn: 3_000_000})
	ra, err := f.bank.ExecuteTx(a)
	if err != nil {
		t.Fatal(err)
	}
	swapsA := append([]SwapEffect(nil), ra.Swaps...)
	deltasA := append([]TokenDelta(nil), ra.TokenDeltas...)
	rb, err := f.bank.ExecuteBundle([]*solana.Transaction{b})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ra.Swaps, swapsA) || !reflect.DeepEqual(ra.TokenDeltas, deltasA) {
		t.Error("a later transaction rewrote an earlier result")
	}
	if len(rb[0].Swaps) != 2 || rb[0].Signer != f.bob.Pubkey() {
		t.Errorf("second result = %+v", rb[0])
	}
	for _, d := range rb[0].TokenDeltas {
		if d.Owner != f.bob.Pubkey() {
			t.Errorf("second result carries a delta for %s", d.Owner.Short())
		}
	}
}

// TestExecuteTxAllocatesOnlyResults pins steady-state execution of a
// one-swap transaction to its result: the TxResult and its lamport,
// token and swap slices.
func TestExecuteTxAllocatesOnlyResults(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	f := newFixture(t)
	f.bank.CreditLamports(f.alice.Pubkey(), 1<<50)
	f.bank.MintTo(f.alice.Pubkey(), token.SOL.Address, 1<<55)
	tx := solana.NewTransaction(f.alice, 1, 0,
		&solana.Swap{Pool: f.pool.Address, InputMint: token.SOL.Address, AmountIn: 1_000})
	n := testing.AllocsPerRun(100, func() {
		if _, err := f.bank.ExecuteTx(tx); err != nil {
			t.Fatal(err)
		}
	})
	if n > 4 {
		t.Errorf("ExecuteTx allocates %v times per one-swap tx, want <= 4", n)
	}
}

func BenchmarkExecuteSwapTx(b *testing.B) {
	f := newFixture(&testing.T{})
	f.bank.CreditLamports(f.alice.Pubkey(), 1<<50)
	f.bank.MintTo(f.alice.Pubkey(), token.SOL.Address, 1<<55)
	f.bank.MintTo(f.alice.Pubkey(), f.meme.Address, 1<<55)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mint := token.SOL.Address
		if i%2 == 1 {
			mint = f.meme.Address
		}
		tx := solana.NewTransaction(f.alice, uint64(i), 0,
			&solana.Swap{Pool: f.pool.Address, InputMint: mint, AmountIn: 1_000_000})
		if _, err := f.bank.ExecuteTx(tx); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExecuteSandwichBundle(b *testing.B) {
	f := newFixture(&testing.T{})
	f.bank.CreditLamports(f.alice.Pubkey(), 1<<50)
	f.bank.CreditLamports(f.bob.Pubkey(), 1<<50)
	f.bank.MintTo(f.alice.Pubkey(), token.SOL.Address, 1<<55)
	f.bank.MintTo(f.alice.Pubkey(), f.meme.Address, 1<<55)
	f.bank.MintTo(f.bob.Pubkey(), token.SOL.Address, 1<<55)
	b.ReportAllocs()
	nonce := uint64(0)
	for i := 0; i < b.N; i++ {
		nonce++
		front := solana.NewTransaction(f.alice, nonce, 0,
			&solana.Swap{Pool: f.pool.Address, InputMint: token.SOL.Address, AmountIn: 1_000_000})
		nonce++
		victim := solana.NewTransaction(f.bob, nonce, 0,
			&solana.Swap{Pool: f.pool.Address, InputMint: token.SOL.Address, AmountIn: 5_000_000})
		nonce++
		back := solana.NewTransaction(f.alice, nonce, 0,
			&solana.Swap{Pool: f.pool.Address, InputMint: f.meme.Address, AmountIn: 900_000})
		if _, err := f.bank.ExecuteBundle([]*solana.Transaction{front, victim, back}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestReserveSizesFunding: balances already held survive Reserve, and
// funding the reserved population then inserts without growing either
// map.
func TestReserveSizesFunding(t *testing.T) {
	f := newFixture(t)
	const accounts, mints = 200, 4
	owners := make([]solana.Pubkey, accounts)
	for i := range owners {
		owners[i][0], owners[i][1] = byte(i), byte(i>>8)
		owners[i][31] = 0xaa
	}
	f.bank.Reserve(accounts, accounts*mints)
	if got := f.bank.Lamports(f.alice.Pubkey()); got != 10*solana.LamportsPerSOL {
		t.Fatalf("alice holds %d lamports after Reserve", got)
	}
	if got := f.bank.TokenBalance(f.bob.Pubkey(), f.meme.Address); got != 50_000_000_000 {
		t.Fatalf("bob holds %d MEME after Reserve", got)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, o := range owners {
		f.bank.CreditLamports(o, 1)
		for m := 0; m < mints; m++ {
			f.bank.MintTo(o, solana.Pubkey{byte(m), 0xbb}, 1)
		}
	}
	runtime.ReadMemStats(&m1)
	if n := m1.Mallocs - m0.Mallocs; n != 0 {
		t.Fatalf("funding %d reserved accounts allocated %d times", accounts, n)
	}
}
