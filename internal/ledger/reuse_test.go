package ledger

import (
	"fmt"
	"reflect"
	"testing"

	"jitomev/internal/solana"
	"jitomev/internal/token"
)

// counters are a bank's running totals.
type counters struct {
	fees, tips    solana.Lamports
	txs, failedTx uint64
}

func (b *Bank) counters() counters {
	return counters{b.FeesCollected, b.TipsCollected, b.TxCount, b.FailedTxCount}
}

// clone returns an independent bank holding b's balances, pools, slot
// and counters, built through the exported funding calls.
func (b *Bank) clone() *Bank {
	c := NewBank()
	lamports, tokens, pools := b.flatState()
	for k, v := range lamports {
		c.CreditLamports(k, v)
	}
	for k, v := range tokens {
		c.MintTo(k.Owner, k.Mint, v)
	}
	for _, p := range pools {
		c.AddPool(p.Clone())
	}
	c.slot = b.slot
	c.FeesCollected, c.TipsCollected, c.TxCount, c.FailedTxCount =
		b.FeesCollected, b.TipsCollected, b.TxCount, b.FailedTxCount
	return c
}

// freshBundle is the reference for ExecuteBundle: each transaction runs
// through ExecuteTx into a result of its own, and a failure restores the
// state and counters the bank held before the bundle.
func freshBundle(b *Bank, txs []*solana.Transaction) ([]*TxResult, bool) {
	before := b.counters()
	b.Checkpoint()
	var out []*TxResult
	for _, tx := range txs {
		res, err := b.ExecuteTx(tx)
		if err != nil || res.Err != nil {
			b.Rollback()
			b.FeesCollected, b.TipsCollected, b.TxCount, b.FailedTxCount =
				before.fees, before.tips, before.txs, before.failedTx
			return nil, false
		}
		out = append(out, res)
	}
	b.Commit()
	return out, true
}

// sameState reports where two banks' balances or reserves differ.
func sameState(a, b *Bank) error {
	la, ta, pa := a.flatState()
	lb, tb, pb := b.flatState()
	for k := range la {
		if la[k] != lb[k] {
			return fmt.Errorf("lamports[%s] %d != %d", k.Short(), la[k], lb[k])
		}
	}
	for k := range lb {
		if la[k] != lb[k] {
			return fmt.Errorf("lamports[%s] %d != %d", k.Short(), la[k], lb[k])
		}
	}
	for k := range ta {
		if ta[k] != tb[k] {
			return fmt.Errorf("tokens[%s/%s] %d != %d", k.Owner.Short(), k.Mint.Short(), ta[k], tb[k])
		}
	}
	for k := range tb {
		if ta[k] != tb[k] {
			return fmt.Errorf("tokens[%s/%s] %d != %d", k.Owner.Short(), k.Mint.Short(), ta[k], tb[k])
		}
	}
	for k, p := range pa {
		if q := pb[k]; p.ReserveA != q.ReserveA || p.ReserveB != q.ReserveB {
			return fmt.Errorf("pool %s reserves differ", k.Short())
		}
	}
	return nil
}

// TestBundleResultsMatchFreshExecution: the results ExecuteBundle reuses
// equal fresh ExecuteTx results, transaction by transaction, on a clone
// taken before the bundle. Failed bundles — an instruction failing, or a
// payer who cannot cover the fee — leave both banks' state and counters
// where they were.
func TestBundleResultsMatchFreshExecution(t *testing.T) {
	w := newModelWorld(21)
	pauper := solana.NewKeypairFromSeed("reuse/pauper")
	committed, failed := 0, 0
	for step := 0; step < 600; step++ {
		txs := make([]*solana.Transaction, 1+w.rng.Intn(4))
		for i := range txs {
			txs[i] = w.tx()
			if w.rng.Intn(12) == 0 {
				w.nonce++
				txs[i] = solana.NewTransaction(pauper, w.nonce, 0, &solana.Memo{Data: []byte("x")})
			}
		}
		ref := w.bank.clone()
		before := w.bank.counters()
		want, ok := freshBundle(ref, txs)
		got, err := w.bank.ExecuteBundle(txs)
		if ok != (err == nil) {
			t.Fatalf("step %d: ExecuteBundle err %v, fresh execution committed %v", step, err, ok)
		}
		if ok {
			committed++
			if len(got) != len(want) {
				t.Fatalf("step %d: %d results, want %d", step, len(got), len(want))
			}
			for i := range want {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("step %d tx %d: reused result\n%+v\nfresh\n%+v", step, i, got[i], want[i])
				}
			}
		} else {
			failed++
			if got != nil {
				t.Fatalf("step %d: failed bundle returned %d results", step, len(got))
			}
			if c := w.bank.counters(); c != before {
				t.Fatalf("step %d: failed bundle moved counters %+v -> %+v", step, before, c)
			}
		}
		if c, r := w.bank.counters(), ref.counters(); c != r {
			t.Fatalf("step %d: counters %+v, fresh %+v", step, c, r)
		}
		if err := sameState(w.bank, ref); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	if committed < 100 || failed < 100 {
		t.Fatalf("%d bundles committed and %d failed: the mix no longer covers both", committed, failed)
	}
}

// TestExecuteBundleAllocatesOnlyTokenDeltas pins steady-state bundle
// execution: a sandwich plus a tip-only transaction allocates the token
// deltas of its three swaps and nothing else.
func TestExecuteBundleAllocatesOnlyTokenDeltas(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	f := newFixture(t)
	for _, kp := range []*solana.Keypair{f.alice, f.bob} {
		f.bank.CreditLamports(kp.Pubkey(), 1<<50)
		f.bank.MintTo(kp.Pubkey(), token.SOL.Address, 1<<55)
		f.bank.MintTo(kp.Pubkey(), f.meme.Address, 1<<55)
	}
	txs := []*solana.Transaction{
		solana.NewTransaction(f.alice, 1, 0,
			&solana.Swap{Pool: f.pool.Address, InputMint: token.SOL.Address, AmountIn: 1_000_000}),
		solana.NewTransaction(f.bob, 1, 0,
			&solana.Swap{Pool: f.pool.Address, InputMint: token.SOL.Address, AmountIn: 5_000_000}),
		solana.NewTransaction(f.alice, 2, 0,
			&solana.Swap{Pool: f.pool.Address, InputMint: f.meme.Address, AmountIn: 900_000}),
		solana.NewTransaction(f.alice, 3, 0, &solana.Tip{TipAccount: f.tip, Amount: 10_000}),
	}
	n := testing.AllocsPerRun(100, func() {
		if _, err := f.bank.ExecuteBundle(txs); err != nil {
			t.Fatal(err)
		}
	})
	if n != 3 {
		t.Errorf("ExecuteBundle allocates %v times per sandwich-and-tip bundle, want 3 (the swaps' token deltas)", n)
	}
}
