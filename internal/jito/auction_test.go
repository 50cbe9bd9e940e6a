package jito

import (
	"testing"

	"jitomev/internal/solana"
	"jitomev/internal/token"
)

// Auction-interaction tests: the tip ordering is not cosmetic — it decides
// which of two competing attackers lands, and executing first can break a
// later bundle's slippage floors. This is exactly why Figure 4 shows
// attackers tipping three orders of magnitude above benign bundles.

func TestCompetingSandwichersHigherTipWins(t *testing.T) {
	f := newFixture(t)
	carol := solana.NewKeypairFromSeed("carol")
	f.bank.CreditLamports(carol.Pubkey(), 100*solana.LamportsPerSOL)
	f.bank.MintTo(carol.Pubkey(), token.SOL.Address, 1e12)
	f.bank.MintTo(carol.Pubkey(), f.meme.Address, 1e12)

	victimIn := uint64(50_000_000_000) // 5% of the pool
	quote, _ := f.pool.QuoteOut(token.SOL.Address, victimIn)
	minOut := quote * 9_700 / 10_000 // 3% tolerance

	// Both attackers target the same victim trade. Each submits a bundle
	// containing its own copy of the victim's swap (only one can land:
	// the second bundle's victim swap will face a moved pool and fail
	// its MinOut).
	mkAttack := func(atk *solana.Keypair, frontrun uint64, tip solana.Lamports, victimNonce uint64) *Bundle {
		victim := solana.NewTransaction(f.bob, victimNonce, 0,
			&solana.Swap{Pool: f.pool.Address, InputMint: token.SOL.Address,
				AmountIn: victimIn, MinOut: minOut})
		front := solana.NewTransaction(atk, 1, 0,
			&solana.Swap{Pool: f.pool.Address, InputMint: token.SOL.Address, AmountIn: frontrun},
			&solana.Tip{TipAccount: TipAccounts[0], Amount: tip})
		back := solana.NewTransaction(atk, 2, 0,
			&solana.Swap{Pool: f.pool.Address, InputMint: f.meme.Address, AmountIn: frontrun / 2})
		return NewBundle(front, victim, back)
	}

	// Note: both bundles embed the *same* victim intent but as separate
	// transactions (different nonces) — on the real chain it is the same
	// transaction and the second bundle fails on duplicate execution; in
	// either modeling, only one attack extracts value.
	low := mkAttack(f.alice, 10_000_000_000, 100_000, 1)
	high := mkAttack(carol, 10_000_000_000, 5_000_000, 2)

	if err := f.engine.Submit(low); err != nil {
		t.Fatal(err)
	}
	if err := f.engine.Submit(high); err != nil {
		t.Fatal(err)
	}
	acc := f.engine.ProcessSlot(1)

	if len(acc) != 1 {
		t.Fatalf("%d bundles landed, want exactly 1 (loser must fail atomically)", len(acc))
	}
	if acc[0].Details[0].Signer != carol.Pubkey() {
		t.Error("the higher-tipping attacker did not win the auction")
	}
	if f.engine.Stats.RejectedExec != 1 {
		t.Errorf("RejectedExec = %d", f.engine.Stats.RejectedExec)
	}
	// The losing attacker paid nothing: atomic rejection refunds all.
	if got := f.bank.Lamports(f.alice.Pubkey()); got != 100*solana.LamportsPerSOL {
		t.Errorf("losing attacker balance changed: %d", got)
	}
}

func TestTipTieBreaksBySubmissionOrder(t *testing.T) {
	f := newFixture(t)
	b1 := NewBundle(f.swapTx(f.alice, 1, 1e6, 7_777))
	b2 := NewBundle(f.swapTx(f.bob, 1, 1e6, 7_777))
	f.engine.Submit(b1)
	f.engine.Submit(b2)
	acc := f.engine.ProcessSlot(1)
	if len(acc) != 2 {
		t.Fatal("both bundles should land")
	}
	if acc[0].Record.ID != b1.ID() {
		t.Error("equal tips must preserve submission order (stable sort)")
	}
}

func TestPendingBundlesCarryAcrossSlots(t *testing.T) {
	f := newFixture(t)
	f.engine.Submit(NewBundle(f.swapTx(f.alice, 1, 1e6, 1_000)))
	if got := f.engine.ProcessSlot(1); len(got) != 1 {
		t.Fatal("first slot did not process")
	}
	// Nothing pending: later slots are empty, seq does not advance.
	if got := f.engine.ProcessSlot(2); got != nil {
		t.Fatal("empty slot produced bundles")
	}
	f.engine.Submit(NewBundle(f.swapTx(f.alice, 2, 1e6, 1_000)))
	acc := f.engine.ProcessSlot(3)
	if len(acc) != 1 || acc[0].Record.Seq != 2 {
		t.Fatalf("seq should be 2, got %+v", acc[0].Record.Seq)
	}
}

// TestProcessSlotKeepsQueueArray: a slot that runs the whole queue keeps
// the queue's backing array for the next slot's Submits and drops its
// references to the processed bundles.
func TestProcessSlotKeepsQueueArray(t *testing.T) {
	f := newFixture(t)
	f.engine.Submit(NewBundle(f.swapTx(f.alice, 1, 1e6, 1_000)))
	f.engine.Submit(NewBundle(f.swapTx(f.alice, 2, 1e6, 2_000)))
	if got := f.engine.ProcessSlot(1); len(got) != 2 {
		t.Fatalf("landed %d bundles, want 2", len(got))
	}
	if n := f.engine.PendingCount(); n != 0 {
		t.Fatalf("%d bundles still pending", n)
	}
	queue := f.engine.pending[:cap(f.engine.pending)]
	if len(queue) < 2 {
		t.Fatalf("the queue kept %d entries of backing array, want 2", len(queue))
	}
	for i, pb := range queue {
		if pb.bundle != nil {
			t.Fatalf("processed entry %d still holds its bundle", i)
		}
	}
	f.engine.Submit(NewBundle(f.swapTx(f.alice, 3, 1e6, 1_000)))
	if &f.engine.pending[0] != &queue[0] {
		t.Error("the next slot's first Submit allocated a new queue")
	}
}
