package ledger

import (
	"fmt"

	"jitomev/internal/solana"
)

// tracker records pre-images of every balance a transaction touches so the
// TxResult can report net deltas, mirroring Solana's pre/postTokenBalances.
// A transaction touches a handful of balances, so the pre-images live in
// short slices searched linearly; (account, mint) pairs are unique within
// each.
type tracker struct {
	preLamports []lamportUndo
	preTokens   []tokenUndo
}

// openTracker starts tracking a transaction, reusing a finished tracker
// when one is free.
func (b *Bank) openTracker() *tracker {
	n := len(b.freeTrackers)
	if n == 0 {
		return new(tracker)
	}
	t := b.freeTrackers[n-1]
	b.freeTrackers = b.freeTrackers[:n-1]
	t.preLamports = t.preLamports[:0]
	t.preTokens = t.preTokens[:0]
	return t
}

func (t *tracker) touchLamports(a *account) {
	for i := range t.preLamports {
		if t.preLamports[i].acct == a {
			return
		}
	}
	t.preLamports = append(t.preLamports, lamportUndo{a, a.lamports})
}

func (t *tracker) touchToken(a *account, m int32) {
	for i := range t.preTokens {
		if t.preTokens[i].acct == a && t.preTokens[i].mint == m {
			return
		}
	}
	t.preTokens = append(t.preTokens, tokenUndo{a, m, a.tokens[m]})
}

// finish computes net deltas against the tracked pre-images, appending
// the lamport deltas to res.LamportDeltas. Ordering is deterministic:
// sorted by account/owner then mint.
func (t *tracker) finish(b *Bank, res *TxResult) {
	for _, p := range t.preLamports {
		if d := int64(p.acct.lamports) - int64(p.old); d != 0 {
			if res.LamportDeltas == nil {
				res.LamportDeltas = make([]LamportDelta, 0, len(t.preLamports))
			}
			res.LamportDeltas = append(res.LamportDeltas, LamportDelta{Account: p.acct.key, Delta: d})
		}
	}
	// The token deltas go to the explorer's detail record as they are
	// (jito.DetailFromResult shares the array), so size it exactly.
	moved := 0
	for _, p := range t.preTokens {
		if p.acct.tokens[p.mint] != p.old {
			moved++
		}
	}
	if moved > 0 {
		res.TokenDeltas = make([]TokenDelta, 0, moved)
		for _, p := range t.preTokens {
			if d := int64(p.acct.tokens[p.mint]) - int64(p.old); d != 0 {
				res.TokenDeltas = append(res.TokenDeltas, TokenDelta{Owner: p.acct.key, Mint: b.mintKeys[p.mint], Delta: d})
			}
		}
	}
	sortLamportDeltas(res.LamportDeltas)
	sortTokenDeltas(res.TokenDeltas)
}

func sortLamportDeltas(ds []LamportDelta) {
	for i := 1; i < len(ds); i++ {
		for j := i; j > 0 && lessBytes32(ds[j].Account, ds[j-1].Account); j-- {
			ds[j], ds[j-1] = ds[j-1], ds[j]
		}
	}
}

func sortTokenDeltas(ds []TokenDelta) {
	for i := 1; i < len(ds); i++ {
		for j := i; j > 0 && tokenDeltaLess(ds[j], ds[j-1]); j-- {
			ds[j], ds[j-1] = ds[j-1], ds[j]
		}
	}
}

func tokenDeltaLess(a, b TokenDelta) bool {
	if a.Owner != b.Owner {
		return lessBytes32(a.Owner, b.Owner)
	}
	return lessBytes32(a.Mint, b.Mint)
}

func lessBytes32(a, b solana.Pubkey) bool {
	for i := 0; i < 32; i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// ExecuteTx validates and executes one transaction against the bank.
//
// Fee semantics follow Solana: if the signer cannot cover the fee the
// transaction is rejected outright (no state change, error returned). If
// the fee clears but an instruction fails, the instruction effects are
// rolled back, the fee is kept, and the failure is reported in
// TxResult.Err — the transaction still "lands" on chain as failed.
//
// The result is the caller's to keep.
func (b *Bank) ExecuteTx(tx *solana.Transaction) (*TxResult, error) {
	res := new(TxResult)
	if err := b.execute(tx, res); err != nil {
		return nil, err
	}
	return res, nil
}

// execute runs tx into res. res.LamportDeltas and res.Swaps may hold
// empty slices whose backing arrays execution appends to; every other
// field is overwritten.
func (b *Bank) execute(tx *solana.Transaction, res *TxResult) error {
	if err := tx.Validate(); err != nil {
		return err
	}
	fee := tx.Fee()
	payer := b.accounts[tx.Signer]
	var bal solana.Lamports
	if payer != nil {
		bal = payer.lamports
	}
	if bal < fee {
		return fmt.Errorf("%w: fee %d > balance %d", ErrInsufficientLamports, fee, bal)
	}
	if payer == nil {
		payer = b.account(tx.Signer)
	}

	*res = TxResult{
		Sig: tx.Sig, Signer: tx.Signer, Fee: fee, TipOnly: tx.IsTipOnly(),
		LamportDeltas: res.LamportDeltas, Swaps: res.Swaps,
	}

	prevTracker, t := b.tracker, b.openTracker()
	b.tracker = t
	defer func() {
		b.tracker = prevTracker
		b.freeTrackers = append(b.freeTrackers, t)
	}()

	// Charge the fee first; it survives instruction failure.
	b.setLamports(payer, payer.lamports-fee)
	b.FeesCollected += fee

	b.Checkpoint()
	var execErr error
	for _, in := range tx.Instructions {
		if execErr = b.applyInstruction(payer, in, res); execErr != nil {
			break
		}
	}
	if execErr != nil {
		b.Rollback()
		res.Err = execErr
		// The rollback took back the tips too.
		b.TipsCollected -= res.Tip
		res.Tip = 0
		b.FailedTxCount++
	} else {
		b.Commit()
	}
	b.TxCount++

	t.finish(b, res)
	return nil
}

func (b *Bank) applyInstruction(payer *account, in solana.Instruction, res *TxResult) error {
	switch v := in.(type) {
	case *solana.Transfer:
		if v.From != payer.key {
			return ErrNotSigner
		}
		if payer.lamports < v.Amount {
			return fmt.Errorf("%w: transfer %d > balance %d",
				ErrInsufficientLamports, v.Amount, payer.lamports)
		}
		to := b.account(v.To)
		b.setLamports(payer, payer.lamports-v.Amount)
		b.setLamports(to, to.lamports+v.Amount)
		return nil

	case *solana.Tip:
		if payer.lamports < v.Amount {
			return fmt.Errorf("%w: tip %d > balance %d",
				ErrInsufficientLamports, v.Amount, payer.lamports)
		}
		to := b.account(v.TipAccount)
		b.setLamports(payer, payer.lamports-v.Amount)
		b.setLamports(to, to.lamports+v.Amount)
		b.TipsCollected += v.Amount
		res.Tip += v.Amount
		return nil

	case *solana.Swap:
		pool, ok := b.pools[v.Pool]
		if !ok {
			return ErrUnknownPool
		}
		inMint := b.mintIndex(v.InputMint)
		if bal := payer.balance(inMint); bal < v.AmountIn {
			return fmt.Errorf("%w: swap in %d > balance %d",
				ErrInsufficientTokens, v.AmountIn, bal)
		}
		outMint, err := pool.OtherMint(v.InputMint)
		if err != nil {
			return err
		}
		b.poolWrite(pool)
		out, err := pool.Swap(v.InputMint, v.AmountIn, v.MinOut)
		if err != nil {
			return err
		}
		outIdx := b.mintIndex(outMint)
		b.setToken(payer, inMint, payer.balance(inMint)-v.AmountIn)
		b.setToken(payer, outIdx, payer.balance(outIdx)+out)
		res.Swaps = append(res.Swaps, SwapEffect{
			Pool:       v.Pool,
			InputMint:  v.InputMint,
			OutputMint: outMint,
			AmountIn:   v.AmountIn,
			AmountOut:  out,
		})
		return nil

	case *solana.Memo:
		return nil
	}
	return fmt.Errorf("ledger: unknown instruction %T", in)
}

// resultSlot is one reusable ExecuteBundle result, with the backing
// arrays its LamportDeltas and Swaps append to.
type resultSlot struct {
	res      TxResult
	lamports []LamportDelta
	swaps    []SwapEffect
}

// ExecuteBundle executes transactions atomically in order: if any
// transaction fails — validation, fees, or any instruction — every effect
// of the bundle is rolled back and an error is returned. This is Jito's
// guarantee, and precisely what removes the attacker's risk (paper §3.3:
// "if the victim's transaction fails within the bundle, the attacker's
// transactions within that bundle do not execute").
//
// The results, and their LamportDeltas and Swaps, belong to the bank: they
// stay valid until the next ExecuteTx or ExecuteBundle call, which reuses
// them. Each result's TokenDeltas is freshly allocated and may be kept.
func (b *Bank) ExecuteBundle(txs []*solana.Transaction) ([]*TxResult, error) {
	if n := len(txs); n > len(b.slots) {
		b.slots = append(b.slots, make([]resultSlot, n-len(b.slots))...)
	}
	b.results = b.results[:0]
	b.Checkpoint()
	for i, tx := range txs {
		s := &b.slots[i]
		s.res.LamportDeltas, s.res.Swaps = s.lamports[:0], s.swaps[:0]
		err := b.execute(tx, &s.res)
		landed := err == nil
		if landed {
			s.lamports, s.swaps = s.res.LamportDeltas, s.res.Swaps
			// A fresh result holds nil, not an empty slice, where
			// nothing moved.
			if len(s.res.LamportDeltas) == 0 {
				s.res.LamportDeltas = nil
			}
			if len(s.res.Swaps) == 0 {
				s.res.Swaps = nil
			}
			err = s.res.Err
		}
		if err != nil {
			b.Rollback()
			// The failed transactions never land: undo the counters too.
			b.TxCount -= uint64(len(b.results))
			for _, r := range b.results {
				b.FeesCollected -= r.Fee
				b.TipsCollected -= r.Tip
			}
			if landed {
				// It landed as failed: counted, charged, its tip zeroed.
				b.TxCount--
				b.FeesCollected -= s.res.Fee
				b.FailedTxCount--
			}
			b.results = b.results[:0]
			return nil, fmt.Errorf("ledger: bundle tx %d (%s): %w", i, tx.Sig.Short(), err)
		}
		b.results = append(b.results, &s.res)
	}
	b.Commit()
	return b.results, nil
}
