package ledger

import (
	"fmt"

	"jitomev/internal/solana"
)

// tracker records pre-images of every balance a transaction touches so the
// TxResult can report net deltas, mirroring Solana's pre/postTokenBalances.
// A transaction touches a handful of balances, so the pre-images live in
// short slices searched linearly; keys are unique within each.
type tracker struct {
	preLamports []lamportUndo
	preTokens   []tokenUndo
	swaps       []SwapEffect
}

// openTracker starts tracking a transaction, reusing a finished tracker
// when one is free. swaps starts nil: the previous result kept its slice.
func (b *Bank) openTracker() *tracker {
	n := len(b.freeTrackers)
	if n == 0 {
		return new(tracker)
	}
	t := b.freeTrackers[n-1]
	b.freeTrackers = b.freeTrackers[:n-1]
	t.preLamports = t.preLamports[:0]
	t.preTokens = t.preTokens[:0]
	t.swaps = nil
	return t
}

func (t *tracker) touchLamports(b *Bank, k solana.Pubkey) {
	for i := range t.preLamports {
		if t.preLamports[i].key == k {
			return
		}
	}
	t.preLamports = append(t.preLamports, lamportUndo{k, b.lamports[k]})
}

func (t *tracker) touchToken(b *Bank, k TokenKey) {
	for i := range t.preTokens {
		if t.preTokens[i].key == k {
			return
		}
	}
	t.preTokens = append(t.preTokens, tokenUndo{k, b.tokens[k]})
}

// finish computes net deltas against the tracked pre-images. Ordering is
// deterministic: sorted by account/owner then mint.
func (t *tracker) finish(b *Bank, res *TxResult) {
	for _, p := range t.preLamports {
		d := int64(b.lamports[p.key]) - int64(p.old)
		if d != 0 {
			if res.LamportDeltas == nil {
				res.LamportDeltas = make([]LamportDelta, 0, len(t.preLamports))
			}
			res.LamportDeltas = append(res.LamportDeltas, LamportDelta{Account: p.key, Delta: d})
		}
	}
	// The token deltas go to the explorer's detail record as they are
	// (jito.DetailFromResult shares the array), so size it exactly.
	moved := 0
	for _, p := range t.preTokens {
		if b.tokens[p.key] != p.old {
			moved++
		}
	}
	if moved > 0 {
		res.TokenDeltas = make([]TokenDelta, 0, moved)
		for _, p := range t.preTokens {
			if d := int64(b.tokens[p.key]) - int64(p.old); d != 0 {
				res.TokenDeltas = append(res.TokenDeltas, TokenDelta{Owner: p.key.Owner, Mint: p.key.Mint, Delta: d})
			}
		}
	}
	sortLamportDeltas(res.LamportDeltas)
	sortTokenDeltas(res.TokenDeltas)
	res.Swaps = t.swaps
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
func (b *Bank) ExecuteTx(tx *solana.Transaction) (*TxResult, error) {
	if err := tx.Validate(); err != nil {
		return nil, err
	}
	fee := tx.Fee()
	if b.lamports[tx.Signer] < fee {
		return nil, fmt.Errorf("%w: fee %d > balance %d",
			ErrInsufficientLamports, fee, b.lamports[tx.Signer])
	}

	res := &TxResult{Sig: tx.Sig, Signer: tx.Signer, Fee: fee, TipOnly: tx.IsTipOnly()}

	prevTracker, t := b.tracker, b.openTracker()
	b.tracker = t
	defer func() {
		b.tracker = prevTracker
		b.freeTrackers = append(b.freeTrackers, t)
	}()

	// Charge the fee first; it survives instruction failure.
	b.setLamports(tx.Signer, b.lamports[tx.Signer]-fee)
	b.FeesCollected += fee

	b.Checkpoint()
	var execErr error
	for _, in := range tx.Instructions {
		if execErr = b.applyInstruction(tx.Signer, in, res); execErr != nil {
			break
		}
	}
	if execErr != nil {
		b.Rollback()
		res.Err = execErr
		res.Tip = 0
		b.FailedTxCount++
	} else {
		b.Commit()
	}
	b.TxCount++

	t.finish(b, res)
	return res, nil
}

func (b *Bank) applyInstruction(signer solana.Pubkey, in solana.Instruction, res *TxResult) error {
	switch v := in.(type) {
	case *solana.Transfer:
		if v.From != signer {
			return ErrNotSigner
		}
		if b.lamports[v.From] < v.Amount {
			return fmt.Errorf("%w: transfer %d > balance %d",
				ErrInsufficientLamports, v.Amount, b.lamports[v.From])
		}
		b.setLamports(v.From, b.lamports[v.From]-v.Amount)
		b.setLamports(v.To, b.lamports[v.To]+v.Amount)
		return nil

	case *solana.Tip:
		if b.lamports[signer] < v.Amount {
			return fmt.Errorf("%w: tip %d > balance %d",
				ErrInsufficientLamports, v.Amount, b.lamports[signer])
		}
		b.setLamports(signer, b.lamports[signer]-v.Amount)
		b.setLamports(v.TipAccount, b.lamports[v.TipAccount]+v.Amount)
		b.TipsCollected += v.Amount
		res.Tip += v.Amount
		return nil

	case *solana.Swap:
		pool, ok := b.pools[v.Pool]
		if !ok {
			return ErrUnknownPool
		}
		inKey := TokenKey{Owner: signer, Mint: v.InputMint}
		if b.tokens[inKey] < v.AmountIn {
			return fmt.Errorf("%w: swap in %d > balance %d",
				ErrInsufficientTokens, v.AmountIn, b.tokens[inKey])
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
		outKey := TokenKey{Owner: signer, Mint: outMint}
		b.setToken(inKey, b.tokens[inKey]-v.AmountIn)
		b.setToken(outKey, b.tokens[outKey]+out)
		if b.tracker != nil {
			b.tracker.swaps = append(b.tracker.swaps, SwapEffect{
				Pool:       v.Pool,
				InputMint:  v.InputMint,
				OutputMint: outMint,
				AmountIn:   v.AmountIn,
				AmountOut:  out,
			})
		}
		return nil

	case *solana.Memo:
		return nil
	}
	return fmt.Errorf("ledger: unknown instruction %T", in)
}

// ExecuteBundle executes transactions atomically in order: if any
// transaction fails — validation, fees, or any instruction — every effect
// of the bundle is rolled back and an error is returned. This is Jito's
// guarantee, and precisely what removes the attacker's risk (paper §3.3:
// "if the victim's transaction fails within the bundle, the attacker's
// transactions within that bundle do not execute").
func (b *Bank) ExecuteBundle(txs []*solana.Transaction) ([]*TxResult, error) {
	b.Checkpoint()
	results := make([]*TxResult, 0, len(txs))
	for i, tx := range txs {
		res, err := b.ExecuteTx(tx)
		if err == nil && res.Err != nil {
			err = res.Err
		}
		if err != nil {
			b.Rollback()
			// The failed transactions never land: undo the counters too.
			b.TxCount -= uint64(len(results))
			for _, r := range results {
				b.FeesCollected -= r.Fee
				b.TipsCollected -= r.Tip
			}
			if res != nil {
				b.TxCount--
				b.FeesCollected -= res.Fee
				if res.Err != nil {
					b.FailedTxCount--
				}
			}
			return nil, fmt.Errorf("ledger: bundle tx %d (%s): %w", i, tx.Sig.Short(), err)
		}
		results = append(results, res)
	}
	b.Commit()
	return results, nil
}
