package core

import (
	"jitomev/internal/jito"
	"jitomev/internal/solana"
)

// This file exports the detector's trade-extraction primitives for
// consumers that detect across bundle boundaries (internal/stream's
// cross-block stage): the per-transaction clean-trade view and the
// canonical unordered mint pair that keys a trading pool.

// Trade is one transaction's clean two-mint balance effect for its
// signer: exactly one mint out, one mint in — the shape every criterion
// of the paper's methodology is defined over.
type Trade struct {
	Signer       solana.Pubkey
	Sold         solana.Pubkey // mint with negative delta
	Bought       solana.Pubkey // mint with positive delta
	SoldAmount   uint64
	BoughtAmount uint64
}

// ExtractTrade extracts the signer's trade from a transaction detail,
// reporting false when the transaction has no clean two-mint trade
// (no deltas, one-sided transfers, or more than two mints touched).
func ExtractTrade(d *jito.TxDetail) (Trade, bool) {
	tr := tradeOf(d)
	if !tr.ok {
		return Trade{}, false
	}
	return Trade{
		Signer:       tr.signer,
		Sold:         tr.sold,
		Bought:       tr.bought,
		SoldAmount:   tr.soldAmt,
		BoughtAmount: tr.boughtAm,
	}, true
}

// Opposes reports whether the other trade runs the same pair in the
// opposite direction — the shape of a position-closing back-run.
func (t Trade) Opposes(o Trade) bool {
	return t.Sold == o.Bought && t.Bought == o.Sold
}

// SameDirection reports whether the other trade runs the same pair the
// same way — the shape of a front-run relative to its victim.
func (t Trade) SameDirection(o Trade) bool {
	return t.Sold == o.Sold && t.Bought == o.Bought
}

// MintPair is an unordered mint pair — the identity of a trading pool as
// the balance-delta view resolves it.
type MintPair struct{ A, B solana.Pubkey }

// PairOf canonicalizes two mints into a MintPair (byte order).
func PairOf(x, y solana.Pubkey) MintPair {
	if lessKey(x, y) {
		return MintPair{x, y}
	}
	return MintPair{y, x}
}

// Pair returns the trade's canonical pool identity.
func (t Trade) Pair() MintPair { return PairOf(t.Sold, t.Bought) }
