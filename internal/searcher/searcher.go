// Package searcher implements the attacker side of the measurement: MEV
// bots that watch pending transactions (through whatever mempool
// visibility they have), size a front-run against each victim's slippage
// tolerance, and submit three-transaction Jito bundles that execute the
// sandwich atomically.
//
// The bot's tip policy reflects the paper's Figure 4 finding: attackers
// bid a substantial share of expected profit as the Jito tip (median
// sandwich tip >2,000,000 lamports, three orders of magnitude above the
// median length-3 bundle) to win the ordering auction against competing
// attackers.
package searcher

import (
	"math/rand"

	"jitomev/internal/amm"
	"jitomev/internal/jito"
	"jitomev/internal/ledger"
	"jitomev/internal/mempool"
	"jitomev/internal/solana"
)

// Attack is the simulation-side ground-truth record of one submitted
// sandwich bundle, used to score the detector.
type Attack struct {
	BundleID      jito.BundleID
	VictimSig     solana.Signature
	PlannedProfit int64 // lamport-equivalent planned trade profit
	TipLamports   solana.Lamports
	Disguised     bool // padded with an extra transaction to evade A-B-A detectors
}

// Sandwicher is one attacking searcher.
type Sandwicher struct {
	Keys *solana.Keypair
	// Coverage is the fraction of private-mempool traffic this searcher
	// observes (ignored under public visibility).
	Coverage float64
	// Budget is the maximum wSOL (base units) risked per front-run.
	Budget uint64
	// MinProfit is the lamport profit floor, net of tip, below which the
	// bot passes on an opportunity.
	MinProfit int64
	// TipShare is the mean fraction of planned profit bid as the Jito
	// tip; the realized tip is jittered per attack.
	TipShare float64
	// DisguiseRate is the probability of appending a decoy transaction,
	// turning the bundle into length 4 — invisible to the paper's
	// length-3 detector (its acknowledged lower-bound gap).
	DisguiseRate float64

	// DumpRate is the probability the back-run also liquidates held
	// inventory: the bot sells more tokens than the front-run bought,
	// riding the victim's price impact. This is the paper's footnote-7
	// observation ("the attacker sells more in the last transaction of
	// the Sandwich than what they bought in the first") and the reason
	// measured attacker gains exceed measured victim losses.
	DumpRate float64
	// DumpMax bounds the extra inventory sold, as a fraction of the
	// front-run output.
	DumpMax float64

	// PriceOf converts one base unit of a mint to lamports, for sizing
	// tips on sandwiches whose input side is not SOL (the paper's 28%
	// of attacks with no SOL leg). Nil treats profits as lamports.
	PriceOf func(mint solana.Pubkey) float64

	// Preflight dry-runs each attack bundle through the block engine's
	// Simulate (Jito's simulateBundle equivalent) before claiming the
	// victim; plans invalidated by pool state that moved since quoting
	// are dropped instead of submitted and atomically rejected.
	Preflight bool

	rng   *rand.Rand
	nonce uint64
}

// New creates a sandwicher with its own deterministic randomness stream.
func New(seed string, coverage float64, budget uint64, minProfit int64, tipShare float64, rng *rand.Rand) *Sandwicher {
	return &Sandwicher{
		Keys:      solana.NewKeypairFromSeed("searcher/" + seed),
		Coverage:  coverage,
		Budget:    budget,
		MinProfit: minProfit,
		TipShare:  tipShare,
		rng:       rand.New(rand.NewSource(rng.Int63())),
	}
}

func (s *Sandwicher) nextNonce() uint64 {
	s.nonce++
	return s.nonce
}

// victimSwap extracts the first swap instruction of a pending transaction,
// or nil if it has none (nothing to sandwich).
func victimSwap(tx *solana.Transaction) *solana.Swap {
	for _, in := range tx.Instructions {
		if sw, ok := in.(*solana.Swap); ok {
			return sw
		}
	}
	return nil
}

// Scan observes the mempool, plans sandwiches against every visible
// profitable victim, claims those victims out of the pool, and submits the
// attack bundles. It returns ground-truth records for each submitted
// bundle.
//
// Scan is the simulated analogue of the continuous loop a real searcher
// runs against its private mempool feed.
func (s *Sandwicher) Scan(mp *mempool.Pool, bank *ledger.Bank, engine *jito.BlockEngine) []Attack {
	var attacks []Attack
	for _, pd := range mp.Observe(s.Keys.Pubkey(), s.Coverage) {
		sw := victimSwap(pd.Tx)
		if sw == nil {
			continue
		}
		pool, ok := bank.PoolSnapshot(sw.Pool)
		if !ok {
			continue
		}
		plan, ok := amm.PlanSandwich(&pool, sw.InputMint, sw.AmountIn, sw.MinOut, s.Budget)
		if !ok {
			continue
		}
		profitLamports := plan.Profit
		if s.PriceOf != nil {
			if px := s.PriceOf(sw.InputMint); px > 0 {
				profitLamports = int64(float64(plan.Profit) * px)
			}
		}
		tip := s.tipFor(profitLamports)
		if profitLamports-int64(tip) < s.MinProfit {
			continue
		}
		bundle, disguised := s.buildBundle(sw, plan, pd.Tx, tip)
		if s.Preflight {
			if _, err := engine.Simulate(bundle); err != nil {
				continue // plan went stale; victim stays in the pool
			}
		}
		// Claim the victim: it will ride inside our bundle instead of
		// landing natively.
		if !mp.Remove(pd.Tx.Sig) {
			continue // another searcher got there first
		}
		if err := engine.Submit(bundle); err != nil {
			continue
		}
		attacks = append(attacks, Attack{
			BundleID:      bundle.ID(),
			VictimSig:     pd.Tx.Sig,
			PlannedProfit: profitLamports,
			TipLamports:   tip,
			Disguised:     disguised,
		})
	}
	return attacks
}

// tipFor converts planned profit into a tip bid: a jittered share of
// profit, floored at the Jito minimum and capped below the profit itself
// so the attack stays rational.
func (s *Sandwicher) tipFor(profit int64) solana.Lamports {
	share := s.TipShare * (0.6 + 0.8*s.rng.Float64()) // ±40% jitter
	tip := int64(float64(profit) * share)
	if tip < int64(solana.MinJitoTip) {
		tip = int64(solana.MinJitoTip)
	}
	if tip >= profit {
		tip = profit - 1
	}
	if tip < int64(solana.MinJitoTip) {
		tip = int64(solana.MinJitoTip)
	}
	return solana.Lamports(tip)
}

// buildBundle assembles [front-run, victim, back-run] and, with
// probability DisguiseRate, appends a decoy memo transaction.
func (s *Sandwicher) buildBundle(sw *solana.Swap, plan amm.Plan, victim *solana.Transaction, tip solana.Lamports) (*jito.Bundle, bool) {
	tipAcct := jito.TipAccounts[s.rng.Intn(jito.NumTipAccounts)]
	front := solana.NewTransaction(s.Keys, s.nextNonce(), 0,
		&solana.Swap{Pool: sw.Pool, InputMint: sw.InputMint, AmountIn: plan.FrontrunIn},
		&solana.Tip{TipAccount: tipAcct, Amount: tip},
	)
	backIn := plan.BackrunIn
	// Inventory dumps only happen when the back-run SELLS tokens for the
	// quote currency (buy-side sandwich): the bot liquidates held tokens
	// at the victim-elevated price. On sell-side sandwiches the back-run
	// spends quote currency, and no rational bot spends extra there.
	buySide := s.PriceOf == nil || s.PriceOf(sw.InputMint) == 1
	if buySide && s.DumpRate > 0 && s.rng.Float64() < s.DumpRate {
		backIn += uint64(float64(plan.BackrunIn) * s.DumpMax * s.rng.Float64())
	}
	back := solana.NewTransaction(s.Keys, s.nextNonce(), 0,
		&solana.Swap{Pool: sw.Pool, InputMint: plan.OutputMint, AmountIn: backIn},
	)

	txs := []*solana.Transaction{front, victim, back}
	disguised := s.rng.Float64() < s.DisguiseRate
	if disguised {
		decoy := solana.NewTransaction(s.Keys, s.nextNonce(), 0,
			&solana.Memo{Data: []byte("gm")})
		txs = append(txs, decoy)
	}
	return jito.NewBundle(txs...), disguised
}
