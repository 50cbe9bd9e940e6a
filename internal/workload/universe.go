package workload

import (
	"fmt"
	"math"
	"math/rand"

	"jitomev/internal/amm"
	"jitomev/internal/jito"
	"jitomev/internal/ledger"
	"jitomev/internal/mempool"
	"jitomev/internal/router"
	"jitomev/internal/searcher"
	"jitomev/internal/solana"
	"jitomev/internal/token"
	"jitomev/internal/validator"
)

// universe is the instantiated world a study runs in.
type universe struct {
	bank     *ledger.Bank
	registry *token.Registry
	clock    solana.Clock
	engine   *jito.BlockEngine
	mp       *mempool.Pool
	producer *validator.Producer

	pools      []*amm.Pool // snapshots only; live pools are owned by the bank
	crossPools []*amm.Pool // meme↔meme pools (no SOL leg)
	memes      []token.Mint
	traders    []*solana.Keypair
	bots       []*searcher.Sandwicher

	// priceLamports holds each mint's genesis price in lamports per base
	// unit (SOL = 1), for trade sizing and tip conversion.
	priceLamports map[solana.Pubkey]float64

	rng   *rand.Rand
	nonce uint64
}

func newUniverse(p Params, rng *rand.Rand) *universe {
	u := &universe{
		bank:          ledger.NewBank(),
		registry:      token.NewRegistry(),
		clock:         solana.Clock{Genesis: p.Genesis},
		mp:            mempool.New(mempool.VisibilityPrivate),
		priceLamports: map[solana.Pubkey]float64{token.SOL.Address: 1},
		rng:           rng,
	}
	u.engine = jito.NewBlockEngine(u.bank, u.clock)
	set := validator.NewSet(500, p.Seed)
	u.producer = validator.NewProducer(set, u.bank, u.engine, u.mp, 1<<20)

	// Token universe: memecoins with SOL-quoted pools. Pool depth is
	// lognormal with a ~60 SOL median — the shallow pools where memecoin
	// trading (and therefore sandwiching) actually happens.
	for i := 0; i < p.NumMemecoins; i++ {
		m := u.registry.NewMemecoin(fmt.Sprintf("MEME%02d", i))
		u.memes = append(u.memes, m)

		solSide := uint64(60e9 * math.Exp(rng.NormFloat64()*0.8))
		if solSide < 10e9 {
			solSide = 10e9
		}
		// Token price between ~1 and ~1000 lamports per base unit.
		price := math.Exp(rng.Float64() * math.Log(1000))
		memeSide := uint64(float64(solSide) / price)
		if memeSide == 0 {
			memeSide = 1
		}
		pool := amm.New(m.Address, token.SOL.Address, memeSide, solSide, amm.DefaultFeeBps)
		u.bank.AddPool(pool)
		u.pools = append(u.pools, pool.Clone())
		u.priceLamports[m.Address] = price
	}

	// Cross pools trade memecoin pairs directly, with no SOL leg: the
	// venue behind the paper's 28% of sandwiches that cannot be
	// dollar-quantified (§4.1). Reserves are priced consistently with
	// each mint's SOL-quoted pool.
	for i := 0; i+1 < p.NumMemecoins && i/2 < p.NumMemecoins/3; i += 2 {
		a, b := u.memes[i], u.memes[i+1]
		valueLamports := 40e9 * math.Exp(rng.NormFloat64()*0.7)
		ra := uint64(valueLamports / u.priceLamports[a.Address])
		rb := uint64(valueLamports / u.priceLamports[b.Address])
		if ra == 0 {
			ra = 1
		}
		if rb == 0 {
			rb = 1
		}
		pool := amm.New(a.Address, b.Address, ra, rb, amm.DefaultFeeBps)
		u.bank.AddPool(pool)
		u.crossPools = append(u.crossPools, pool.Clone())
	}

	// Trader population. Balances are pre-funded generously: the study
	// measures flow through Jito, not wealth, and users' external funding
	// is out of scope. fund gives traders and bots SOL and every
	// memecoin.
	funded := p.NumTraders + p.NumBots
	u.bank.Reserve(funded, funded*(1+p.NumMemecoins))
	for i := 0; i < p.NumTraders; i++ {
		kp := solana.NewKeypairFromSeed(fmt.Sprintf("trader/%d/%d", p.Seed, i))
		u.traders = append(u.traders, kp)
		u.fund(kp.Pubkey())
	}

	// Sandwich bots. Coverage starts high and the study narrows it per
	// day to drive the declining trend.
	for i := 0; i < p.NumBots; i++ {
		bot := searcher.New(fmt.Sprintf("%d/%d", p.Seed, i),
			1.0, 1<<44, 20_000, p.BotTipShare, rng)
		bot.DisguiseRate = p.DisguiseRate
		// Footnote-7 behaviour: roughly a third of attacks also dump
		// held inventory in the back-run, pushing measured attacker
		// gains above measured victim losses in aggregate.
		bot.DumpRate = 0.35
		bot.DumpMax = 1.3
		bot.PriceOf = func(mint solana.Pubkey) float64 { return u.priceLamports[mint] }
		// Real searchers preflight through simulateBundle rather than
		// burn failed submissions.
		bot.Preflight = true
		u.bots = append(u.bots, bot)
		u.fund(bot.Keys.Pubkey())
	}
	return u
}

// fund gives an account effectively unlimited balances.
func (u *universe) fund(who solana.Pubkey) {
	u.bank.CreditLamports(who, 1<<55)
	u.bank.MintTo(who, token.SOL.Address, 1<<55)
	for _, m := range u.memes {
		u.bank.MintTo(who, m.Address, 1<<55)
	}
}

func (u *universe) nextNonce() uint64 {
	u.nonce++
	return u.nonce
}

func (u *universe) randomTrader() *solana.Keypair {
	return u.traders[u.rng.Intn(len(u.traders))]
}

// randomPool picks a SOL-quoted pool (the bulk of trading volume), with a
// small share of cross-pool traffic mixed in.
func (u *universe) randomPool() amm.Pool {
	if len(u.crossPools) > 0 && u.rng.Float64() < 0.1 {
		return u.randomCrossPool()
	}
	live, _ := u.bank.PoolSnapshot(u.pools[u.rng.Intn(len(u.pools))].Address)
	return live
}

// randomCrossPool picks a meme↔meme pool.
func (u *universe) randomCrossPool() amm.Pool {
	live, _ := u.bank.PoolSnapshot(u.crossPools[u.rng.Intn(len(u.crossPools))].Address)
	return live
}

func (u *universe) randomTipAccount() solana.Pubkey {
	return jito.TipAccounts[u.rng.Intn(jito.NumTipAccounts)]
}

// lognormal draws exp(N(ln(median), sigma)).
func (u *universe) lognormal(median, sigma float64) float64 {
	return median * math.Exp(u.rng.NormFloat64()*sigma)
}

// --- tip models (Figure 4 calibration) -------------------------------------

// defensiveTip draws a tip for an MEV-protection bundle: lognormal with a
// ~3,000-lamport median and a mean near the paper's 11.6k ($0.0028 at
// $242/SOL), clipped to (MinJitoTip, DefensiveTipCeiling].
func (u *universe) defensiveTip() solana.Lamports {
	t := solana.Lamports(u.lognormal(3_000, 1.64))
	if t < solana.MinJitoTip {
		t = solana.MinJitoTip
	}
	if t > solana.DefensiveTipCeiling {
		t = solana.DefensiveTipCeiling
	}
	return t
}

// priorityTip draws a tip for a priority-seeking length-1 bundle: above
// the defensive ceiling, lognormal around ~400k lamports.
func (u *universe) priorityTip() solana.Lamports {
	t := solana.Lamports(u.lognormal(400_000, 1.0))
	if t <= solana.DefensiveTipCeiling {
		t = solana.DefensiveTipCeiling + 1
	}
	if t > 50_000_000 {
		t = 50_000_000
	}
	return t
}

// benignBundleTip draws a tip for multi-transaction app/arb bundles. The
// majority pay exactly the 1,000-lamport minimum — which is why the
// paper's median length-3 tip is 1,000 lamports.
func (u *universe) benignBundleTip() solana.Lamports {
	if u.rng.Float64() < 0.55 {
		return solana.MinJitoTip
	}
	t := solana.Lamports(u.lognormal(2_000, 1.2))
	if t < solana.MinJitoTip {
		t = solana.MinJitoTip
	}
	if t > 100_000_000 {
		t = 100_000_000
	}
	return t
}

// --- transaction builders ---------------------------------------------------

// tradeSOLAmount draws a background trade size in lamport value.
func (u *universe) tradeSOLAmount() uint64 {
	v := u.lognormal(0.15e9, 1.2)
	if v < 1e6 {
		v = 1e6
	}
	if v > 1e13 {
		v = 1e13
	}
	return uint64(v)
}

// swapInstr builds a swap worth roughly solValue lamports on pool. sell
// chooses the input side: false sells the quote side (MintB), true sells
// the base side (MintA). slippageBps > 0 adds a MinOut floor that many
// basis points below the current quote.
func (u *universe) swapInstr(pool amm.Pool, solValue uint64, sell bool, slippageBps uint64) *solana.Swap {
	sw := &solana.Swap{Pool: pool.Address}
	if sell {
		sw.InputMint = pool.MintA
	} else {
		sw.InputMint = pool.MintB
	}
	price := u.priceLamports[sw.InputMint]
	if price <= 0 {
		price = 1
	}
	sw.AmountIn = uint64(float64(solValue) / price)
	if sw.AmountIn == 0 {
		sw.AmountIn = 1_000
	}
	if sw.AmountIn > amm.MaxSwapIn {
		sw.AmountIn = amm.MaxSwapIn
	}
	if slippageBps > 0 {
		if quote, err := pool.QuoteOut(sw.InputMint, sw.AmountIn); err == nil {
			sw.MinOut = quote * (10_000 - slippageBps) / 10_000
		}
	}
	return sw
}

// userSwapTx builds a signed swap transaction for a trader.
func (u *universe) userSwapTx(kp *solana.Keypair, pool amm.Pool, solValue uint64, sell bool, slippageBps uint64, tip solana.Lamports) *solana.Transaction {
	instrs := []solana.Instruction{u.swapInstr(pool, solValue, sell, slippageBps)}
	if tip > 0 {
		instrs = append(instrs, &solana.Tip{TipAccount: u.randomTipAccount(), Amount: tip})
	}
	return solana.NewTransaction(kp, u.nextNonce(), 0, instrs...)
}

// routedSwapTx builds an aggregator-routed two-hop trade: meme_i → SOL →
// meme_j through the deep SOL-quoted pools, with the user's slippage
// tolerance on the final hop only — the transaction shape Jupiter emits
// for cross-memecoin trades.
func (u *universe) routedSwapTx(kp *solana.Keypair, solValue uint64, slippageBps uint64) *solana.Transaction {
	if len(u.pools) < 2 {
		return nil
	}
	i := u.rng.Intn(len(u.pools))
	j := u.rng.Intn(len(u.pools) - 1)
	if j >= i {
		j++
	}
	// Fresh snapshots so the route is quoted at current reserves.
	p1, ok1 := u.bank.PoolSnapshot(u.pools[i].Address)
	p2, ok2 := u.bank.PoolSnapshot(u.pools[j].Address)
	if !ok1 || !ok2 {
		return nil
	}
	rt := router.New([]*amm.Pool{&p1, &p2})
	inMint := p1.MintA
	price := u.priceLamports[inMint]
	if price <= 0 {
		price = 1
	}
	amountIn := uint64(float64(solValue) / price)
	if amountIn == 0 {
		amountIn = 1_000
	}
	tx, _, err := rt.BuildSwap(router.SwapRequest{
		User: kp, In: inMint, Out: p2.MintA,
		AmountIn: amountIn, SlippageBps: slippageBps, Nonce: u.nextNonce(),
	})
	if err != nil {
		return nil
	}
	return tx
}

// tipOnlyTx builds a transaction that only pays a Jito tip (the trading-app
// pattern the paper's C5 excludes).
func (u *universe) tipOnlyTx(kp *solana.Keypair, tip solana.Lamports) *solana.Transaction {
	return solana.NewTransaction(kp, u.nextNonce(), 0,
		&solana.Tip{TipAccount: u.randomTipAccount(), Amount: tip})
}
