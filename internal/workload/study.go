package workload

import (
	"math"
	"math/rand"

	"jitomev/internal/amm"
	"jitomev/internal/jito"
	"jitomev/internal/solana"
	"jitomev/internal/validator"
)

// Label is the simulator's ground truth for a bundle — what the paper can
// never observe and must approximate with heuristics.
type Label uint8

// Ground-truth labels.
const (
	LabelBenign    Label = iota
	LabelSandwich        // a length-3 sandwich attack
	LabelDisguised       // a sandwich padded beyond length 3
)

// Truth is the ground-truth record for one bundle.
type Truth struct {
	Label         Label
	VictimSig     solana.Signature
	PlannedProfit int64
}

// GroundTruth indexes truth records by bundle id. Only bundles of length
// ≥ 3 (the detector's universe) are recorded, to bound memory at scale.
type GroundTruth struct {
	m map[jito.BundleID]Truth
}

// NewGroundTruth returns an empty table.
func NewGroundTruth() *GroundTruth { return &GroundTruth{m: make(map[jito.BundleID]Truth)} }

func (g *GroundTruth) add(id jito.BundleID, t Truth) { g.m[id] = t }

// Lookup returns the truth for a bundle; absent bundles are benign.
func (g *GroundTruth) Lookup(id jito.BundleID) Truth { return g.m[id] }

// Len returns the number of recorded (non-default) entries.
func (g *GroundTruth) Len() int { return len(g.m) }

// CountLabel returns how many recorded bundles carry the label.
func (g *GroundTruth) CountLabel(l Label) int {
	n := 0
	for _, t := range g.m {
		if t.Label == l {
			n++
		}
	}
	return n
}

// Sink receives every bundle that lands on chain, in acceptance order.
// The explorer's store implements Sink; tests use SinkFunc.
type Sink interface {
	Accept(day int, acc *jito.Accepted)
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(day int, acc *jito.Accepted)

// Accept implements Sink.
func (f SinkFunc) Accept(day int, acc *jito.Accepted) { f(day, acc) }

// DayStats summarizes one generated day.
type DayStats struct {
	Day              int
	BundlesLanded    uint64
	TxsLanded        uint64
	ByLength         [jito.MaxBundleTxs + 1]uint64
	VictimsGenerated int
	AttacksSubmitted int
	AttacksLanded    int
	DisguisedLanded  int
	LooseTxsLanded   int
}

// Study drives the full synthetic measurement window.
type Study struct {
	P  Params
	GT *GroundTruth

	// BlockObserver, when set, receives every produced block — the raw
	// chain view (transaction order without bundle boundaries) that
	// pre-bundle, Ethereum-style detectors operate on.
	BlockObserver func(*validator.Block)

	// DayObserver, when set, receives each completed day's stats as it
	// finishes — the ground-truth feed behind the quality sentinel's
	// per-day coverage ledger (bundles landed = the denominator the
	// collector's yield is measured against).
	DayObserver func(DayStats)

	u    *universe
	rng  *rand.Rand
	Days []DayStats

	// Per-day scratch buffers reused across RunDay calls: the event mix
	// holds ~14.8M/Scale entries and the burst schedule two fixed-size
	// weight tables, all previously reallocated every day of a study.
	events      []event
	burstWeight []float64
	burstCum    []float64
}

// New builds a study from params (defaults applied).
func New(p Params) *Study {
	p = p.Defaults()
	rng := rand.New(rand.NewSource(p.Seed))
	return &Study{
		P:   p,
		GT:  NewGroundTruth(),
		u:   newUniverse(p, rng),
		rng: rng,
	}
}

// Run generates every day of the study, streaming accepted bundles into
// sink in acceptance order.
func (s *Study) Run(sink Sink) {
	for d := 0; d < s.P.Days; d++ {
		s.RunDay(d, sink)
	}
}

// event tags for the per-day generation mix.
type event uint8

const (
	evDefensive event = iota
	evPriority
	evLen2
	evBenign3
	evLen4
	evLen5
	evVictim
)

// RunDay generates one study day. Bundles are assigned slots spread across
// the day, submitted to the block engine, and executed by the validator
// pipeline; whatever lands flows to the sink.
func (s *Study) RunDay(day int, sink Sink) {
	ds := DayStats{Day: day}

	// Daily volume with mild weekly seasonality and noise.
	seasonal := 1 + 0.08*math.Sin(2*math.Pi*float64(day%7)/7) + s.rng.NormFloat64()*0.03
	if seasonal < 0.5 {
		seasonal = 0.5
	}
	total := int(float64(s.P.BundlesPerDay()) * seasonal)

	attacks := s.P.AttackTarget(day)
	nVictims := int(attacks/0.85 + 0.5)

	n1 := int(float64(total) * LengthMix[1])
	n2 := int(float64(total) * LengthMix[2])
	n3 := int(float64(total) * LengthMix[3])
	n4 := int(float64(total) * LengthMix[4])
	n5 := int(float64(total) * LengthMix[5])
	nDef := int(float64(n1) * s.P.DefensiveShare(day))
	nPri := n1 - nDef
	benign3 := n3 - int(attacks+0.5)
	if benign3 < 0 {
		benign3 = 0
	}

	events := s.events[:0]
	appendN := func(e event, n int) {
		for i := 0; i < n; i++ {
			events = append(events, e)
		}
	}
	appendN(evDefensive, nDef)
	appendN(evPriority, nPri)
	appendN(evLen2, n2)
	appendN(evBenign3, benign3)
	appendN(evLen4, n4)
	appendN(evLen5, n5)
	appendN(evVictim, nVictims)
	s.rng.Shuffle(len(events), func(i, j int) { events[i], events[j] = events[j], events[i] })

	dayStart := solana.DayStart(day)
	slotAt := s.burstSchedule(len(events))

	for i, ev := range events {
		slot := dayStart + slotAt(i)
		if slot < s.u.bank.Slot() {
			slot = s.u.bank.Slot()
		}
		switch ev {
		case evDefensive:
			s.submitSingle(s.defensiveBundle())
		case evPriority:
			s.submitSingle(s.priorityBundle())
		case evLen2:
			s.submitSingle(s.len2Bundle())
		case evBenign3:
			s.submitSingle(s.benign3Bundle())
		case evLen4:
			s.submitSingle(s.appBundle(4))
		case evLen5:
			s.submitSingle(s.appBundle(5))
		case evVictim:
			ds.VictimsGenerated++
			s.victimEvent(slot, &ds)
		}
		s.produce(slot, day, sink, &ds)
	}
	// Flush anything deferred past the last event (e.g. bundles held over
	// non-Jito leaders).
	s.produce(dayStart+solana.SlotsPerDay-1, day, sink, &ds)
	s.Days = append(s.Days, ds)
	if s.DayObserver != nil {
		s.DayObserver(ds)
	}
	s.events = events // keep the grown buffer for the next day
}

// burstSchedule maps event index → slot offset within the day, spreading
// events across 2-minute windows whose rates carry random burst
// multipliers. Real Jito traffic is bursty (memecoin launches, volatility
// spikes); these bursts are what occasionally overflow the collector's
// page between polls, producing the ~95% (not 100%) successive-page
// overlap the paper measured (§3.1).
func (s *Study) burstSchedule(nEvents int) func(i int) solana.Slot {
	const windows = 720 // 2-minute windows per day
	if s.burstWeight == nil {
		s.burstWeight = make([]float64, windows)
		s.burstCum = make([]float64, windows+1)
	}
	weights := s.burstWeight
	for w := range weights {
		weights[w] = 1
	}
	nBursts := 12 + s.rng.Intn(20)
	for b := 0; b < nBursts; b++ {
		start := s.rng.Intn(windows)
		dur := 1 + s.rng.Intn(3)
		mult := 3 + 6*s.rng.Float64()
		for j := start; j < start+dur && j < windows; j++ {
			weights[j] = mult
		}
	}
	cum := s.burstCum
	cum[0] = 0
	for i, w := range weights {
		cum[i+1] = cum[i] + w
	}
	total := cum[windows]
	slotsPerWindow := float64(solana.SlotsPerDay) / windows

	return func(i int) solana.Slot {
		target := total * float64(i+1) / float64(nEvents+1)
		// Binary search the cumulative weight table.
		lo, hi := 0, windows
		for lo < hi {
			mid := (lo + hi) / 2
			if cum[mid+1] < target {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		frac := (target - cum[lo]) / weights[lo]
		return solana.Slot((float64(lo) + frac) * slotsPerWindow)
	}
}

// produce runs one slot of block production and routes landed bundles.
func (s *Study) produce(slot solana.Slot, day int, sink Sink, ds *DayStats) {
	if slot < s.u.bank.Slot() {
		slot = s.u.bank.Slot()
	}
	blk := s.u.producer.ProduceSlot(slot)
	if s.BlockObserver != nil {
		s.BlockObserver(blk)
	}
	ds.LooseTxsLanded += len(blk.LooseTxs)
	for _, acc := range blk.Bundles {
		n := acc.Record.NumTxs()
		ds.BundlesLanded++
		ds.TxsLanded += uint64(n)
		if n <= jito.MaxBundleTxs {
			ds.ByLength[n]++
		}
		switch s.GT.Lookup(acc.Record.ID).Label {
		case LabelSandwich:
			ds.AttacksLanded++
		case LabelDisguised:
			ds.DisguisedLanded++
		}
		sink.Accept(day, acc)
	}
}

// submitSingle submits one benign bundle, labeling it if it is in the
// detector's length-≥3 universe.
func (s *Study) submitSingle(b *jito.Bundle) {
	if b == nil {
		return
	}
	if b.Len() >= 3 {
		s.GT.add(b.ID(), Truth{Label: LabelBenign})
	}
	// Benign bundles are pre-validated by construction; submission errors
	// (e.g. rounding a tip to zero) just drop the bundle, as on chain.
	_ = s.u.engine.Submit(b)
}

// victimEvent emits one attackable native swap: into the mempool, scanned
// by every bot (shuffled order — whoever claims first wins), then the slot
// is produced, landing either the attack bundle or the victim natively.
func (s *Study) victimEvent(slot solana.Slot, ds *DayStats) {
	u := s.u
	kp := u.randomTrader()
	// 28% of the paper's detected sandwiches had no SOL leg (§4.1):
	// route that share of attackable victims to meme↔meme cross pools.
	var pool amm.Pool
	if len(u.crossPools) > 0 && u.rng.Float64() < 0.28 {
		pool = u.randomCrossPool()
	} else {
		pool, _ = u.bank.PoolSnapshot(u.pools[u.rng.Intn(len(u.pools))].Address)
	}
	sell := u.rng.Float64() < 0.3
	size := uint64(u.lognormal(s.P.VictimMedianSOL*1e9, s.P.VictimSigma))
	if size < 50e6 {
		size = 50e6 // floor at 0.05 SOL: dust is never attackable
	}
	if size > 1e12 {
		size = 1e12
	}
	slip := uint64(s.P.VictimSlippageMinBps) +
		uint64(u.rng.Intn(s.P.VictimSlippageMaxBps-s.P.VictimSlippageMinBps+1))

	var tx *solana.Transaction
	if s.P.RoutedVictimShare > 0 && u.rng.Float64() < s.P.RoutedVictimShare {
		// Aggregator-routed two-hop victim: sandwiches against its first
		// hop evade the detector's C2 mint-set check (a second source of
		// the paper's lower bound).
		tx = u.routedSwapTx(kp, size, slip)
	}
	if tx == nil {
		tx = u.userSwapTx(kp, pool, size, sell, slip, 0)
	}
	u.mp.Add(tx, slot)

	order := u.rng.Perm(len(u.bots))
	for _, bi := range order {
		for _, atk := range u.bots[bi].Scan(u.mp, u.bank, u.engine) {
			ds.AttacksSubmitted++
			label := LabelSandwich
			if atk.Disguised {
				label = LabelDisguised
			}
			s.GT.add(atk.BundleID, Truth{
				Label:         label,
				VictimSig:     atk.VictimSig,
				PlannedProfit: atk.PlannedProfit,
			})
		}
	}
}

// --- benign bundle builders -------------------------------------------------

// defensiveBundle wraps a single user swap (tight slippage) plus a small
// tip in a length-1 bundle — Jupiter's "MEV protection" pattern (§3.3).
func (s *Study) defensiveBundle() *jito.Bundle {
	u := s.u
	tx := u.userSwapTx(u.randomTrader(), u.randomPool(), u.tradeSOLAmount(),
		u.rng.Float64() < 0.5, 50+uint64(u.rng.Intn(100)), u.defensiveTip())
	return jito.NewBundle(tx)
}

// priorityBundle is a length-1 bundle whose tip is large enough that
// faster inclusion is a plausible motive.
func (s *Study) priorityBundle() *jito.Bundle {
	u := s.u
	tx := u.userSwapTx(u.randomTrader(), u.randomPool(), u.tradeSOLAmount(),
		u.rng.Float64() < 0.5, 100, u.priorityTip())
	return jito.NewBundle(tx)
}

// len2Bundle is the common trading-app shape: a swap plus a tip-only
// transaction (70%), or two swaps with an embedded tip (30%).
func (s *Study) len2Bundle() *jito.Bundle {
	u := s.u
	kp := u.randomTrader()
	if u.rng.Float64() < 0.7 {
		swap := u.userSwapTx(kp, u.randomPool(), u.tradeSOLAmount(), u.rng.Float64() < 0.5, 100, 0)
		return jito.NewBundle(swap, u.tipOnlyTx(kp, u.benignBundleTip()))
	}
	a := u.userSwapTx(kp, u.randomPool(), u.tradeSOLAmount(), false, 100, u.benignBundleTip())
	b := u.userSwapTx(u.randomTrader(), u.randomPool(), u.tradeSOLAmount(), true, 100, 0)
	return jito.NewBundle(a, b)
}

// benign3Bundle draws from the benign length-3 mixture:
//
//	50%  app pattern  [swap A, swap B, tip-only] — the C5 exclusion case;
//	     half the time the tip-only tx is signed by A, giving the naive
//	     A-B-A heuristic its false positives
//	25%  arbitrage    [swap, swap, swap] by one signer — rejected by C1
//	25%  organic ABA  [A swap, B swap, A swap] at market sizes — mostly
//	     rejected by C3/C4
func (s *Study) benign3Bundle() *jito.Bundle {
	u := s.u
	r := u.rng.Float64()
	switch {
	case r < 0.5:
		a, b := u.randomTrader(), u.randomTrader()
		pool := u.randomPool()
		samePool := u.rng.Float64() < 0.5
		pb := pool
		if !samePool {
			pb = u.randomPool()
		}
		t1 := u.userSwapTx(a, pool, u.tradeSOLAmount(), false, 100, 0)
		t2 := u.userSwapTx(b, pb, u.tradeSOLAmount(), false, 100, 0)
		tipper := a
		if u.rng.Float64() < 0.5 {
			tipper = u.randomTrader()
		}
		return jito.NewBundle(t1, t2, u.tipOnlyTx(tipper, u.benignBundleTip()))
	case r < 0.75:
		kp := u.randomTrader()
		t1 := u.userSwapTx(kp, u.randomPool(), u.tradeSOLAmount(), false, 100, u.benignBundleTip())
		t2 := u.userSwapTx(kp, u.randomPool(), u.tradeSOLAmount(), true, 100, 0)
		t3 := u.userSwapTx(kp, u.randomPool(), u.tradeSOLAmount(), false, 100, 0)
		return jito.NewBundle(t1, t2, t3)
	default:
		a, b := u.randomTrader(), u.randomTrader()
		if a.Pubkey() == b.Pubkey() {
			b = u.traders[(u.rng.Intn(len(u.traders)-1)+1)%len(u.traders)]
		}
		pool := u.randomPool()
		dir1 := u.rng.Float64() < 0.5
		size := u.tradeSOLAmount() / 4
		t1 := u.userSwapTx(a, pool, size, dir1, 300, u.benignBundleTip())
		t2 := u.userSwapTx(b, pool, u.tradeSOLAmount(), u.rng.Float64() < 0.5, 300, 0)
		// A's second leg is deliberately asymmetric (roughly half the
		// first): an organic re-balance, not an unwind. A symmetric
		// unwind at these sizes would often be profitable by luck and
		// indistinguishable from a sandwich — which the paper's
		// heuristic would (correctly, by its own definition) count.
		t3 := u.userSwapTx(a, pool, size/2, !dir1, 300, 0)
		return jito.NewBundle(t1, t2, t3)
	}
}

// appBundle builds a length-n batch: n-1 swaps by assorted signers plus a
// final tip-only transaction.
func (s *Study) appBundle(n int) *jito.Bundle {
	u := s.u
	txs := make([]*solana.Transaction, 0, n)
	for i := 0; i < n-1; i++ {
		txs = append(txs, u.userSwapTx(u.randomTrader(), u.randomPool(),
			u.tradeSOLAmount(), u.rng.Float64() < 0.5, 100, 0))
	}
	txs = append(txs, u.tipOnlyTx(u.randomTrader(), u.benignBundleTip()))
	return jito.NewBundle(txs...)
}
