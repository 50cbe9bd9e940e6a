// Package validator models the block-producing side of the network: a
// stake-weighted leader schedule over a validator set in which 97% of
// stake runs a Jito-compatible client (paper §1, §2.3), and per-slot block
// production that executes Jito bundles (tip auction) before loose
// mempool transactions (priority-fee order).
package validator

import (
	"fmt"
	"math/rand"

	"jitomev/internal/jito"
	"jitomev/internal/ledger"
	"jitomev/internal/mempool"
	"jitomev/internal/solana"
)

// Validator is one network validator.
type Validator struct {
	Identity solana.Pubkey
	Stake    uint64 // arbitrary stake units; weights leader selection
	RunsJito bool
}

// Set is a fixed validator population with a deterministic, stake-weighted
// leader schedule.
type Set struct {
	validators []Validator
	cumStake   []uint64
	totalStake uint64
	epochSeed  int64
}

// JitoAdoptionRate is the fraction of stake running a Jito-compatible
// client: "currently over 97% of Solana validators run a Jito compatible
// client" (paper §1).
const JitoAdoptionRate = 0.97

// NewSet builds n validators with Zipf-ish stake (a few heavy validators,
// a long tail — the shape behind Solana's "super-minority") and assigns
// Jito compatibility to the heaviest stake first until JitoAdoptionRate of
// total stake runs Jito. Deterministic in seed.
func NewSet(n int, seed int64) *Set {
	if n <= 0 {
		panic("validator: empty set")
	}
	rng := rand.New(rand.NewSource(seed))
	s := &Set{epochSeed: seed}
	s.validators = make([]Validator, n)
	for i := range s.validators {
		// Stake ~ 1/(rank+1) with noise: heavy head, long tail.
		stake := uint64(1_000_000/(i+1)) + uint64(rng.Intn(5_000)) + 1
		s.validators[i] = Validator{
			Identity: solana.NewKeypairFromSeed(fmt.Sprintf("validator/%d/%d", seed, i)).Pubkey(),
			Stake:    stake,
		}
	}
	var total uint64
	for i := range s.validators {
		total += s.validators[i].Stake
	}
	// Highest-staked validators adopt Jito first; stop once ≥97% of stake
	// is covered. (The paper notes every validator in the super-minority
	// runs Jito.)
	var covered uint64
	for i := range s.validators {
		if float64(covered) < JitoAdoptionRate*float64(total) {
			s.validators[i].RunsJito = true
			covered += s.validators[i].Stake
		}
	}
	s.cumStake = make([]uint64, n)
	var cum uint64
	for i := range s.validators {
		cum += s.validators[i].Stake
		s.cumStake[i] = cum
	}
	s.totalStake = cum
	return s
}

// Len returns the number of validators.
func (s *Set) Len() int { return len(s.validators) }

// JitoStakeShare returns the fraction of stake running Jito.
func (s *Set) JitoStakeShare() float64 {
	var jito uint64
	for _, v := range s.validators {
		if v.RunsJito {
			jito += v.Stake
		}
	}
	return float64(jito) / float64(s.totalStake)
}

// LeaderAt returns the leader of slot, chosen stake-weighted and
// deterministically from the set's seed. It runs in constant time and
// allocates nothing (see firstUint64).
func (s *Set) LeaderAt(slot solana.Slot) Validator {
	// Hash slot with the epoch seed into a stake-weighted pick.
	target := firstUint64(s.epochSeed^int64(uint64(slot)*0x9E3779B97F4A7C15)) % s.totalStake
	// Binary search the cumulative stake table.
	lo, hi := 0, len(s.cumStake)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if s.cumStake[mid] <= target {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return s.validators[lo]
}

// firstUint64 returns rand.New(rand.NewSource(seed)).Uint64() without
// building the 607-word source. Go 1 guarantees math/rand's seeded
// output never changes, and the schedule depends on it: the root
// package's TestGoldenWorld pins it.
//
// rngSource.Seed fills vec[i] from three consecutive outputs of the
// Lehmer generator x' = 48271·x mod (2³¹−1), at chain positions
// 20+3i+1…3, XORed with rngCooked[i]. The first Uint64 reads only
// vec[333] + vec[606], so six powers of 48271 reproduce it.
func firstUint64(seed int64) uint64 {
	seed %= lehmerMod
	if seed < 0 {
		seed += lehmerMod
	}
	if seed == 0 {
		seed = 89482311 // rngSource.Seed's substitute for a zero seed
	}
	x := uint64(seed)
	// rngCooked[333] and rngCooked[606] from math/rand's rng.go.
	return seededWord(x, &lehmerPow[0], -4633371852008891965) +
		seededWord(x, &lehmerPow[1], 4152330101494654406)
}

// seededWord is one vec entry of a source seeded with x: the chain
// outputs x·p[k] mod (2³¹−1), packed as Seed packs them.
func seededWord(x uint64, p *[3]uint64, cooked int64) uint64 {
	u := x * p[0] % lehmerMod << 40
	u ^= x * p[1] % lehmerMod << 20
	u ^= x * p[2] % lehmerMod
	return u ^ uint64(cooked)
}

// lehmerMod is math/rand's seedrand modulus, 2³¹−1.
const lehmerMod = 1<<31 - 1

// lehmerPow holds 48271^n mod (2³¹−1) for the chain positions n behind
// vec[333] (1020…1022) and vec[606] (1839…1841).
var lehmerPow = [2][3]uint64{
	{lehmerPower(1020), lehmerPower(1021), lehmerPower(1022)},
	{lehmerPower(1839), lehmerPower(1840), lehmerPower(1841)},
}

func lehmerPower(n int) uint64 {
	p := uint64(1)
	for ; n > 0; n-- {
		p = p * 48271 % lehmerMod
	}
	return p
}

// Block is a produced block: the observable unit the collector's
// timestamps ultimately anchor to.
type Block struct {
	Slot     solana.Slot
	Leader   solana.Pubkey
	Bundles  []*jito.Accepted
	LooseTxs []solana.Signature
	// LooseResults holds the execution results of LooseTxs in order,
	// for consumers that need balance effects of non-bundled traffic
	// (e.g. block-scan detection baselines).
	LooseResults []*ledger.TxResult
	Failed       int // loose txs that landed but failed
}

// TxDetails flattens the block into explorer-style transaction details in
// execution order: bundles first (tip-auction order), then loose
// transactions. This is the view an Ethereum-style block-scanning
// detector has — transaction order without bundle boundaries.
func (b *Block) TxDetails() []jito.TxDetail {
	var out []jito.TxDetail
	for _, acc := range b.Bundles {
		out = append(out, acc.Details...)
	}
	for _, res := range b.LooseResults {
		out = append(out, jito.DetailFromResult(res, b.Slot))
	}
	return out
}

// Producer drives per-slot block production against one bank.
type Producer struct {
	Set     *Set
	Bank    *ledger.Bank
	Engine  *jito.BlockEngine
	Mempool *mempool.Pool

	// MaxLooseTxsPerSlot caps non-bundle transactions per block.
	MaxLooseTxsPerSlot int
}

// NewProducer wires a producer. maxLoose caps loose transactions per block
// (Solana blocks fit tens of thousands; studies use a scaled-down cap).
func NewProducer(set *Set, bank *ledger.Bank, engine *jito.BlockEngine, mp *mempool.Pool, maxLoose int) *Producer {
	return &Producer{Set: set, Bank: bank, Engine: engine, Mempool: mp, MaxLooseTxsPerSlot: maxLoose}
}

// ProduceSlot runs one slot: if the leader runs Jito, pending bundles are
// auctioned and executed first; then loose mempool transactions execute in
// priority-fee order. When the leader does not run Jito, bundles stay
// queued for the next Jito-compatible leader — on the real network the
// block engine simply targets Jito leaders.
func (p *Producer) ProduceSlot(slot solana.Slot) *Block {
	leader := p.Set.LeaderAt(slot)
	blk := &Block{Slot: slot, Leader: leader.Identity}
	p.Bank.SetSlot(slot)

	if leader.RunsJito {
		blk.Bundles = p.Engine.ProcessSlot(slot)
	}

	for _, tx := range p.Mempool.DrainForBlock(p.MaxLooseTxsPerSlot) {
		res, err := p.Bank.ExecuteTx(tx)
		if err != nil {
			continue // rejected outright (e.g. cannot pay fee): never lands
		}
		blk.LooseTxs = append(blk.LooseTxs, tx.Sig)
		blk.LooseResults = append(blk.LooseResults, res)
		if res.Err != nil {
			blk.Failed++
		}
	}
	return blk
}
