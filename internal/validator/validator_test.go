package validator

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"jitomev/internal/amm"
	"jitomev/internal/jito"
	"jitomev/internal/ledger"
	"jitomev/internal/mempool"
	"jitomev/internal/solana"
	"jitomev/internal/token"
)

func TestNewSetStakeAndAdoption(t *testing.T) {
	s := NewSet(500, 7)
	if s.Len() != 500 {
		t.Fatalf("Len = %d", s.Len())
	}
	share := s.JitoStakeShare()
	if share < JitoAdoptionRate || share > 1.0 {
		t.Errorf("Jito stake share = %.4f, want >= %.2f", share, JitoAdoptionRate)
	}
}

func TestNewSetDeterministic(t *testing.T) {
	a := NewSet(100, 3)
	b := NewSet(100, 3)
	for slot := solana.Slot(0); slot < 50; slot++ {
		if a.LeaderAt(slot).Identity != b.LeaderAt(slot).Identity {
			t.Fatal("leader schedule not deterministic across identical sets")
		}
	}
}

func TestLeaderAtStakeWeighted(t *testing.T) {
	s := NewSet(200, 11)
	// Count leadership over many slots; the top validator (highest stake,
	// ~ stake share of 1/H(200) ≈ 17%) must lead far more often than a
	// tail validator.
	counts := map[solana.Pubkey]int{}
	const slots = 20_000
	for slot := solana.Slot(0); slot < slots; slot++ {
		counts[s.LeaderAt(slot).Identity]++
	}
	top := counts[s.validators[0].Identity]
	tail := counts[s.validators[199].Identity]
	if top <= tail*5 {
		t.Errorf("stake weighting weak: top=%d tail=%d", top, tail)
	}
	// Top validator share should be near its stake share.
	wantShare := float64(s.validators[0].Stake) / float64(s.totalStake)
	gotShare := float64(top) / slots
	if math.Abs(gotShare-wantShare) > 0.03 {
		t.Errorf("top leader share %.3f, stake share %.3f", gotShare, wantShare)
	}
}

func TestProduceSlotExecutesBundlesAndLooseTxs(t *testing.T) {
	bank := ledger.NewBank()
	reg := token.NewRegistry()
	meme := reg.NewMemecoin("MEME")
	pool := amm.New(meme.Address, token.SOL.Address, 1e12, 1e12, amm.DefaultFeeBps)
	bank.AddPool(pool)

	alice := solana.NewKeypairFromSeed("alice")
	bank.CreditLamports(alice.Pubkey(), 100*solana.LamportsPerSOL)
	bank.MintTo(alice.Pubkey(), token.SOL.Address, 1e12)

	clock := solana.Clock{Genesis: time.Unix(0, 0)}
	engine := jito.NewBlockEngine(bank, clock)
	mp := mempool.New(mempool.VisibilityPrivate)

	// All-Jito set so the bundle lands on the first slot.
	set := NewSet(10, 1)
	for i := range set.validators {
		set.validators[i].RunsJito = true
	}
	p := NewProducer(set, bank, engine, mp, 100)

	bundleTx := solana.NewTransaction(alice, 1, 0,
		&solana.Swap{Pool: pool.Address, InputMint: token.SOL.Address, AmountIn: 1e6},
		&solana.Tip{TipAccount: jito.TipAccounts[0], Amount: 5_000})
	if err := engine.Submit(jito.NewBundle(bundleTx)); err != nil {
		t.Fatal(err)
	}

	loose := solana.NewTransaction(alice, 2, 99,
		&solana.Swap{Pool: pool.Address, InputMint: token.SOL.Address, AmountIn: 2e6})
	mp.Add(loose, 0)

	blk := p.ProduceSlot(5)
	if len(blk.Bundles) != 1 {
		t.Fatalf("bundles in block = %d", len(blk.Bundles))
	}
	if len(blk.LooseTxs) != 1 || blk.LooseTxs[0] != loose.Sig {
		t.Fatalf("loose txs = %v", blk.LooseTxs)
	}
	if mp.Len() != 0 {
		t.Error("mempool not drained")
	}
	if blk.Leader.IsZero() {
		t.Error("block has no leader")
	}
}

func TestNonJitoLeaderDefersBundles(t *testing.T) {
	bank := ledger.NewBank()
	alice := solana.NewKeypairFromSeed("alice")
	bank.CreditLamports(alice.Pubkey(), solana.LamportsPerSOL)

	clock := solana.Clock{Genesis: time.Unix(0, 0)}
	engine := jito.NewBlockEngine(bank, clock)
	mp := mempool.New(mempool.VisibilityPrivate)

	set := NewSet(4, 2)
	for i := range set.validators {
		set.validators[i].RunsJito = false
	}
	p := NewProducer(set, bank, engine, mp, 10)

	tipTx := solana.NewTransaction(alice, 1, 0,
		&solana.Tip{TipAccount: jito.TipAccounts[0], Amount: 5_000})
	if err := engine.Submit(jito.NewBundle(tipTx)); err != nil {
		t.Fatal(err)
	}

	blk := p.ProduceSlot(1)
	if len(blk.Bundles) != 0 {
		t.Fatal("non-Jito leader executed bundles")
	}
	if engine.PendingCount() != 1 {
		t.Fatal("bundle lost while leader was non-Jito")
	}

	// Flip everyone to Jito: the deferred bundle lands next slot.
	for i := range set.validators {
		set.validators[i].RunsJito = true
	}
	blk = p.ProduceSlot(2)
	if len(blk.Bundles) != 1 {
		t.Fatal("deferred bundle did not land under Jito leader")
	}
}

func TestProduceSlotCountsFailedLooseTxs(t *testing.T) {
	bank := ledger.NewBank()
	alice := solana.NewKeypairFromSeed("alice")
	bank.CreditLamports(alice.Pubkey(), solana.LamportsPerSOL)

	clock := solana.Clock{Genesis: time.Unix(0, 0)}
	engine := jito.NewBlockEngine(bank, clock)
	mp := mempool.New(mempool.VisibilityPublic)
	set := NewSet(4, 3)
	p := NewProducer(set, bank, engine, mp, 10)

	// Transfer more than the balance: lands but fails.
	bad := solana.NewTransaction(alice, 1, 0,
		&solana.Transfer{From: alice.Pubkey(), To: solana.Pubkey{}, Amount: 1 << 62})
	mp.Add(bad, 0)

	blk := p.ProduceSlot(1)
	if len(blk.LooseTxs) != 1 || blk.Failed != 1 {
		t.Errorf("landed=%d failed=%d", len(blk.LooseTxs), blk.Failed)
	}
}

// TestFirstUint64MatchesMathRand pins the closed-form first draw against
// math/rand itself: the edge seeds of Seed's normalisation, then a seeded
// random sweep.
func TestFirstUint64MatchesMathRand(t *testing.T) {
	want := func(seed int64) uint64 { return rand.New(rand.NewSource(seed)).Uint64() }
	edges := []int64{0, 1, -1, lehmerMod, -lehmerMod, 2 * lehmerMod, lehmerMod - 1, lehmerMod + 1,
		89482311, math.MinInt64, math.MaxInt64, math.MinInt64 + 1}
	for _, seed := range edges {
		if got, w := firstUint64(seed), want(seed); got != w {
			t.Errorf("firstUint64(%d) = %d, math/rand %d", seed, got, w)
		}
	}
	sweep := rand.New(rand.NewSource(20250601))
	n := 20_000
	if testing.Short() {
		n = 2_000
	}
	for i := 0; i < n; i++ {
		seed := int64(sweep.Uint64())
		if got, w := firstUint64(seed), want(seed); got != w {
			t.Fatalf("firstUint64(%d) = %d, math/rand %d", seed, got, w)
		}
	}
}

func TestLeaderAtAllocatesNothing(t *testing.T) {
	s := NewSet(64, 7)
	slot := solana.Slot(0)
	if n := testing.AllocsPerRun(1000, func() {
		slot++
		s.LeaderAt(slot)
	}); n != 0 {
		t.Errorf("LeaderAt allocates %v times per call, want 0", n)
	}
}

func BenchmarkLeaderAt(b *testing.B) {
	s := NewSet(64, 7)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.LeaderAt(solana.Slot(i))
	}
}

// BenchmarkProduceSlot measures one slot of block production: the leader
// pick, one single-swap bundle through the tip auction and one loose
// swap through the mempool. Transactions are signed outside the timer.
func BenchmarkProduceSlot(b *testing.B) {
	bank := ledger.NewBank()
	reg := token.NewRegistry()
	meme := reg.NewMemecoin("MEME")
	pool := amm.New(meme.Address, token.SOL.Address, 1e15, 1e15, amm.DefaultFeeBps)
	bank.AddPool(pool)
	alice := solana.NewKeypairFromSeed("alice")
	bank.CreditLamports(alice.Pubkey(), 1<<50)
	bank.MintTo(alice.Pubkey(), token.SOL.Address, 1<<55)
	bank.MintTo(alice.Pubkey(), meme.Address, 1<<55)

	engine := jito.NewBlockEngine(bank, solana.Clock{Genesis: time.Unix(0, 0)})
	mp := mempool.New(mempool.VisibilityPrivate)
	set := NewSet(64, 7)
	p := NewProducer(set, bank, engine, mp, 100)

	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		mint := token.SOL.Address
		if i%2 == 1 {
			mint = meme.Address
		}
		bundleTx := solana.NewTransaction(alice, uint64(2*i), 0,
			&solana.Swap{Pool: pool.Address, InputMint: mint, AmountIn: 1e6},
			&solana.Tip{TipAccount: jito.TipAccounts[0], Amount: 5_000})
		if err := engine.Submit(jito.NewBundle(bundleTx)); err != nil {
			b.Fatal(err)
		}
		mp.Add(solana.NewTransaction(alice, uint64(2*i+1), 99,
			&solana.Swap{Pool: pool.Address, InputMint: mint, AmountIn: 2e6}), 0)
		b.StartTimer()
		p.ProduceSlot(solana.Slot(i + 1))
	}
}
