package ledger

import (
	"fmt"
	"math/rand"
	"testing"

	"jitomev/internal/amm"
	"jitomev/internal/solana"
	"jitomev/internal/token"
)

// Model-based test: drive the bank with random transactions and bundles
// while mirroring every *committed* effect in a naive reference model
// (plain maps, full copies at checkpoints). After each step the bank must
// agree with the model exactly. This exercises the journal's
// checkpoint/commit/rollback machinery far beyond the hand-written cases.

type model struct {
	lamports map[solana.Pubkey]solana.Lamports
	tokens   map[TokenKey]uint64
	reserves map[solana.Pubkey][2]uint64
}

// flatState flattens the bank's state into plain maps: lamports by
// account, token balances by (owner, mint) and pools by address. Tests
// read the bank through it, whatever its layout; touched balances that
// fell back to zero may appear as zero entries.
func (b *Bank) flatState() (map[solana.Pubkey]solana.Lamports, map[TokenKey]uint64, map[solana.Pubkey]*amm.Pool) {
	lamports := make(map[solana.Pubkey]solana.Lamports, len(b.accounts))
	tokens := make(map[TokenKey]uint64)
	for k, a := range b.accounts {
		lamports[k] = a.lamports
		for m, v := range a.tokens {
			tokens[TokenKey{Owner: k, Mint: b.mintKeys[m]}] = v
		}
	}
	return lamports, tokens, b.pools
}

func snapshotModel(b *Bank) *model {
	m := &model{reserves: make(map[solana.Pubkey][2]uint64)}
	var pools map[solana.Pubkey]*amm.Pool
	m.lamports, m.tokens, pools = b.flatState()
	for k, p := range pools {
		m.reserves[k] = [2]uint64{p.ReserveA, p.ReserveB}
	}
	return m
}

func (m *model) equalTo(t *testing.T, b *Bank, step int) {
	t.Helper()
	lamports, tokens, pools := b.flatState()
	for k, v := range m.lamports {
		if lamports[k] != v {
			t.Fatalf("step %d: lamports[%s] = %d, model %d", step, k.Short(), lamports[k], v)
		}
	}
	for k, v := range lamports {
		if m.lamports[k] != v {
			t.Fatalf("step %d: bank has extra lamports[%s] = %d", step, k.Short(), v)
		}
	}
	for k, v := range m.tokens {
		if tokens[k] != v {
			t.Fatalf("step %d: tokens mismatch", step)
		}
	}
	for k, v := range tokens {
		if m.tokens[k] != v {
			t.Fatalf("step %d: bank has extra token balance %d", step, v)
		}
	}
	for k, r := range m.reserves {
		p := pools[k]
		if p.ReserveA != r[0] || p.ReserveB != r[1] {
			t.Fatalf("step %d: pool reserves mismatch", step)
		}
	}
}

// modelWorld is a small random world: four users holding lamports, wSOL
// and two memecoins, each memecoin's pool against wSOL, and a tip
// account. tx draws a random transaction from it.
type modelWorld struct {
	bank  *Bank
	rng   *rand.Rand
	users []*solana.Keypair
	pools []*amm.Pool
	tip   solana.Pubkey
	nonce uint64
}

func newModelWorld(seed int64) *modelWorld {
	w := &modelWorld{
		bank:  NewBank(),
		rng:   rand.New(rand.NewSource(seed)),
		users: make([]*solana.Keypair, 4),
		pools: make([]*amm.Pool, 2),
		tip:   solana.NewKeypairFromSeed("model/tip").Pubkey(),
	}
	reg := token.NewRegistry()
	for i := range w.users {
		w.users[i] = solana.NewKeypairFromSeed(fmt.Sprintf("model/u%d", i))
		w.bank.CreditLamports(w.users[i].Pubkey(), 10*solana.LamportsPerSOL)
		w.bank.MintTo(w.users[i].Pubkey(), token.SOL.Address, 1e12)
	}
	for i := range w.pools {
		m := reg.NewMemecoin(fmt.Sprintf("M%d", i))
		w.pools[i] = amm.New(m.Address, token.SOL.Address, 1e11, 1e11, amm.DefaultFeeBps)
		w.bank.AddPool(w.pools[i])
		for _, u := range w.users {
			w.bank.MintTo(u.Pubkey(), m.Address, 1e11)
		}
	}
	return w
}

func (w *modelWorld) tx() *solana.Transaction {
	rng := w.rng
	w.nonce++
	u := w.users[rng.Intn(len(w.users))]
	var instrs []solana.Instruction
	n := 1 + rng.Intn(3)
	for i := 0; i < n; i++ {
		switch rng.Intn(4) {
		case 0: // transfer, sometimes unaffordable
			amt := solana.Lamports(rng.Intn(3) * 2_000_000_000)
			if amt == 0 {
				amt = 1_000
			}
			instrs = append(instrs, &solana.Transfer{
				From: u.Pubkey(), To: w.users[rng.Intn(len(w.users))].Pubkey(), Amount: amt})
		case 1: // swap, sometimes with an impossible MinOut
			p := w.pools[rng.Intn(len(w.pools))]
			mint := p.MintA
			if rng.Intn(2) == 0 {
				mint = p.MintB
			}
			sw := &solana.Swap{Pool: p.Address, InputMint: mint,
				AmountIn: uint64(rng.Intn(1_000_000) + 1)}
			if rng.Intn(4) == 0 {
				sw.MinOut = 1 << 60
			}
			instrs = append(instrs, sw)
		case 2:
			instrs = append(instrs, &solana.Tip{TipAccount: w.tip,
				Amount: solana.Lamports(rng.Intn(10_000) + 1)})
		default:
			instrs = append(instrs, &solana.Memo{Data: []byte{byte(rng.Intn(256))}})
		}
	}
	return solana.NewTransaction(u, w.nonce, solana.Lamports(rng.Intn(1_000)), instrs...)
}

func TestBankAgainstModel(t *testing.T) {
	w := newModelWorld(99)
	bank, rng, randomTx := w.bank, w.rng, w.tx
	ref := snapshotModel(bank)

	const steps = 800
	for step := 0; step < steps; step++ {
		if rng.Intn(3) == 0 {
			// Bundle of 1–4 transactions: all-or-nothing.
			txs := make([]*solana.Transaction, 1+rng.Intn(4))
			for i := range txs {
				txs[i] = randomTx()
			}
			if _, err := bank.ExecuteBundle(txs); err == nil {
				ref = snapshotModel(bank) // committed: adopt new state
			}
			// On error the bank must have rolled back to ref exactly.
		} else {
			tx := randomTx()
			res, err := bank.ExecuteTx(tx)
			if err == nil {
				_ = res // fee charged regardless of res.Err; adopt state
				ref = snapshotModel(bank)
			}
			// err != nil: rejected outright, state must equal ref.
		}
		ref.equalTo(t, bank, step)

		// The journal must be fully unwound between operations.
		if bank.journal != nil {
			t.Fatalf("step %d: dangling journal", step)
		}
	}
}

// TestBundleRollbackConservation: lamports are conserved across arbitrary
// bundle failures — nothing is minted or burned by rollback paths (fees
// inside failed bundles included).
func TestBundleRollbackConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	bank := NewBank()
	a := solana.NewKeypairFromSeed("cons/a")
	b := solana.NewKeypairFromSeed("cons/b")
	tip := solana.NewKeypairFromSeed("cons/tip").Pubkey()
	bank.CreditLamports(a.Pubkey(), solana.LamportsPerSOL)
	bank.CreditLamports(b.Pubkey(), solana.LamportsPerSOL)

	total := func() solana.Lamports {
		var sum solana.Lamports
		lamports, _, _ := bank.flatState()
		for _, v := range lamports {
			sum += v
		}
		return sum
	}
	// Committed fees are burned from the payer but tracked in
	// FeesCollected; include them so the invariant is exact. Any rollback
	// accounting bug — a fee kept after an undone bundle, a counter not
	// unwound — breaks this equality.
	grand := func() solana.Lamports { return total() + bank.FeesCollected }

	want := grand()
	nonce := uint64(0)
	for i := 0; i < 300; i++ {
		nonce++
		txs := []*solana.Transaction{
			solana.NewTransaction(a, nonce, solana.Lamports(rng.Intn(100)),
				&solana.Transfer{From: a.Pubkey(), To: b.Pubkey(),
					Amount: solana.Lamports(rng.Intn(2_000_000_000))}),
			solana.NewTransaction(b, nonce, 0,
				&solana.Tip{TipAccount: tip, Amount: solana.Lamports(rng.Intn(5_000) + 1)}),
		}
		bank.ExecuteBundle(txs)
		if got := grand(); got != want {
			t.Fatalf("iteration %d: lamports not conserved: %d != %d", i, got, want)
		}
	}
}
