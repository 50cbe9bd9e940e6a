// Package ledger implements the bank: the account state machine that
// executes transactions. It models the pieces of Solana's runtime the
// measurement pipeline observes — lamport balances, SPL token balances,
// AMM pool reserves, base and priority fees — and provides the atomic
// all-or-nothing bundle execution that Jito guarantees (paper §2.3).
//
// Execution is journaled: every state write inside a checkpoint records an
// undo entry, so a failed transaction (or any failure inside a bundle)
// rolls the state back exactly. Each executed transaction also yields a
// TxResult capturing its balance effects, the raw material for the
// explorer's transaction-detail endpoint and hence for the detector.
package ledger

import (
	"errors"
	"fmt"
	"maps"
	"sort"

	"jitomev/internal/amm"
	"jitomev/internal/solana"
)

// Errors returned by execution.
var (
	ErrInsufficientLamports = errors.New("ledger: insufficient lamports")
	ErrInsufficientTokens   = errors.New("ledger: insufficient token balance")
	ErrUnknownPool          = errors.New("ledger: unknown pool")
	ErrNotSigner            = errors.New("ledger: instruction not authorized by signer")
	ErrDuplicateTx          = errors.New("ledger: duplicate transaction signature")
)

// TokenKey addresses one (owner, mint) token balance.
type TokenKey struct {
	Owner solana.Pubkey
	Mint  solana.Pubkey
}

// TokenDelta is the net change of one (owner, mint) balance caused by a
// transaction — the simulated equivalent of Solana's pre/postTokenBalances,
// which is what the Jito Explorer's detail endpoint exposes and what the
// paper's detector consumes. The JSON tags are the explorer's wire names:
// jito.TokenDelta is this type.
type TokenDelta struct {
	Owner solana.Pubkey `json:"owner"`
	Mint  solana.Pubkey `json:"mint"`
	Delta int64         `json:"delta"`
}

// LamportDelta is the net lamport change of one account caused by a
// transaction (fees, transfers and tips).
type LamportDelta struct {
	Account solana.Pubkey
	Delta   int64
}

// SwapEffect records one executed swap: simulation-side ground truth that
// the real chain would only expose via instruction parsing.
type SwapEffect struct {
	Pool       solana.Pubkey
	InputMint  solana.Pubkey
	OutputMint solana.Pubkey
	AmountIn   uint64
	AmountOut  uint64
}

// TxResult is the outcome of executing one transaction.
type TxResult struct {
	Sig           solana.Signature
	Signer        solana.Pubkey
	Err           error // instruction-level failure; fees were still charged
	Fee           solana.Lamports
	Tip           solana.Lamports
	TipOnly       bool
	TokenDeltas   []TokenDelta
	LamportDeltas []LamportDelta
	Swaps         []SwapEffect
}

// Bank is the single-threaded account state machine: a Bank must only be
// used from one goroutine at a time. Callers that need concurrency wrap
// it; block production is inherently sequential per slot, so the hot path
// stays lock-free. The bank recycles its per-transaction scratch (undo
// journals and delta trackers), so steady-state execution allocates only
// the results it returns.
type Bank struct {
	slot     solana.Slot
	lamports map[solana.Pubkey]solana.Lamports
	tokens   map[TokenKey]uint64
	pools    map[solana.Pubkey]*amm.Pool

	// journal, non-nil while a checkpoint is open
	journal *journal

	// delta tracker, non-nil while a transaction is executing
	tracker *tracker

	// free lists of closed journals and finished trackers, for reuse
	freeJournals []*journal
	freeTrackers []*tracker

	// running totals
	FeesCollected solana.Lamports
	TipsCollected solana.Lamports
	TxCount       uint64
	FailedTxCount uint64
}

// NewBank returns an empty bank at slot 0.
func NewBank() *Bank {
	return &Bank{
		lamports: make(map[solana.Pubkey]solana.Lamports),
		tokens:   make(map[TokenKey]uint64),
		pools:    make(map[solana.Pubkey]*amm.Pool),
	}
}

// Slot returns the current slot.
func (b *Bank) Slot() solana.Slot { return b.slot }

// SetSlot advances the bank clock. Moving backwards is a programming error.
func (b *Bank) SetSlot(s solana.Slot) {
	if s < b.slot {
		panic(fmt.Sprintf("ledger: slot moved backwards %d -> %d", b.slot, s))
	}
	b.slot = s
}

// --- funding & setup ------------------------------------------------------

// CreditLamports adds lamports to an account, creating it if needed.
func (b *Bank) CreditLamports(acct solana.Pubkey, amt solana.Lamports) {
	b.setLamports(acct, b.lamports[acct]+amt)
}

// MintTo credits base units of mint to owner.
func (b *Bank) MintTo(owner, mint solana.Pubkey, amount uint64) {
	k := TokenKey{Owner: owner, Mint: mint}
	b.setToken(k, b.tokens[k]+amount)
}

// Reserve makes room for accounts more lamport balances and
// tokenAccounts more token balances, so funding a known population
// sizes each map once instead of growing it entry by entry. Existing
// balances are kept.
func (b *Bank) Reserve(accounts, tokenAccounts int) {
	lamports := make(map[solana.Pubkey]solana.Lamports, len(b.lamports)+accounts)
	maps.Copy(lamports, b.lamports)
	b.lamports = lamports
	tokens := make(map[TokenKey]uint64, len(b.tokens)+tokenAccounts)
	maps.Copy(tokens, b.tokens)
	b.tokens = tokens
}

// AddPool registers an AMM pool. The bank owns the pool from here on.
func (b *Bank) AddPool(p *amm.Pool) { b.pools[p.Address] = p }

// --- read access ----------------------------------------------------------

// Lamports returns an account's lamport balance.
func (b *Bank) Lamports(acct solana.Pubkey) solana.Lamports { return b.lamports[acct] }

// TokenBalance returns a token balance in base units.
func (b *Bank) TokenBalance(owner, mint solana.Pubkey) uint64 {
	return b.tokens[TokenKey{Owner: owner, Mint: mint}]
}

// PoolSnapshot returns an independent copy of a pool for what-if planning.
func (b *Bank) PoolSnapshot(addr solana.Pubkey) (*amm.Pool, bool) {
	p, ok := b.pools[addr]
	if !ok {
		return nil, false
	}
	return p.Clone(), true
}

// Pools returns snapshots of all pools, sorted by address for determinism.
func (b *Bank) Pools() []*amm.Pool {
	out := make([]*amm.Pool, 0, len(b.pools))
	for _, p := range b.pools {
		out = append(out, p.Clone())
	}
	sort.Slice(out, func(i, j int) bool {
		return out[i].Address.String() < out[j].Address.String()
	})
	return out
}

// --- journaled writes -----------------------------------------------------

type lamportUndo struct {
	key solana.Pubkey
	old solana.Lamports
}

type tokenUndo struct {
	key TokenKey
	old uint64
}

type poolUndo struct {
	key        solana.Pubkey
	oldA, oldB uint64
}

type journal struct {
	lamports []lamportUndo
	tokens   []tokenUndo
	pools    []poolUndo
	parent   *journal
}

// Checkpoint opens a nested undo scope. Every Checkpoint must be paired
// with exactly one Commit or Rollback.
func (b *Bank) Checkpoint() {
	var j *journal
	if n := len(b.freeJournals); n > 0 {
		j = b.freeJournals[n-1]
		b.freeJournals = b.freeJournals[:n-1]
	} else {
		j = new(journal)
	}
	j.parent = b.journal
	b.journal = j
}

// Commit merges the current scope into its parent (or discards the undo
// log at top level).
func (b *Bank) Commit() {
	j := b.journal
	if j == nil {
		panic("ledger: Commit without Checkpoint")
	}
	if p := j.parent; p != nil {
		p.lamports = append(p.lamports, j.lamports...)
		p.tokens = append(p.tokens, j.tokens...)
		p.pools = append(p.pools, j.pools...)
	}
	b.closeJournal(j)
}

// Rollback undoes every write made since the matching Checkpoint.
func (b *Bank) Rollback() {
	j := b.journal
	if j == nil {
		panic("ledger: Rollback without Checkpoint")
	}
	for i := len(j.lamports) - 1; i >= 0; i-- {
		b.lamports[j.lamports[i].key] = j.lamports[i].old
	}
	for i := len(j.tokens) - 1; i >= 0; i-- {
		b.tokens[j.tokens[i].key] = j.tokens[i].old
	}
	for i := len(j.pools) - 1; i >= 0; i-- {
		if p, ok := b.pools[j.pools[i].key]; ok {
			p.ReserveA = j.pools[i].oldA
			p.ReserveB = j.pools[i].oldB
		}
	}
	b.closeJournal(j)
}

// closeJournal pops j, the innermost scope, and keeps it for reuse.
func (b *Bank) closeJournal(j *journal) {
	b.journal = j.parent
	*j = journal{lamports: j.lamports[:0], tokens: j.tokens[:0], pools: j.pools[:0]}
	b.freeJournals = append(b.freeJournals, j)
}

func (b *Bank) setLamports(k solana.Pubkey, v solana.Lamports) {
	if b.journal != nil {
		b.journal.lamports = append(b.journal.lamports, lamportUndo{k, b.lamports[k]})
	}
	if b.tracker != nil {
		b.tracker.touchLamports(b, k)
	}
	b.lamports[k] = v
}

func (b *Bank) setToken(k TokenKey, v uint64) {
	if b.journal != nil {
		b.journal.tokens = append(b.journal.tokens, tokenUndo{k, b.tokens[k]})
	}
	if b.tracker != nil {
		b.tracker.touchToken(b, k)
	}
	b.tokens[k] = v
}

// poolWrite journals a pool's reserves before mutation.
func (b *Bank) poolWrite(p *amm.Pool) {
	if b.journal != nil {
		b.journal.pools = append(b.journal.pools, poolUndo{p.Address, p.ReserveA, p.ReserveB})
	}
}
