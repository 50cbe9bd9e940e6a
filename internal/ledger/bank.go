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
	"slices"

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

// account is one account's state: its lamports and its token balances,
// indexed by the bank's mint index. Indices past the end of tokens hold
// zero. An account, once created, stays at the same address, so journal
// entries and tracker pre-images point at it instead of naming it.
type account struct {
	key      solana.Pubkey
	lamports solana.Lamports
	tokens   []uint64
}

// balance returns the account's balance of the mint with index m.
func (a *account) balance(m int32) uint64 {
	if int(m) < len(a.tokens) {
		return a.tokens[m]
	}
	return 0
}

// Bank is the single-threaded account state machine: a Bank must only be
// used from one goroutine at a time. Callers that need concurrency wrap
// it; block production is inherently sequential per slot, so the hot path
// stays lock-free.
//
// The state is one record per account, holding its lamports and its token
// balances by mint index, so an instruction looks each distinct account
// up once and undoing a write looks nothing up. The bank recycles its
// per-transaction scratch (undo journals, delta trackers and the results
// ExecuteBundle returns), so steady-state execution allocates only the
// results callers keep.
type Bank struct {
	slot     solana.Slot
	accounts map[solana.Pubkey]*account
	mints    map[solana.Pubkey]int32 // mint → index into every account's tokens
	mintKeys []solana.Pubkey         // index → mint
	pools    map[solana.Pubkey]*amm.Pool

	// reserved storage handed to new accounts: records, and token
	// balances in runs of reservedTokens
	reserved       []account
	reservedCells  []uint64
	reservedTokens int

	// journal, non-nil while a checkpoint is open
	journal *journal

	// delta tracker, non-nil while a transaction is executing
	tracker *tracker

	// free lists of closed journals and finished trackers, for reuse
	freeJournals []*journal
	freeTrackers []*tracker

	// ExecuteBundle's results, reused by the next Execute* call
	slots   []resultSlot
	results []*TxResult

	// running totals
	FeesCollected solana.Lamports
	TipsCollected solana.Lamports
	TxCount       uint64
	FailedTxCount uint64
}

// NewBank returns an empty bank at slot 0.
func NewBank() *Bank {
	return &Bank{
		accounts: make(map[solana.Pubkey]*account),
		mints:    make(map[solana.Pubkey]int32),
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

// account returns k's record, creating an empty one if needed.
func (b *Bank) account(k solana.Pubkey) *account {
	if a := b.accounts[k]; a != nil {
		return a
	}
	var a *account
	if len(b.reserved) > 0 {
		a = &b.reserved[0]
		b.reserved = b.reserved[1:]
		n := b.reservedTokens
		a.tokens = b.reservedCells[:0:n]
		b.reservedCells = b.reservedCells[n:]
	} else {
		a = new(account)
	}
	a.key = k
	b.accounts[k] = a
	return a
}

// mintIndex returns mint's index, assigning the next one if needed.
func (b *Bank) mintIndex(mint solana.Pubkey) int32 {
	if m, ok := b.mints[mint]; ok {
		return m
	}
	m := int32(len(b.mintKeys))
	b.mints[mint] = m
	b.mintKeys = append(b.mintKeys, mint)
	return m
}

// --- funding & setup ------------------------------------------------------

// CreditLamports adds lamports to an account, creating it if needed.
func (b *Bank) CreditLamports(acct solana.Pubkey, amt solana.Lamports) {
	a := b.account(acct)
	b.setLamports(a, a.lamports+amt)
}

// MintTo credits base units of mint to owner.
func (b *Bank) MintTo(owner, mint solana.Pubkey, amount uint64) {
	a, m := b.account(owner), b.mintIndex(mint)
	b.setToken(a, m, a.balance(m)+amount)
}

// Reserve makes room for accounts more accounts holding tokenAccounts
// more token balances between them, so funding a known population
// allocates once instead of account by account. Each new account gets
// room for every mint known now plus its share of tokenAccounts in new
// mints. Existing balances are kept.
func (b *Bank) Reserve(accounts, tokenAccounts int) {
	if accounts <= 0 {
		return
	}
	grown := make(map[solana.Pubkey]*account, len(b.accounts)+accounts)
	maps.Copy(grown, b.accounts)
	b.accounts = grown
	newMints := (max(tokenAccounts, 0) + accounts - 1) / accounts
	mints := make(map[solana.Pubkey]int32, len(b.mints)+newMints)
	maps.Copy(mints, b.mints)
	b.mints = mints
	b.mintKeys = slices.Grow(b.mintKeys, newMints)
	b.reservedTokens = len(b.mintKeys) + newMints
	b.reserved = make([]account, accounts)
	b.reservedCells = make([]uint64, accounts*b.reservedTokens)
}

// AddPool registers an AMM pool. The bank owns the pool from here on.
func (b *Bank) AddPool(p *amm.Pool) { b.pools[p.Address] = p }

// --- read access ----------------------------------------------------------

// Lamports returns an account's lamport balance.
func (b *Bank) Lamports(acct solana.Pubkey) solana.Lamports {
	if a := b.accounts[acct]; a != nil {
		return a.lamports
	}
	return 0
}

// TokenBalance returns a token balance in base units.
func (b *Bank) TokenBalance(owner, mint solana.Pubkey) uint64 {
	a := b.accounts[owner]
	m, ok := b.mints[mint]
	if a == nil || !ok {
		return 0
	}
	return a.balance(m)
}

// PoolSnapshot returns a copy of a pool, by value, for what-if planning.
func (b *Bank) PoolSnapshot(addr solana.Pubkey) (amm.Pool, bool) {
	p, ok := b.pools[addr]
	if !ok {
		return amm.Pool{}, false
	}
	return *p, true
}

// --- journaled writes -----------------------------------------------------

type lamportUndo struct {
	acct *account
	old  solana.Lamports
}

type tokenUndo struct {
	acct *account
	mint int32
	old  uint64
}

type poolUndo struct {
	pool       *amm.Pool
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
		j.lamports[i].acct.lamports = j.lamports[i].old
	}
	for i := len(j.tokens) - 1; i >= 0; i-- {
		u := &j.tokens[i]
		u.acct.tokens[u.mint] = u.old
	}
	for i := len(j.pools) - 1; i >= 0; i-- {
		u := &j.pools[i]
		u.pool.ReserveA, u.pool.ReserveB = u.oldA, u.oldB
	}
	b.closeJournal(j)
}

// closeJournal pops j, the innermost scope, and keeps it for reuse.
func (b *Bank) closeJournal(j *journal) {
	b.journal = j.parent
	*j = journal{lamports: j.lamports[:0], tokens: j.tokens[:0], pools: j.pools[:0]}
	b.freeJournals = append(b.freeJournals, j)
}

func (b *Bank) setLamports(a *account, v solana.Lamports) {
	if b.journal != nil {
		b.journal.lamports = append(b.journal.lamports, lamportUndo{a, a.lamports})
	}
	if b.tracker != nil {
		b.tracker.touchLamports(a)
	}
	a.lamports = v
}

func (b *Bank) setToken(a *account, m int32, v uint64) {
	if int(m) >= len(a.tokens) {
		// Cells past len are zero: an account's tokens never shrink.
		n := int(m) + 1
		if n > cap(a.tokens) {
			a.tokens = append(a.tokens[:cap(a.tokens)], make([]uint64, max(n, len(b.mintKeys))-cap(a.tokens))...)
		}
		a.tokens = a.tokens[:n]
	}
	if b.journal != nil {
		b.journal.tokens = append(b.journal.tokens, tokenUndo{a, m, a.tokens[m]})
	}
	if b.tracker != nil {
		b.tracker.touchToken(a, m)
	}
	a.tokens[m] = v
}

// poolWrite journals a pool's reserves before mutation.
func (b *Bank) poolWrite(p *amm.Pool) {
	if b.journal != nil {
		b.journal.pools = append(b.journal.pools, poolUndo{p, p.ReserveA, p.ReserveB})
	}
}
