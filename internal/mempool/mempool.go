// Package mempool models transaction visibility — the property that makes
// MEV possible at all. Solana's original design has no public mempool, so
// pending transactions are visible only to the current leader; Jito's
// (now discontinued) public mempool exposed them to every searcher; since
// March 2024 private validator-operated mempools expose them to paying
// subscribers (paper §2.3).
//
// The pool tracks pending native (non-bundled) transactions. Searchers
// observe a per-searcher deterministic subset controlled by a visibility
// fraction, standing in for how much of the private-mempool ecosystem a
// given searcher has bought into.
package mempool

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"slices"

	"jitomev/internal/solana"
)

// Visibility describes who can observe pending transactions.
type Visibility int

const (
	// VisibilityLeaderOnly is stock Solana: no one but the leader sees
	// pending transactions, so public MEV is impossible.
	VisibilityLeaderOnly Visibility = iota
	// VisibilityPublic is the pre-March-2024 Jito mempool: every searcher
	// sees everything.
	VisibilityPublic
	// VisibilityPrivate is the post-March-2024 regime: each searcher sees
	// the fraction of traffic its private mempool subscriptions cover.
	VisibilityPrivate
)

// String names the visibility regime.
func (v Visibility) String() string {
	switch v {
	case VisibilityLeaderOnly:
		return "leader-only"
	case VisibilityPublic:
		return "public"
	case VisibilityPrivate:
		return "private"
	}
	return "unknown"
}

// Pending is a queued native transaction.
type Pending struct {
	Tx      *solana.Transaction
	Arrived solana.Slot
}

// Pool is the pending-transaction set. It is not safe for concurrent use;
// the simulation drives it from a single goroutine per study.
type Pool struct {
	Mode    Visibility
	pending map[solana.Signature]*Pending
	order   []solana.Signature // FIFO arrival order
	drain   []solana.Signature // DrainForBlock's reused sort scratch
}

// New creates an empty pool in the given visibility mode.
func New(mode Visibility) *Pool {
	return &Pool{Mode: mode, pending: make(map[solana.Signature]*Pending)}
}

// Add queues a transaction. Duplicate signatures are ignored.
func (p *Pool) Add(tx *solana.Transaction, slot solana.Slot) {
	if _, ok := p.pending[tx.Sig]; ok {
		return
	}
	p.pending[tx.Sig] = &Pending{Tx: tx, Arrived: slot}
	p.order = append(p.order, tx.Sig)
}

// Remove deletes a transaction (claimed by a bundle, landed, or expired)
// and reports whether it was present. A sandwich attacker "claims" its
// victim by removing it from the pool and re-submitting it inside a
// bundle.
func (p *Pool) Remove(sig solana.Signature) bool {
	if _, ok := p.pending[sig]; !ok {
		return false
	}
	delete(p.pending, sig)
	return true
}

// Len returns the number of pending transactions.
func (p *Pool) Len() int { return len(p.pending) }

// visibleTo reports whether a searcher with the given coverage fraction
// observes sig under the pool's visibility mode. The decision is a
// deterministic hash of (searcher, sig), so the same study always exposes
// the same transactions to the same searchers.
func (p *Pool) visibleTo(searcher solana.Pubkey, coverage float64, sig solana.Signature) bool {
	switch p.Mode {
	case VisibilityLeaderOnly:
		return false
	case VisibilityPublic:
		return true
	}
	if coverage <= 0 {
		return false
	}
	if coverage >= 1 {
		return true
	}
	h := sha256.New()
	h.Write([]byte("jitomev/visibility/"))
	h.Write(searcher[:])
	h.Write(sig[:])
	var sum [32]byte
	h.Sum(sum[:0])
	u := binary.LittleEndian.Uint64(sum[:8])
	return float64(u)/float64(^uint64(0)) < coverage
}

// Observe returns the pending transactions visible to a searcher, oldest
// first. coverage is the fraction of private-mempool traffic the searcher
// subscribes to (ignored in public mode).
func (p *Pool) Observe(searcher solana.Pubkey, coverage float64) []*Pending {
	var out []*Pending
	p.compactOrder()
	for _, sig := range p.order {
		pd, ok := p.pending[sig]
		if !ok {
			continue
		}
		if p.visibleTo(searcher, coverage, sig) {
			out = append(out, pd)
		}
	}
	return out
}

// DrainForBlock removes and returns up to max transactions ordered by
// descending priority fee (the leader's revenue-maximizing order), with
// arrival order breaking ties.
func (p *Pool) DrainForBlock(max int) []*solana.Transaction {
	if max <= 0 || len(p.pending) == 0 {
		return nil
	}
	p.compactOrder()
	sigs := p.drain[:0]
	for _, sig := range p.order {
		if _, ok := p.pending[sig]; ok {
			sigs = append(sigs, sig)
		}
	}
	p.drain = sigs
	slices.SortStableFunc(sigs, func(a, b solana.Signature) int {
		return cmp.Compare(p.pending[b].Tx.PriorityFee, p.pending[a].Tx.PriorityFee)
	})
	if len(sigs) > max {
		sigs = sigs[:max]
	}
	out := make([]*solana.Transaction, len(sigs))
	for i, sig := range sigs {
		out[i] = p.pending[sig].Tx
		delete(p.pending, sig)
	}
	return out
}

// Expire drops transactions that have waited more than maxAge slots,
// returning the number dropped. Mirrors blockhash expiry on Solana.
func (p *Pool) Expire(now solana.Slot, maxAge solana.Slot) int {
	dropped := 0
	for sig, pd := range p.pending {
		if now > pd.Arrived && now-pd.Arrived > maxAge {
			delete(p.pending, sig)
			dropped++
		}
	}
	return dropped
}

// compactOrder trims tombstones from the FIFO index once they dominate.
func (p *Pool) compactOrder() {
	if len(p.order) < 64 || len(p.order) < 2*len(p.pending) {
		return
	}
	live := p.order[:0]
	for _, sig := range p.order {
		if _, ok := p.pending[sig]; ok {
			live = append(live, sig)
		}
	}
	p.order = live
}
