package jito

import (
	"cmp"
	"slices"

	"jitomev/internal/ledger"
	"jitomev/internal/solana"
)

// Accepted describes a bundle that landed on chain, together with the
// execution results the Explorer derives its detail endpoint from.
type Accepted struct {
	Record  BundleRecord
	Details []TxDetail
	// DelaySlots is the inclusion latency: slots between submission and
	// landing. Zero when the engine is uncongested — which is why prior
	// work found higher tips buy "negligible" confirmation-time benefit
	// for length-1 bundles in normal conditions (paper §3.3, ref [1]);
	// only under per-slot capacity pressure does the tip auction turn
	// into a latency queue.
	DelaySlots solana.Slot
}

// Rejection reasons counted by the engine.
type EngineStats struct {
	Submitted        uint64
	AcceptedCount    uint64
	RejectedInvalid  uint64 // failed Validate (size, tip, signatures)
	RejectedExec     uint64 // atomic execution failed (e.g. victim slippage)
	TipsPaid         solana.Lamports
	TxsLanded        uint64
	ByLength         [MaxBundleTxs + 1]uint64 // accepted bundles by length
	RejectedByLength [MaxBundleTxs + 1]uint64 // exec-rejected bundles by length
}

// BlockEngine queues submitted bundles and, once per slot, auctions them by
// tip and executes each atomically against the bank. Higher tips execute
// earlier, which is why "attackers are using Jito tips to prioritize their
// attack bundles, potentially to outbid others attacking the same victim
// transaction" (paper §4.2).
type BlockEngine struct {
	bank    *ledger.Bank
	clock   solana.Clock
	pending []pendingBundle
	seq     uint64
	Stats   EngineStats

	// MaxBundlesPerSlot caps how many bundles one block fits. 0 means
	// unlimited (the default; the real engine's capacity is rarely
	// binding). With a cap, lower-tip bundles queue across slots and the
	// tip auction becomes a latency auction.
	MaxBundlesPerSlot int
}

type pendingBundle struct {
	bundle    *Bundle
	tip       solana.Lamports // bundle.Tip(), walked once at Submit
	submitted solana.Slot
}

// NewBlockEngine creates an engine executing against bank.
func NewBlockEngine(bank *ledger.Bank, clock solana.Clock) *BlockEngine {
	return &BlockEngine{bank: bank, clock: clock}
}

// Submit queues a bundle for the next slot. Structurally invalid bundles
// are rejected immediately, like the real engine's pre-checks.
func (e *BlockEngine) Submit(b *Bundle) error {
	e.Stats.Submitted++
	if err := b.Validate(); err != nil {
		e.Stats.RejectedInvalid++
		return err
	}
	e.pending = append(e.pending, pendingBundle{bundle: b, tip: b.Tip(), submitted: e.bank.Slot()})
	return nil
}

// PendingCount returns the number of queued bundles.
func (e *BlockEngine) PendingCount() int { return len(e.pending) }

// Simulate dry-runs a bundle against current state and rolls everything
// back — the equivalent of Jito's simulateBundle RPC. Searchers use it to
// drop plans invalidated by state that moved between quoting and
// submission, instead of burning a slot on an atomic rejection.
//
// The results are the bank's reused ExecuteBundle results: they stay
// valid until the bank's next ExecuteTx or ExecuteBundle call, including
// the next Simulate or ProcessSlot.
func (e *BlockEngine) Simulate(b *Bundle) ([]*ledger.TxResult, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	e.bank.Checkpoint()
	results, err := e.bank.ExecuteBundle(b.Txs)
	if err != nil {
		e.bank.Rollback()
		return nil, err
	}
	// Undo everything, including the counters the committed bundle bumped.
	e.bank.Rollback()
	e.bank.TxCount -= uint64(len(results))
	for _, r := range results {
		e.bank.FeesCollected -= r.Fee
		e.bank.TipsCollected -= r.Tip
	}
	return results, nil
}

// ProcessSlot executes all pending bundles for the given slot, ordered by
// descending tip (ties broken by submission order for determinism), and
// returns those that landed. Bundles whose atomic execution fails are
// dropped — on the real chain they simply never land, costing the
// submitter nothing, which is the "no financial risk" property defensive
// bundlers and attackers both rely on.
func (e *BlockEngine) ProcessSlot(slot solana.Slot) []*Accepted {
	if len(e.pending) == 0 {
		return nil
	}
	e.bank.SetSlot(slot)

	slices.SortStableFunc(e.pending, func(a, b pendingBundle) int {
		return cmp.Compare(b.tip, a.tip)
	})
	batch := e.pending
	carry := e.MaxBundlesPerSlot > 0 && len(batch) > e.MaxBundlesPerSlot
	if carry {
		batch = batch[:e.MaxBundlesPerSlot]
		e.pending = e.pending[e.MaxBundlesPerSlot:]
	}

	accepted := make([]*Accepted, 0, len(batch))
	for _, pb := range batch {
		b := pb.bundle
		results, err := e.bank.ExecuteBundle(b.Txs)
		if err != nil {
			e.Stats.RejectedExec++
			e.Stats.RejectedByLength[b.Len()]++
			continue
		}
		e.seq++
		rec := BundleRecord{
			Seq:      e.seq,
			ID:       b.ID(),
			Slot:     slot,
			UnixMs:   e.clock.TimeOf(slot).UnixMilli(),
			TxIDs:    b.TxIDs(),
			TipLamps: uint64(pb.tip),
		}
		details := make([]TxDetail, len(results))
		for i, r := range results {
			details[i] = DetailFromResult(r, slot)
		}
		delay := solana.Slot(0)
		if slot > pb.submitted {
			delay = slot - pb.submitted
		}
		accepted = append(accepted, &Accepted{Record: rec, Details: details, DelaySlots: delay})

		e.Stats.AcceptedCount++
		e.Stats.ByLength[b.Len()]++
		e.Stats.TipsPaid += pb.tip
		e.Stats.TxsLanded += uint64(len(b.Txs))
	}
	if !carry {
		// The whole queue ran: keep its backing array for the next
		// slot's Submits, without the processed bundles.
		clear(batch)
		e.pending = batch[:0]
	}
	return accepted
}
