package stream

import (
	"jitomev/internal/core"
	"jitomev/internal/jito"
	"jitomev/internal/obs"
	"jitomev/internal/solana"
	"jitomev/internal/token"
)

// Cross-block detection: the batch methodology only sees sandwiches whose
// three legs share one bundle. An attacker that front-runs in one bundle
// and back-runs in another — possibly blocks later, within a window of
// consecutive slots the same leader builds — is invisible to it. This
// stage tracks open positions in a bounded candidate cache keyed by
// (pool, signer):
//
//   - every clean trade opens (or refreshes) a candidate — a potential
//     front-leg — and marks same-direction trades by other signers as
//     that candidate's victim;
//   - an opposite-direction trade by the same signer on the same pool
//     closes the position; if a victim traded in between, the close came
//     from a different bundle, the span fits the leader-contiguity
//     window, and the legs net a profit (the batch C4 test), a
//     CrossVerdict is emitted.
//
// The cache is hard-bounded: capacity evictions (LRU by front freshness)
// and window evictions (candidates whose window expired) are both
// counted, so the byte bound is provable from the counters plus the
// high-water gauge. All mutation happens in the engine's ordered fold, in
// canonical slot/record order, so verdicts and counters are
// bit-identical at every Workers setting.

// CrossConfig bounds the cross-block stage.
type CrossConfig struct {
	// WindowSlots is the leader-contiguity window K: a back-leg landing
	// more than K slots after its front-leg cannot complete a sandwich.
	// 0 disables the stage.
	WindowSlots int

	// MaxBytes bounds cache memory (accounted at candBytes per entry,
	// a deliberately conservative per-candidate footprint). ≤ 0 selects
	// 1 MiB.
	MaxBytes int

	// SOLMint for gain quantification; zero selects wrapped SOL.
	SOLMint solana.Pubkey
}

// CrossVerdict is one cross-block sandwich: front- and back-legs from
// different bundles, an interleaved victim, bounded slot span, positive
// net for the attacker.
type CrossVerdict struct {
	Attacker solana.Pubkey
	Victim   solana.Pubkey
	Pair     core.MintPair

	FrontSlot, BackSlot solana.Slot
	FrontID, BackID     jito.BundleID
	FrontTip, BackTip   uint64

	// HasSOL gates the gain figure, like the in-block verdicts.
	HasSOL               bool
	AttackerGainLamports float64
}

// SpanSlots is the front→back distance in slots.
func (v *CrossVerdict) SpanSlots() int { return int(v.BackSlot - v.FrontSlot) }

// candBytes is the per-candidate accounting unit: the candidate struct
// (~312 B), its cache map entry, and its pair-index slot, rounded up so
// len(cache)*candBytes over-counts true footprint.
const candBytes = 512

// candKey identifies an open position: one signer on one pool.
type candKey struct {
	pair   core.MintPair
	signer solana.Pubkey
}

// candidate is an open front-leg awaiting its back-leg. LRU links order
// candidates by front freshness (head = newest), which is also frontSlot
// order — eviction and window expiry both pop the tail.
type candidate struct {
	key       candKey
	front     core.Trade
	frontSlot solana.Slot
	frontID   jito.BundleID
	frontTip  uint64

	victim     solana.Pubkey
	victimSeen bool

	prev, next *candidate // LRU links
	pairNext   *candidate // per-pair index chain (newest first)
}

type crossTracker struct {
	cfg        CrossConfig
	solMint    solana.Pubkey
	maxEntries int

	cache  map[candKey]*candidate
	byPair map[core.MintPair]*candidate // head of each pair's chain
	head   *candidate                   // newest front
	tail   *candidate                   // stalest front

	verdicts  []CrossVerdict
	highWater int        // max len(cache) observed
	free      *candidate // freelist of removed candidates (linked via next)

	cCand, cVerd            *obs.Counter
	cEvictWindow, cEvictCap *obs.Counter
	gBytes                  *obs.Gauge
}

func newCrossTracker(cfg CrossConfig, reg *obs.Registry) *crossTracker {
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = 1 << 20
	}
	if cfg.SOLMint == (solana.Pubkey{}) {
		cfg.SOLMint = token.SOL.Address
	}
	maxEntries := cfg.MaxBytes / candBytes
	if maxEntries < 1 {
		maxEntries = 1
	}
	reg.Help("stream_cross_candidates_total", "Cross-block front-leg candidates opened.")
	reg.Help("stream_cross_verdicts_total", "Cross-block sandwich verdicts emitted.")
	reg.Help("stream_cross_evictions_total", "Cross-block candidates evicted, by reason.")
	reg.Help("stream_cross_cache_bytes", "Cross-block candidate cache footprint (accounted bytes).")
	return &crossTracker{
		cfg:          cfg,
		solMint:      cfg.SOLMint,
		maxEntries:   maxEntries,
		cache:        make(map[candKey]*candidate),
		byPair:       make(map[core.MintPair]*candidate),
		cCand:        reg.Counter("stream_cross_candidates_total"),
		cVerd:        reg.Counter("stream_cross_verdicts_total"),
		cEvictWindow: reg.Counter("stream_cross_evictions_total", "reason", "window"),
		cEvictCap:    reg.Counter("stream_cross_evictions_total", "reason", "capacity"),
		gBytes:       reg.Gauge("stream_cross_cache_bytes"),
	}
}

// processSlot feeds every clean trade of a sealed slot through the
// tracker in canonical order, then expires candidates whose window
// closed. Fold goroutine only.
func (c *crossTracker) processSlot(job *slotJob) {
	for i := range job.events {
		ev := &job.events[i]
		if len(ev.Details) != ev.Rec.NumTxs() {
			continue
		}
		for t := range ev.Details {
			tr, ok := core.ExtractTrade(&ev.Details[t])
			if !ok {
				continue
			}
			c.observe(job.slot, ev.Rec.ID, ev.Rec.TipLamps, tr)
		}
	}
	c.expire(job.slot)
}

// observe advances the tracker by one trade.
func (c *crossTracker) observe(slot solana.Slot, id jito.BundleID, tip uint64, tr core.Trade) {
	key := candKey{pair: tr.Pair(), signer: tr.Signer}
	if cand, ok := c.cache[key]; ok {
		if cand.front.Opposes(tr) {
			// Back-leg: the position closes either way; a verdict needs a
			// victim in between, a distinct bundle, an in-window span, and
			// attacker profit.
			if cand.victimSeen && id != cand.frontID &&
				int(slot-cand.frontSlot) <= c.cfg.WindowSlots {
				c.emit(cand, slot, id, tip, tr)
			}
			c.remove(cand)
			// The back trade is itself a fresh position in the opposite
			// direction; fall through to open it.
		} else {
			// Re-front: the newest outlay is the live position; victim
			// marking restarts behind it.
			cand.front = tr
			cand.frontSlot, cand.frontID, cand.frontTip = slot, id, tip
			cand.victim, cand.victimSeen = solana.Pubkey{}, false
			c.moveFront(cand)
			c.markVictims(key, tr)
			return
		}
	}
	c.markVictims(key, tr)
	c.insert(key, tr, slot, id, tip)
}

// markVictims records tr's signer as the victim of every other open
// candidate on the pool whose front runs the same direction — the C3
// shape (the front-run raised the rate the victim pays) stretched across
// bundles. Marking every match keeps the pass order-free.
func (c *crossTracker) markVictims(key candKey, tr core.Trade) {
	for cand := c.byPair[key.pair]; cand != nil; cand = cand.pairNext {
		if cand.key.signer != key.signer && !cand.victimSeen && cand.front.SameDirection(tr) {
			cand.victim = tr.Signer
			cand.victimSeen = true
		}
	}
}

// emit appends one verdict if the legs pass the batch detector's C4
// profit test.
func (c *crossTracker) emit(cand *candidate, slot solana.Slot, id jito.BundleID, tip uint64, back core.Trade) {
	front := cand.front
	netSold := int64(back.BoughtAmount) - int64(front.SoldAmount)
	netBought := int64(front.BoughtAmount) - int64(back.SoldAmount)
	gainNoPayment := netSold >= 0 && netBought >= 0 && (netSold > 0 || netBought > 0)
	if !gainNoPayment && netSold <= 0 {
		return
	}
	v := CrossVerdict{
		Attacker:  cand.key.signer,
		Victim:    cand.victim,
		Pair:      cand.key.pair,
		FrontSlot: cand.frontSlot,
		BackSlot:  slot,
		FrontID:   cand.frontID,
		BackID:    id,
		FrontTip:  cand.frontTip,
		BackTip:   tip,
	}
	switch c.solMint {
	case front.Sold:
		v.HasSOL = true
		v.AttackerGainLamports = float64(netSold)
	case front.Bought:
		v.HasSOL = true
		v.AttackerGainLamports = float64(netBought)
	}
	c.verdicts = append(c.verdicts, v)
	c.cVerd.Inc()
}

// insert opens a candidate, evicting the stalest front at capacity.
func (c *crossTracker) insert(key candKey, tr core.Trade, slot solana.Slot, id jito.BundleID, tip uint64) {
	if len(c.cache) >= c.maxEntries {
		c.cEvictCap.Inc()
		c.remove(c.tail)
	}
	cand := c.free
	if cand != nil {
		c.free = cand.next
		*cand = candidate{}
	} else {
		cand = new(candidate)
	}
	cand.key, cand.front = key, tr
	cand.frontSlot, cand.frontID, cand.frontTip = slot, id, tip
	c.cache[key] = cand
	cand.pairNext = c.byPair[key.pair]
	c.byPair[key.pair] = cand
	c.pushFront(cand)
	c.cCand.Inc()
	if n := len(c.cache); n > c.highWater {
		c.highWater = n
	}
	c.gBytes.Set(int64(len(c.cache) * candBytes))
}

// expire drops candidates whose back-leg can no longer land in window:
// once slot s is processed, any later trade lands in a slot > s, so a
// front older than s-K+1 is dead.
func (c *crossTracker) expire(sealed solana.Slot) {
	w := solana.Slot(c.cfg.WindowSlots)
	if sealed < w {
		return
	}
	evicted := false
	for c.tail != nil && c.tail.frontSlot < sealed-w {
		c.cEvictWindow.Inc()
		c.remove(c.tail)
		evicted = true
	}
	if evicted {
		c.gBytes.Set(int64(len(c.cache) * candBytes))
	}
}

// Bytes is the cache's accounted footprint right now.
func (c *crossTracker) bytes() int { return len(c.cache) * candBytes }

// remove unlinks a candidate from the cache, the pair index and the LRU
// list.
func (c *crossTracker) remove(cand *candidate) {
	delete(c.cache, cand.key)
	if head := c.byPair[cand.key.pair]; head == cand {
		if cand.pairNext == nil {
			delete(c.byPair, cand.key.pair)
		} else {
			c.byPair[cand.key.pair] = cand.pairNext
		}
	} else {
		for x := head; x != nil; x = x.pairNext {
			if x.pairNext == cand {
				x.pairNext = cand.pairNext
				break
			}
		}
	}
	cand.pairNext = nil
	c.unlink(cand)
	cand.next, c.free = c.free, cand
}

func (c *crossTracker) pushFront(cand *candidate) {
	cand.prev, cand.next = nil, c.head
	if c.head != nil {
		c.head.prev = cand
	}
	c.head = cand
	if c.tail == nil {
		c.tail = cand
	}
}

func (c *crossTracker) moveFront(cand *candidate) {
	if c.head == cand {
		return
	}
	c.unlink(cand)
	c.pushFront(cand)
}

func (c *crossTracker) unlink(cand *candidate) {
	if cand.prev != nil {
		cand.prev.next = cand.next
	} else if c.head == cand {
		c.head = cand.next
	}
	if cand.next != nil {
		cand.next.prev = cand.prev
	} else if c.tail == cand {
		c.tail = cand.prev
	}
	cand.prev, cand.next = nil, nil
}
