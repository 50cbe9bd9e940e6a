package core

import "jitomev/internal/jito"

// Extended detection: the paper notes its length-3 methodology misses
// disguised sandwiches — "adding on a fourth unrelated transaction, an
// unrelated currency trade, or doing multiple sandwiches in one bundle"
// (§3.2) — and therefore reports a lower bound. DetectExtended closes that
// gap for bundles up to the Jito maximum of five transactions by searching
// for an embedded A–B–A triple among the member transactions, tolerating
// padding (memos, tip-only transactions, unrelated trades) anywhere in the
// bundle.
//
// The embedded triple must satisfy the same criteria as the length-3
// detector: same outer signer, different middle signer (C1), one traded
// mint pair (C2), same direction on the first two legs (C3), and attacker
// profit (C4). Tip-only transactions never participate as legs, which
// subsumes C5.

// ExtendedVerdict reports every embedded sandwich found in one bundle.
type ExtendedVerdict struct {
	// Sandwiches holds one verdict per disjoint embedded sandwich, in
	// leftmost-first order. Empty means no sandwich found.
	Sandwiches []Verdict
	// Indices[i] are the bundle positions of Sandwiches[i]'s
	// front-run, victim and back-run transactions.
	Indices [][3]int
}

// Found reports whether at least one embedded sandwich was detected.
func (e *ExtendedVerdict) Found() bool { return len(e.Sandwiches) > 0 }

// DetectExtended scans a bundle of any length (3–5 in practice) for
// embedded sandwiches. Triples are claimed greedily leftmost-first and
// disjointly, so a five-transaction bundle can in principle yield one
// sandwich plus padding, and overlapping candidates never double-count.
func (dt *Detector) DetectExtended(rec *jito.BundleRecord, details []jito.TxDetail) ExtendedVerdict {
	var out ExtendedVerdict
	n := len(details)
	if n < 3 || n > jito.MaxBundleTxs {
		return out
	}

	// Precompute trades; tip-only and trade-less transactions are
	// padding and can never be a sandwich leg. n is bounded, so the
	// scratch lives on the stack.
	var trades [jito.MaxBundleTxs]trade
	var legOK, used [jito.MaxBundleTxs]bool
	for i := range details {
		if details[i].TipOnly {
			continue
		}
		trades[i] = tradeOf(&details[i])
		legOK[i] = trades[i].ok
	}

	for i := 0; i < n-2; i++ {
		if used[i] || !legOK[i] {
			continue
		}
		for j := i + 1; j < n-1; j++ {
			if used[j] || !legOK[j] {
				continue
			}
			matched := false
			for k := j + 1; k < n; k++ {
				if used[k] || !legOK[k] {
					continue
				}
				v, ok := dt.tryTriple(rec, trades[i], trades[j], trades[k])
				if !ok {
					continue
				}
				out.Sandwiches = append(out.Sandwiches, v)
				out.Indices = append(out.Indices, [3]int{i, j, k})
				used[i], used[j], used[k] = true, true, true
				matched = true
				break
			}
			if matched {
				break
			}
		}
	}
	return out
}

// tryTriple applies the C1–C4 criteria to an ordered (front, victim, back)
// trade triple and quantifies on success.
func (dt *Detector) tryTriple(rec *jito.BundleRecord, t1, t2, t3 trade) (Verdict, bool) {
	v := Verdict{TipLamports: rec.TipLamps}

	// C1: same outer signer, different middle signer.
	if t1.signer != t3.signer || t1.signer == t2.signer {
		return v, false
	}
	// C2: one traded mint pair across all three legs.
	p := pairOf(t1.sold, t1.bought)
	if pairOf(t2.sold, t2.bought) != p || pairOf(t3.sold, t3.bought) != p {
		return v, false
	}
	// C3: front-run trades in the victim's direction.
	if t1.bought != t2.bought || t1.sold != t2.sold {
		return v, false
	}
	// C4: attacker profit across the outer legs.
	netSold := int64(t3.boughtAm) - int64(t1.soldAmt)
	netBought := int64(t1.boughtAm) - int64(t3.soldAmt)
	gainNoPayment := netSold >= 0 && netBought >= 0 && (netSold > 0 || netBought > 0)
	if !gainNoPayment && netSold <= 0 {
		return v, false
	}

	v.Sandwich = true
	v.Attacker = t1.signer
	v.Victim = t2.signer
	dt.quantify(&v, t1, t2, netSold, netBought)
	return v, true
}
