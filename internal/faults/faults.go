// Package faults is the failure taxonomy of the paper's data source and a
// deterministic injector for it. The paper's dataset exists only because
// its scraper survived four months of an undocumented, rate-limited web
// API — outages, throttling and traffic spikes are first-class phenomena
// (§3.1's overlap check, the grey gaps in Figures 1–2). This package makes
// those failures reproducible: every injected fault is a pure function of
// (seed, call index), so a chaos run is exactly repeatable and
// bit-identical at any worker count.
//
// The package has three faces:
//
//   - the taxonomy itself (Class, Error, Classify) — shared vocabulary
//     between the injectors and the hardened consumers in
//     internal/collector, which count what they survive per class;
//   - Transport, a fault-injecting wrapper around any collector-style
//     transport (the in-process chaos path);
//   - ChaosHandler, HTTP middleware that injects wire-level faults
//     (429 + Retry-After, 5xx, slow responses, truncated and corrupt
//     JSON) in front of the explorer server (the faithful chaos path).
package faults

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"sync/atomic"
	"time"

	"jitomev/internal/obs"
)

// Class identifies one failure mode of the explorer API, as the paper's
// scraper experienced them.
type Class int

const (
	// ClassNone is the absence of a fault (the call proceeds normally).
	ClassNone Class = iota
	// ClassTransport is a connection-level failure: reset, refused, EOF.
	ClassTransport
	// ClassThrottle is HTTP 429, optionally carrying Retry-After.
	ClassThrottle
	// ClassServer is HTTP 5xx (500/502/503).
	ClassServer
	// ClassTimeout is a request that exceeds its deadline (or a response
	// slow enough that the client gives up).
	ClassTimeout
	// ClassTruncate is a response body cut off mid-stream.
	ClassTruncate
	// ClassCorrupt is a response body with flipped bytes (invalid JSON).
	ClassCorrupt
	// ClassPartial is a detail response missing some requested ids.
	ClassPartial
	// ClassDuplicate is a page with repeated entries.
	ClassDuplicate
	// ClassReorder is a page with entries out of acceptance order.
	ClassReorder
	// ClassDelay is a bundle delivered late — it arrives after bundles
	// from younger slots, the out-of-order arrival a streaming consumer's
	// watermark must absorb (or count as dropped when the delay exceeds
	// its allowed lateness).
	ClassDelay
	// ClassCrash is a whole-process death: the replica stops mid-batch
	// without releasing its leases or flushing its in-memory progress —
	// the failure mode a fleet's lease TTL plus checkpoint resume exists
	// to absorb.
	ClassCrash
	// ClassPartition is a split-brain network partition from the
	// coordinator: the replica keeps fetching and writing but can no
	// longer renew its lease, so after takeover every one of its
	// checkpoint writes must be fenced off by the epoch check.
	ClassPartition

	// NumClasses bounds the taxonomy (ClassNone included).
	NumClasses
)

var classNames = [NumClasses]string{
	"none", "transport", "throttle", "server", "timeout",
	"truncate", "corrupt", "partial", "duplicate", "reorder", "delay",
	"crash", "partition",
}

// String implements fmt.Stringer.
func (c Class) String() string {
	if c < 0 || c >= NumClasses {
		return fmt.Sprintf("class(%d)", int(c))
	}
	return classNames[c]
}

// Mask selects a subset of classes an injection site can produce: a page
// request cannot suffer a partial-details fault, an HTTP middleware cannot
// reorder entries it never parses.
type Mask uint16

// Has reports whether the mask includes c.
func (m Mask) Has(c Class) bool { return m&(1<<uint(c)) != 0 }

// MaskOf builds a mask from classes.
func MaskOf(classes ...Class) Mask {
	var m Mask
	for _, c := range classes {
		m |= 1 << uint(c)
	}
	return m
}

// Masks for the standard injection sites.
var (
	// PageMask: faults a recent-bundles (or backfill cursor) call can hit.
	PageMask = MaskOf(ClassTransport, ClassThrottle, ClassServer, ClassTimeout,
		ClassTruncate, ClassCorrupt, ClassDuplicate, ClassReorder)
	// DetailMask: faults a bulk transaction-details call can hit.
	DetailMask = MaskOf(ClassTransport, ClassThrottle, ClassServer, ClassTimeout,
		ClassTruncate, ClassCorrupt, ClassPartial)
	// HTTPMask: faults the wire-level chaos middleware can inject.
	HTTPMask = MaskOf(ClassThrottle, ClassServer, ClassTimeout,
		ClassTruncate, ClassCorrupt)
	// FeedMask: faults a per-bundle delivery feed can suffer — late
	// (out-of-order) arrival and repeated delivery.
	FeedMask = MaskOf(ClassDelay, ClassDuplicate)
	// ReplicaMask: whole-replica faults a fleet member can suffer —
	// crashing outright or being partitioned away from the coordinator.
	ReplicaMask = MaskOf(ClassCrash, ClassPartition)
)

// classes expands the mask into a stable, ascending class list.
func (m Mask) classes() []Class {
	out := make([]Class, 0, NumClasses)
	for c := ClassTransport; c < NumClasses; c++ {
		if m.Has(c) {
			out = append(out, c)
		}
	}
	return out
}

// Error is a classified failure. The injectors return it and the hardened
// HTTP transport converts real wire failures into it, so every consumer
// counts faults with one vocabulary.
type Error struct {
	Class      Class
	Status     int           // HTTP status, when Class is Throttle/Server
	RetryAfter time.Duration // server-suggested delay (0 = none given)
	Err        error         // wrapped cause, may be nil for injected faults
}

// Error implements error.
func (e *Error) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "faults: %s", e.Class)
	if e.Status != 0 {
		fmt.Fprintf(&b, " (HTTP %d)", e.Status)
	}
	if e.RetryAfter > 0 {
		fmt.Fprintf(&b, " retry-after %s", e.RetryAfter)
	}
	if e.Err != nil {
		fmt.Fprintf(&b, ": %v", e.Err)
	}
	return b.String()
}

// Unwrap exposes the cause to errors.Is/As.
func (e *Error) Unwrap() error { return e.Err }

// Timeout implements the net.Error-style timeout probe.
func (e *Error) Timeout() bool { return e.Class == ClassTimeout }

// Temporary reports whether retrying may succeed: everything except
// corrupt payloads (which a retry of the same cached page may repeat).
func (e *Error) Temporary() bool { return e.Class != ClassCorrupt }

// Classify maps any error onto the taxonomy. Typed *Error values carry
// their class; otherwise timeouts, context deadlines, truncated streams
// and JSON syntax errors are recognized structurally, and everything else
// is a transport-level failure.
func Classify(err error) Class {
	if err == nil {
		return ClassNone
	}
	var fe *Error
	if errors.As(err, &fe) {
		return fe.Class
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return ClassTimeout
	}
	var to interface{ Timeout() bool }
	if errors.As(err, &to) && to.Timeout() {
		return ClassTimeout
	}
	if errors.Is(err, io.ErrUnexpectedEOF) {
		return ClassTruncate
	}
	var syn *json.SyntaxError
	var typ *json.UnmarshalTypeError
	if errors.As(err, &syn) || errors.As(err, &typ) {
		return ClassCorrupt
	}
	return ClassTransport
}

// DecodeClass classifies a failed response-body decode: a body cut short
// (by the wire or by a size cap) is truncation, anything else that fails
// to decode is corruption.
func DecodeClass(err error) Class {
	if errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF) {
		return ClassTruncate
	}
	return ClassCorrupt
}

// Stats counts faults per class. Not synchronized: each consumer owns its
// own Stats (the Injector keeps its own atomic tally and snapshots it).
type Stats [NumClasses]uint64

// Record counts one classified error (nil errors are ignored).
func (s *Stats) Record(err error) {
	if c := Classify(err); c != ClassNone {
		s[c]++
	}
}

// Add counts one occurrence of class c.
func (s *Stats) Add(c Class) {
	if c > ClassNone && c < NumClasses {
		s[c]++
	}
}

// Total sums all fault classes (ClassNone excluded).
func (s Stats) Total() uint64 {
	var n uint64
	for c := ClassTransport; c < NumClasses; c++ {
		n += s[c]
	}
	return n
}

// String renders the non-zero classes, e.g. "throttle=3 server=1".
func (s Stats) String() string {
	var b strings.Builder
	for c := ClassTransport; c < NumClasses; c++ {
		if s[c] == 0 {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d", c, s[c])
	}
	if b.Len() == 0 {
		return "none"
	}
	return b.String()
}

// splitmix64 is the SplitMix64 finalizer: a high-quality 64-bit mixer,
// the same construction the workload generator family uses for seedable,
// index-addressable randomness.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// hash derives the fault stream for (seed, index, salt). Pure function:
// the whole chaos schedule and every payload mutation come from it.
func hash(seed int64, index uint64, salt uint64) uint64 {
	return splitmix64(splitmix64(uint64(seed)^salt) ^ splitmix64(index))
}

// unit maps a hash onto [0,1).
func unit(h uint64) float64 { return float64(h>>11) / float64(1<<53) }

// Schedule decides, for each call index, whether to fault and how. It is
// a pure value: At never mutates state, so the same (Seed, Rate) always
// yields the same decision sequence regardless of concurrency.
type Schedule struct {
	// Seed selects the chaos universe.
	Seed int64
	// Rate is the per-call fault probability in [0,1].
	Rate float64
}

// At returns the fault class for the call at index, restricted to mask.
// The fault/no-fault decision depends only on (Seed, Rate, index); the
// class choice additionally depends on the mask so that every faulting
// index yields a class the call site can actually express.
func (s Schedule) At(index uint64, mask Mask) Class {
	if s.Rate <= 0 {
		return ClassNone
	}
	h := hash(s.Seed, index, 0xfa017a11)
	if unit(h) >= s.Rate {
		return ClassNone
	}
	classes := mask.classes()
	if len(classes) == 0 {
		return ClassNone
	}
	return classes[splitmix64(h)%uint64(len(classes))]
}

// Injector is a Schedule with a call counter and an injected-fault tally.
// Safe for concurrent use; when calls arrive in a deterministic order (as
// the collector's do — polling and detail fetching are sequential at any
// Workers setting), the injected sequence is deterministic too.
//
// The tallies live on an obs.Registry — `faults_injected_total{class=…}`
// and `faults_injector_calls_total` — so a chaos run's injection schedule
// is visible on /metrics next to what the consumers survived. Stats reads
// the same counters back, so the registry is the single source of truth.
// The fault rate is mutable at runtime (SetRate, atomically): the
// chaos-admin endpoint toggles it mid-run so a load smoke can walk an
// explorerd through healthy → faulting → recovered without restarts.
// The seed stays fixed, so at any given rate the decision stream is
// still the pure Schedule function of (seed, rate, index).
type Injector struct {
	seed     int64
	rateBits atomic.Uint64 // math.Float64bits of the current rate
	reg      *obs.Registry
	calls    *obs.Counter
	injected [NumClasses]*obs.Counter

	// attributed counts injected faults that landed inside a sampled
	// trace — the subset a chaos run can pin to a specific request on
	// /tracez. Volatile: the count depends on the sampling rate, not on
	// (seed, days, scale).
	attributed [NumClasses]*obs.Counter
}

// NewInjector builds an injector over Schedule{seed, rate} with a
// private registry.
func NewInjector(seed int64, rate float64) *Injector {
	return NewInjectorObs(seed, rate, nil)
}

// NewInjectorObs builds an injector whose tallies land on reg (nil
// selects a private registry, so the injector always has one).
func NewInjectorObs(seed int64, rate float64, reg *obs.Registry) *Injector {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	in := &Injector{seed: seed, reg: reg}
	in.SetRate(rate)
	in.calls = reg.Counter("faults_injector_calls_total")
	reg.Help("faults_attributed_total", "Injected faults attributed to a sampled trace (visible on /tracez).")
	reg.Volatile("faults_attributed_total")
	for c := ClassTransport; c < NumClasses; c++ {
		in.injected[c] = reg.Counter("faults_injected_total", "class", c.String())
		in.attributed[c] = reg.Counter("faults_attributed_total", "class", c.String())
	}
	return in
}

// Attribute counts one injected fault that hit a sampled trace: the
// fault is answerable from /tracez (the trace carries a fault:<class>
// annotation), and this counter says how many of the injected faults
// have that provenance.
func (in *Injector) Attribute(c Class) {
	if in == nil || c <= ClassNone || c >= NumClasses {
		return
	}
	in.attributed[c].Inc()
}

// Attributed snapshots the per-class attributed tally.
func (in *Injector) Attributed() Stats {
	var s Stats
	if in == nil {
		return s
	}
	for c := ClassTransport; c < NumClasses; c++ {
		s[c] = in.attributed[c].Value()
	}
	return s
}

// Obs returns the registry the injector tallies onto.
func (in *Injector) Obs() *obs.Registry { return in.reg }

// Next consumes one call index and returns its fault class (restricted to
// mask) plus the index, for deriving payload mutations.
func (in *Injector) Next(mask Mask) (Class, uint64) {
	idx := in.calls.Inc() - 1
	c := Schedule{Seed: in.seed, Rate: in.Rate()}.At(idx, mask)
	if c != ClassNone {
		in.injected[c].Inc()
	}
	return c, idx
}

// Seed returns the schedule's seed (payload mutations key off it).
func (in *Injector) Seed() int64 { return in.seed }

// Rate returns the current per-call fault probability.
func (in *Injector) Rate() float64 {
	return math.Float64frombits(in.rateBits.Load())
}

// SetRate replaces the per-call fault probability, clamped to [0,1].
// Calls already decided keep their outcomes; calls from here on draw
// from the schedule at the new rate.
func (in *Injector) SetRate(rate float64) {
	if rate < 0 || math.IsNaN(rate) {
		rate = 0
	} else if rate > 1 {
		rate = 1
	}
	in.rateBits.Store(math.Float64bits(rate))
}

// Calls returns how many call indices have been consumed.
func (in *Injector) Calls() uint64 { return in.calls.Value() }

// Stats snapshots the injected-fault tally from the registry.
func (in *Injector) Stats() Stats {
	var s Stats
	for c := ClassTransport; c < NumClasses; c++ {
		s[c] = in.injected[c].Value()
	}
	return s
}
