package fleet

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"jitomev/internal/collector"
	"jitomev/internal/faults"
	"jitomev/internal/jito"
	"jitomev/internal/obs"
	"jitomev/internal/quality"
	"jitomev/internal/snapshot"
	"jitomev/internal/solana"
)

// CheckpointPath names a partition's checkpoint snapshot. The epoch is
// part of the name: a stale holder overwriting "its" file after a
// takeover can only touch its own epoch's file, never the successor's,
// so the filesystem inherits the lease table's fencing for free.
func CheckpointPath(dir string, partition int, epoch uint64) string {
	return filepath.Join(dir, fmt.Sprintf("part-%03d.e%d.snap", partition, epoch))
}

// ReplicaConfig shapes one fleet member.
type ReplicaConfig struct {
	// ID is the holder name leases are granted to (must be unique
	// across live replicas).
	ID    string
	Clock solana.Clock
	// Transport is the data plane — the same hardened transports the
	// single collector uses (Direct, HTTP, chaos-wrapped).
	Transport collector.Transport
	// Coord is the control plane: the in-process LeaseTable or a
	// LeaseClient against explorerd.
	Coord Coordinator
	// Partitions is the plan size this replica proposes (the first
	// replica to call Plan wins; joiners adopt).
	Partitions int

	// PageLimit is the backward-paging page size (default 500).
	PageLimit int
	// DetailBatch caps each bulk detail request (default 10,000).
	DetailBatch int
	// LeaseTTL is the lease duration acquired and renewed with
	// (default 2s). Renewal happens every page, so the TTL only has to
	// outlive one page fetch plus its retries.
	LeaseTTL time.Duration
	// CheckpointEvery checkpoints after this many pages (default 4).
	CheckpointEvery int
	// CkptDir holds the per-partition checkpoint snapshots (required;
	// shared by all replicas of a fleet).
	CkptDir string
	// PageRetries bounds replica-level retries of a failed page or
	// detail batch, beyond whatever the transport itself retries
	// (default 24 — a 10% fault schedule clears that with margin).
	PageRetries int
	// RetryWait sleeps between replica-level retries (default 2ms).
	RetryWait time.Duration
	// IdleWait sleeps between claim sweeps when every remaining
	// partition is held by someone else (default 10ms).
	IdleWait time.Duration
	// PageDelay paces the page loop (0 = full speed). Chaos tests use
	// it to keep an in-process fleet genuinely concurrent — without
	// pacing, one replica can drain every partition before the others'
	// goroutines are even scheduled, and the failure modes under test
	// (contention, expiry, takeover) never occur.
	PageDelay time.Duration
	// Stall is how long an injected coordinator partition freezes the
	// replica — long enough to outlive the TTL, so the write it
	// attempts afterwards meets the fence (default 2×LeaseTTL).
	Stall time.Duration

	// Chaos, when set, draws replica-level faults (crash, partition)
	// from the deterministic schedule before every page.
	Chaos *faults.Injector
	// CrashAfterPages kills the replica after it has fetched this many
	// pages (0 = never) — the harness's deterministic mid-run kill.
	CrashAfterPages int

	// Reg receives the fleet_replica_* tallies (nil = private).
	Reg *obs.Registry
	// Quality, when set, receives the coverage-ledger feed (per-page
	// yield, poll errors, detail outcomes) for fleet-wide aggregation.
	Quality *quality.Sentinel
}

// Replica is one fleet member: it claims partitions, pages them down,
// checkpoints, and survives (or suffers) the replica fault classes.
type Replica struct {
	cfg ReplicaConfig

	pages, records, retries *obs.Counter
	ckpts, completed        *obs.Counter
	abandons, fencedSeen    *obs.Counter
	crashes, stalls         *obs.Counter
	resumes, restoreFails   *obs.Counter

	pagesFetched int
}

// NewReplica builds a replica; zero config fields take the defaults
// documented on ReplicaConfig.
func NewReplica(cfg ReplicaConfig) *Replica {
	if cfg.PageLimit <= 0 {
		cfg.PageLimit = 500
	}
	if cfg.DetailBatch <= 0 {
		cfg.DetailBatch = 10_000
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 2 * time.Second
	}
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = 4
	}
	if cfg.PageRetries <= 0 {
		cfg.PageRetries = 24
	}
	if cfg.RetryWait <= 0 {
		cfg.RetryWait = 2 * time.Millisecond
	}
	if cfg.IdleWait <= 0 {
		cfg.IdleWait = 10 * time.Millisecond
	}
	if cfg.Stall <= 0 {
		cfg.Stall = 2 * cfg.LeaseTTL
	}
	reg := cfg.Reg
	reg.Help("fleet_replica_pages_total", "Partition pages fetched, by replica.")
	reg.Help("fleet_replica_fenced_observed_total", "Fence rejections this replica received for its own writes.")
	reg.Volatile("fleet_replica_pages_total", "fleet_replica_records_total",
		"fleet_replica_page_retries_total", "fleet_replica_checkpoints_total",
		"fleet_replica_partitions_completed_total", "fleet_replica_abandons_total",
		"fleet_replica_fenced_observed_total", "fleet_replica_crashes_total",
		"fleet_replica_stalls_total", "fleet_replica_resumes_total",
		"fleet_replica_restore_failures_total")
	r := &Replica{cfg: cfg}
	lbl := []string{"replica", cfg.ID}
	r.pages = reg.Counter("fleet_replica_pages_total", lbl...)
	r.records = reg.Counter("fleet_replica_records_total", lbl...)
	r.retries = reg.Counter("fleet_replica_page_retries_total", lbl...)
	r.ckpts = reg.Counter("fleet_replica_checkpoints_total", lbl...)
	r.completed = reg.Counter("fleet_replica_partitions_completed_total", lbl...)
	r.abandons = reg.Counter("fleet_replica_abandons_total", lbl...)
	r.fencedSeen = reg.Counter("fleet_replica_fenced_observed_total", lbl...)
	r.crashes = reg.Counter("fleet_replica_crashes_total", lbl...)
	r.stalls = reg.Counter("fleet_replica_stalls_total", lbl...)
	r.resumes = reg.Counter("fleet_replica_resumes_total", lbl...)
	r.restoreFails = reg.Counter("fleet_replica_restore_failures_total", lbl...)
	return r
}

// traceBinder is the carrier surface a transport or coordinator exposes
// when it can ride a trace (collector.HTTP, faults.Transport,
// LeaseClient). Discovered structurally so Direct transports and the
// in-process LeaseTable stay untouched.
type traceBinder interface {
	BindTrace(obs.SpanCtx)
}

// bindTrace pins ctx on the replica's transport and coordinator when
// they are carriers; the zero SpanCtx detaches. Sound because a replica
// works one partition page at a time.
func (r *Replica) bindTrace(ctx obs.SpanCtx) {
	if tb, ok := r.cfg.Transport.(traceBinder); ok {
		tb.BindTrace(ctx)
	}
	if tb, ok := r.cfg.Coord.(traceBinder); ok {
		tb.BindTrace(ctx)
	}
}

// startTrace roots a replica trace (nil without an attached tracer —
// every Trace method is nil-safe) and binds it onto the data and
// control planes so transport and lease calls become child spans.
func (r *Replica) startTrace(name string, part Partition) *obs.Trace {
	t := r.cfg.Reg.TracerAttached()
	if t == nil {
		return nil
	}
	tr := t.StartTrace(name)
	tr.Annotatef("replica:%s partition:%d", r.cfg.ID, part.ID)
	r.bindTrace(tr.Ctx())
	return tr
}

// endTrace detaches the carriers and closes the root span.
func (r *Replica) endTrace(tr *obs.Trace, err error) {
	r.bindTrace(obs.SpanCtx{})
	tr.EndErr(err)
}

// span opens a stage child under tr and re-pins the carriers to it, so
// transport and lease calls made during the stage nest under the stage
// span instead of the root.
func (r *Replica) span(tr *obs.Trace, name string) *obs.Trace {
	sp := tr.StartChild(name)
	if sp != nil {
		r.bindTrace(sp.Ctx())
	}
	return sp
}

// closeSpan ends a stage span and re-pins the carriers to the root.
func (r *Replica) closeSpan(tr, sp *obs.Trace, err error) {
	if sp != nil {
		r.bindTrace(tr.Ctx())
	}
	sp.EndErr(err)
}

// windowSize sizes the capture dataset's dedup window: wide enough to
// absorb the worst resume overlap — a crash between the checkpoint
// snapshot landing on disk and its cursor posting leaves the successor
// re-fetching up to CheckpointEvery pages the snapshot already holds.
func (r *Replica) windowSize() int {
	return (r.cfg.CheckpointEvery + 2) * r.cfg.PageLimit
}

// Run claims and works partitions until every partition in the plan is
// done. It returns nil on fleet completion, ErrCrashed when an injected
// crash killed this replica, or the terminal error that stopped it.
func (r *Replica) Run() error {
	if _, err := r.cfg.Coord.Plan(r.cfg.Partitions); err != nil {
		return fmt.Errorf("fleet: %s: plan: %w", r.cfg.ID, err)
	}
	for {
		st, err := r.cfg.Coord.State()
		if err != nil {
			return fmt.Errorf("fleet: %s: state: %w", r.cfg.ID, err)
		}
		allDone, worked := true, false
		for _, l := range st.Leases {
			if l.Done {
				continue
			}
			allDone = false
			lease, err := r.cfg.Coord.Acquire(l.Partition.ID, r.cfg.ID, r.cfg.LeaseTTL)
			if err != nil {
				continue // held, or completed since the snapshot
			}
			worked = true
			switch werr := r.work(lease); {
			case errors.Is(werr, ErrCrashed):
				return werr
			case errors.Is(werr, errAbandoned):
				r.abandons.Inc()
			case werr != nil:
				return fmt.Errorf("fleet: %s: partition %d: %w", r.cfg.ID, l.Partition.ID, werr)
			}
		}
		if allDone {
			return nil
		}
		if !worked {
			time.Sleep(r.cfg.IdleWait)
		}
	}
}

// restore rebuilds the partition's capture dataset from its recorded
// checkpoint, or starts fresh when there is none (or the snapshot is
// unreadable — safe, the whole range is simply re-fetched). Capture
// datasets retain records of every length: unlike the paper's
// length-3-only economy, a partition snapshot must carry everything the
// merge needs to rebuild the canonical dataset's aggregates.
func (r *Replica) restore(lease Lease) (*collector.Dataset, uint64) {
	part := lease.Partition
	if lease.Cursor > 0 {
		path := CheckpointPath(r.cfg.CkptDir, part.ID, lease.CkptEpoch)
		if f, err := os.Open(path); err == nil {
			ds, lerr := collector.LoadDatasetObs(f, r.windowSize(), 1, nil)
			f.Close()
			if lerr == nil {
				// A loaded dataset reverts to the default length-3-only
				// economy; re-widen it or the resumed capture silently
				// drops every other length from here on.
				ds.RetainLengths(1, 2, 4, 5)
				r.resumes.Inc()
				return ds, lease.Cursor
			}
			r.restoreFails.Inc()
		} else if !errors.Is(err, os.ErrNotExist) {
			r.restoreFails.Inc()
		}
	}
	ds := collector.NewDataset(r.cfg.Clock, r.windowSize())
	ds.RetainLengths(1, 2, 4, 5)
	return ds, part.Hi + 1
}

// work drains one leased partition: page backwards from the resume
// cursor to the partition floor, ingesting, fetching details, renewing
// the lease per page and checkpointing every CheckpointEvery pages —
// snapshot to disk first, cursor post second, so an accepted cursor
// always names a durable snapshot.
func (r *Replica) work(lease Lease) error {
	part := lease.Partition
	ds, cursor := r.restore(lease)
	pagesSince := 0
	// partitioned marks an injected coordinator partition during THIS
	// lease: renewals stop (they would not reach the coordinator), work
	// continues, and the next write that gets through is the stale one
	// the fence must reject. A fresh lease starts healed.
	partitioned := false
	for !part.Empty() && cursor > part.Lo {
		// Each page cycle is one root trace: renew → fetch_page →
		// ingest → details (→ checkpoint), with the transport and
		// coordinator calls nested under their stage spans — the
		// per-hop breakdown /tracez serves for a fleet poll.
		tr := r.startTrace("fleet.page", part)
		wasPartitioned := partitioned
		if err := r.maybeFault(&partitioned); err != nil {
			tr.Annotate("fault:crash")
			tr.FlagKeep("fault")
			r.endTrace(tr, err)
			return err
		}
		if partitioned && !wasPartitioned {
			tr.Annotate("fault:partition")
			tr.FlagKeep("fault")
		}
		if !partitioned {
			sp := r.span(tr, "renew")
			err := r.cfg.Coord.Renew(part.ID, r.cfg.ID, lease.Epoch, r.cfg.LeaseTTL)
			r.closeSpan(tr, sp, err)
			if err != nil {
				r.fencedSeen.Inc()
				tr.FlagKeep("fenced")
				r.endTrace(tr, err)
				return errAbandoned
			}
		}
		page, err := r.fetchPage(tr, cursor)
		if err != nil {
			r.endTrace(tr, err)
			return err
		}
		if r.cfg.PageDelay > 0 {
			time.Sleep(r.cfg.PageDelay)
		}
		if len(page) == 0 {
			cursor = part.Lo // nothing below the cursor: range exhausted
			tr.Annotate("range_exhausted")
			r.endTrace(tr, nil)
			break
		}
		oldest, newest := page[0].Seq, page[0].Seq
		mark := len(ds.Len3)
		newN, dupN := 0, 0
		ingest := tr.StartChild("ingest")
		// Pages arrive newest-first; ingest back-to-front so dataset
		// order tracks chain order within the page. Entries outside
		// [Lo, Hi] belong to a neighboring partition and are skipped.
		for i := len(page) - 1; i >= 0; i-- {
			rec := page[i]
			if rec.Seq < oldest {
				oldest = rec.Seq
			}
			if rec.Seq > newest {
				newest = rec.Seq
			}
			if rec.Seq < part.Lo || rec.Seq > part.Hi {
				continue
			}
			if ds.Ingest(rec) {
				newN++
			} else {
				dupN++
			}
		}
		ingest.Annotatef("new:%d dup:%d", newN, dupN)
		ingest.End()
		r.pages.Inc()
		r.pagesFetched++
		r.records.Add(uint64(newN))
		r.cfg.Quality.ObservePoll(r.cfg.Clock.DayOf(pageSlot(page, newest)),
			r.cfg.PageLimit, newN, dupN, false, false)
		if err := r.fetchDetails(tr, ds, mark); err != nil {
			r.endTrace(tr, err)
			return err
		}
		if oldest < cursor {
			cursor = oldest
		} else {
			// A duplicate-heavy fault page can fail to advance; step
			// past its floor rather than spin.
			cursor = oldest - 1
		}
		if cursor <= part.Lo {
			cursor = part.Lo
			r.endTrace(tr, nil)
			break
		}
		if pagesSince++; pagesSince >= r.cfg.CheckpointEvery {
			if err := r.checkpoint(tr, ds, cursor, part, lease.Epoch); err != nil {
				r.endTrace(tr, err)
				return err
			}
			pagesSince = 0
		}
		r.endTrace(tr, nil)
	}
	// Range fully fetched: settle any pending details, write the final
	// checkpoint, and mark the partition done.
	tr := r.startTrace("fleet.finish", part)
	if err := r.finishDetails(tr, ds); err != nil {
		// Details permanently short: checkpoint what we have and hand
		// the partition back unfinished for another replica (or a
		// calmer retry) to complete.
		_ = r.checkpoint(tr, ds, maxU64(cursor, part.Lo), part, lease.Epoch)
		sp := r.span(tr, "release")
		r.closeSpan(tr, sp, r.cfg.Coord.Release(part.ID, r.cfg.ID, lease.Epoch, false))
		r.endTrace(tr, err)
		return err
	}
	if err := r.checkpoint(tr, ds, maxU64(cursor, part.Lo), part, lease.Epoch); err != nil {
		r.endTrace(tr, err)
		return err
	}
	sp := r.span(tr, "release")
	err := r.cfg.Coord.Release(part.ID, r.cfg.ID, lease.Epoch, true)
	r.closeSpan(tr, sp, err)
	if err != nil {
		r.fencedSeen.Inc()
		tr.FlagKeep("fenced")
		r.endTrace(tr, err)
		return errAbandoned
	}
	r.completed.Inc()
	r.endTrace(tr, nil)
	return nil
}

// maybeFault draws the replica-level fault schedule: a crash ends the
// replica mid-batch (leases unreleased); a coordinator partition
// freezes it past its TTL and stops renewals — the classic stalled
// writer whose next checkpoint the epoch fence must reject.
func (r *Replica) maybeFault(partitioned *bool) error {
	if r.cfg.CrashAfterPages > 0 && r.pagesFetched >= r.cfg.CrashAfterPages {
		r.crashes.Inc()
		return ErrCrashed
	}
	if r.cfg.Chaos == nil {
		return nil
	}
	class, _ := r.cfg.Chaos.Next(faults.ReplicaMask)
	switch class {
	case faults.ClassCrash:
		r.crashes.Inc()
		return ErrCrashed
	case faults.ClassPartition:
		if !*partitioned {
			*partitioned = true
			r.stalls.Inc()
			time.Sleep(r.cfg.Stall)
		}
	}
	return nil
}

// fetchPage requests the page strictly below cursor, retrying through
// the transport fault classes on the replica's own budget.
func (r *Replica) fetchPage(tr *obs.Trace, cursor uint64) (page []jito.BundleRecord, err error) {
	sp := r.span(tr, "fetch_page")
	defer func() { r.closeSpan(tr, sp, err) }()
	for attempt := 0; ; attempt++ {
		page, err = r.cfg.Transport.RecentBundlesBefore(cursor, r.cfg.PageLimit)
		if err == nil {
			if attempt > 0 {
				sp.Annotatef("retries:%d", attempt)
			}
			return page, nil
		}
		r.cfg.Quality.ObservePollError()
		if attempt >= r.cfg.PageRetries {
			return nil, fmt.Errorf("page budget exhausted at cursor %d: %w", cursor, err)
		}
		r.retries.Inc()
		time.Sleep(r.cfg.RetryWait)
	}
}

// fetchDetails fetches details for the length-3 records appended since
// mark. Failures and partial responses leave ids pending; finishDetails
// settles the remainder before the partition completes.
func (r *Replica) fetchDetails(tr *obs.Trace, ds *collector.Dataset, mark int) error {
	var ids []solana.Signature
	for i := mark; i < len(ds.Len3); i++ {
		ids = append(ids, ds.Len3[i].TxIDs...)
	}
	if len(ids) == 0 {
		return nil
	}
	sp := r.span(tr, "details")
	sp.Annotatef("ids:%d", len(ids))
	_ = r.fetchIDs(ds, ids, 1) // best effort; the finish pass retries
	r.closeSpan(tr, sp, nil)
	return nil
}

// finishDetails drains every still-pending length-3 detail, retrying
// across the replica's budget; a remainder after that is an error (the
// partition cannot be declared complete with holes).
func (r *Replica) finishDetails(tr *obs.Trace, ds *collector.Dataset) (err error) {
	sp := r.span(tr, "details_finish")
	defer func() { r.closeSpan(tr, sp, err) }()
	for attempt := 0; attempt <= r.cfg.PageRetries; attempt++ {
		pending := pendingLen3(ds)
		if len(pending) == 0 {
			return nil
		}
		if attempt > 0 {
			r.retries.Inc()
			time.Sleep(r.cfg.RetryWait)
		}
		_ = r.fetchIDs(ds, pending, 1)
	}
	if pending := pendingLen3(ds); len(pending) > 0 {
		return fmt.Errorf("detail budget exhausted: %d ids still pending", len(pending))
	}
	return nil
}

// fetchIDs requests details for ids in DetailBatch chunks with
// `attempts` tries per chunk, folding results into ds. Returns how many
// details landed.
func (r *Replica) fetchIDs(ds *collector.Dataset, ids []solana.Signature, attempts int) int {
	fetched, failedBatches := 0, uint64(0)
	for start := 0; start < len(ids); start += r.cfg.DetailBatch {
		end := start + r.cfg.DetailBatch
		if end > len(ids) {
			end = len(ids)
		}
		var details []jito.TxDetail
		var err error
		for a := 0; a < attempts; a++ {
			details, err = r.cfg.Transport.TxDetails(ids[start:end])
			if err == nil {
				break
			}
		}
		if err != nil {
			failedBatches++
			continue
		}
		for i := range details {
			ds.Details.Put(details[i])
		}
		fetched += len(details)
	}
	if fetched > 0 || failedBatches > 0 {
		r.cfg.Quality.ObserveDetails(fetched, len(pendingLen3(ds)), failedBatches)
	}
	return fetched
}

// pendingLen3 lists every length-3 member transaction whose detail is
// missing. (Long records are capture-only here: the explorer serves
// details for length-3 bundles, the paper's economy.)
func pendingLen3(ds *collector.Dataset) []solana.Signature {
	var pending []solana.Signature
	for i := range ds.Len3 {
		for _, id := range ds.Len3[i].TxIDs {
			if !ds.Details.Has(id) {
				pending = append(pending, id)
			}
		}
	}
	return pending
}

// checkpoint persists progress in fencing order: the snapshot lands
// atomically on disk first (named by partition and epoch), the cursor
// posts to the lease table second. A crash between the two leaves the
// table pointing at the previous, still-valid (snapshot, cursor) pair;
// the successor merely re-fetches a few pages the newer file already
// held, which the dedup window (or at worst the merge) absorbs. A
// fenced cursor post means the partition moved on without us.
func (r *Replica) checkpoint(tr *obs.Trace, ds *collector.Dataset, cursor uint64, part Partition, epoch uint64) error {
	sp := r.span(tr, "checkpoint")
	sp.Annotatef("cursor:%d", cursor)
	path := CheckpointPath(r.cfg.CkptDir, part.ID, epoch)
	if _, err := snapshot.WriteFileAtomic(path, func(w io.Writer) error {
		return ds.SaveWorkers(w, 1)
	}); err != nil {
		err = fmt.Errorf("checkpoint %s: %w", path, err)
		r.closeSpan(tr, sp, err)
		return err
	}
	if err := r.cfg.Coord.Checkpoint(part.ID, r.cfg.ID, epoch, cursor, ds.Collected); err != nil {
		r.fencedSeen.Inc()
		tr.FlagKeep("fenced")
		r.closeSpan(tr, sp, err)
		return errAbandoned
	}
	r.ckpts.Inc()
	r.closeSpan(tr, sp, nil)
	return nil
}

// pageSlot finds the slot of the page entry carrying seq (for day
// attribution); falls back to the first entry.
func pageSlot(page []jito.BundleRecord, seq uint64) solana.Slot {
	for i := range page {
		if page[i].Seq == seq {
			return page[i].Slot
		}
	}
	return page[0].Slot
}

// maxU64 returns the larger of a and b.
func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
