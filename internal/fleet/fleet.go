// Package fleet is the distributed-collection coordination layer: N
// collector replicas divide the explorer's backlog into contiguous
// acceptance-sequence partitions, claim them through a TTL lease table,
// page them down concurrently with the hardened transport, and
// checkpoint per-partition progress so a crashed or partitioned replica
// is survivable — its lease expires, a survivor takes the partition
// over at a higher epoch, resumes from the last checkpoint, and every
// write the stale holder still attempts is fenced off by the epoch
// check.
//
// The paper's dataset took four months of single-process scraping
// (§3.1); the fleet exists to answer the operational question that
// leaves open — how to collect faster than one process allows without
// double-counting or losing bundles when members die. The design is
// the classic lease/fencing protocol (leases carry an epoch; the table
// rejects writes from any (holder, epoch) pair that is not the current
// one), with the repo's standing determinism constraint on top: the
// merged dataset is rebuilt from the deduplicated, sequence-sorted
// union of the partition checkpoints, so it is byte-identical to a
// single-collector run regardless of replica count, fault schedule,
// crashes or takeovers.
//
// Moving parts:
//
//   - LeaseTable — the coordinator state explorerd serves: one lease
//     per partition with holder, epoch, TTL expiry, and the last
//     fenced-accepted checkpoint (cursor + epoch). Expiry is lazy and
//     epoch-fenced: every write validates (holder, epoch, unexpired).
//   - LeaseServer / LeaseClient — the /leasez HTTP surface and its
//     client, so real multi-process fleets coordinate through the same
//     explorerd they scrape.
//   - Replica — the worker loop: claim, page backwards, ingest,
//     fetch length-3 details, checkpoint (atomic snapshot first, then
//     the cursor post), renew per page, and absorb the replica-level
//     fault classes (crash, coordinator partition).
//   - Merge — the deterministic reducer over partition checkpoints.
//   - RunFleet — the in-process harness the chaos acceptance tests and
//     `make fleet` drive.
package fleet

import (
	"errors"
	"fmt"
	"time"
)

// Coordination errors, surfaced identically by the in-process table and
// the HTTP client (the server maps them onto stable error codes).
var (
	// ErrLeaseHeld rejects an acquire while another holder's lease is
	// still live. Not a failure — the claimant moves to another
	// partition and retries after the TTL.
	ErrLeaseHeld = errors.New("fleet: lease held")
	// ErrFenced rejects a renew/checkpoint/release whose (holder,
	// epoch) is no longer current or whose lease has expired — the
	// stale-writer rejection the whole protocol exists for.
	ErrFenced = errors.New("fleet: write fenced")
	// ErrDone rejects an acquire of a completed partition.
	ErrDone = errors.New("fleet: partition complete")
	// ErrNoPlan rejects lease operations before a partition plan exists.
	ErrNoPlan = errors.New("fleet: no partition plan")
	// ErrUnknownPartition rejects operations naming a partition outside
	// the plan.
	ErrUnknownPartition = errors.New("fleet: unknown partition")
	// ErrBadPlan rejects a partition count outside [1, maxPartitions].
	ErrBadPlan = errors.New("fleet: bad partition count")
)

// ErrCrashed is the terminal status of a replica that suffered an
// injected crash fault (or hit its configured kill point): it stops
// mid-batch without releasing leases, exactly the failure the TTL plus
// checkpoint-resume path absorbs.
var ErrCrashed = errors.New("fleet: replica crashed (injected)")

// errAbandoned is a replica's internal signal that it lost a partition
// (a fenced write after takeover, or a renew rejection): the partition
// belongs to someone else now, the replica moves on.
var errAbandoned = errors.New("fleet: partition abandoned")

// Partition is one contiguous acceptance-sequence range [Lo, Hi]
// (inclusive). A partition with Hi < Lo is empty — legal when the plan
// has more partitions than records.
type Partition struct {
	ID int    `json:"id"`
	Lo uint64 `json:"lo"`
	Hi uint64 `json:"hi"`
}

// Empty reports whether the partition covers no sequences.
func (p Partition) Empty() bool { return p.Hi < p.Lo }

// Plan divides the backlog [1, HighWater] into disjoint contiguous
// partitions whose union is exactly the backlog. The plan is fixed at
// creation: replicas joining later adopt it rather than re-planning.
type Plan struct {
	HighWater  uint64      `json:"high_water"`
	Partitions []Partition `json:"partitions"`
}

// maxPartitions bounds a plan's partition count. The count arrives from
// clients over /leasez/plan and sizes the lease table, so it is checked
// before anything is allocated; real fleets use a handful.
const maxPartitions = 1 << 12

// PlanOver splits [1, highWater] into n contiguous partitions of
// near-equal size (partition i covers (H·i/n, H·(i+1)/n]). Every
// sequence belongs to exactly one partition.
func PlanOver(highWater uint64, n int) (Plan, error) {
	if n <= 0 || n > maxPartitions {
		return Plan{}, fmt.Errorf("%w: %d, want 1..%d", ErrBadPlan, n, maxPartitions)
	}
	pl := Plan{HighWater: highWater, Partitions: make([]Partition, n)}
	for i := 0; i < n; i++ {
		lo := highWater * uint64(i) / uint64(n)
		hi := highWater * uint64(i+1) / uint64(n)
		pl.Partitions[i] = Partition{ID: i, Lo: lo + 1, Hi: hi}
	}
	return pl, nil
}

// Lease is the coordinator's view of one partition: who holds it, at
// which fencing epoch, until when — plus the durable progress record
// (the last accepted checkpoint cursor and the epoch that wrote it,
// which names the checkpoint snapshot a successor resumes from).
type Lease struct {
	Partition Partition `json:"partition"`
	Holder    string    `json:"holder,omitempty"`
	Epoch     uint64    `json:"epoch"`
	// ExpiresUnixMs is the lease deadline on the table's clock (0 when
	// unheld). Clients treat it as informational; the table is the
	// authority on expiry.
	ExpiresUnixMs int64 `json:"expires_unix_ms,omitempty"`
	// Expired reports that the holder's lease has lapsed without a
	// takeover yet (the partition is claimable).
	Expired bool `json:"expired,omitempty"`
	Done    bool `json:"done,omitempty"`

	// Cursor is the last checkpoint's resume cursor: the next page
	// request asks for sequences strictly below it. 0 means no
	// checkpoint yet; a cursor at or below Partition.Lo means the range
	// is fully fetched.
	Cursor uint64 `json:"cursor,omitempty"`
	// CkptEpoch is the epoch whose holder wrote Cursor — and the epoch
	// suffix of the checkpoint snapshot file carrying that progress.
	CkptEpoch uint64 `json:"ckpt_epoch,omitempty"`
	// Records is the record count the checkpoint reported (visibility
	// only).
	Records uint64 `json:"records,omitempty"`
}

// State is the full coordinator view: the plan plus every partition's
// lease, ordered by partition id. The /leasez GET body.
type State struct {
	Plan   Plan    `json:"plan"`
	Leases []Lease `json:"leases"`
}

// Done reports whether every partition is complete.
func (s State) Done() bool {
	if len(s.Leases) == 0 {
		return false
	}
	for i := range s.Leases {
		if !s.Leases[i].Done {
			return false
		}
	}
	return true
}

// Coordinator is the lease protocol a replica speaks — implemented
// in-process by *LeaseTable and over HTTP by *LeaseClient, so the
// harness and a real multi-process fleet run the same replica code.
type Coordinator interface {
	// Plan returns the partition plan, creating it over the current
	// high-water mark on first call. Later calls return the existing
	// plan regardless of n (first caller wins; joiners adopt).
	Plan(n int) (Plan, error)
	// Acquire claims a partition for holder with the given TTL. It
	// succeeds on an unheld or expired lease (bumping the fencing
	// epoch — every grant is a new epoch, so a prior holder of the
	// same name cannot alias its old writes in), and fails with
	// ErrLeaseHeld while another holder's lease is live, or ErrDone
	// once the partition completed.
	Acquire(partition int, holder string, ttl time.Duration) (Lease, error)
	// Renew extends a live lease. Fenced (ErrFenced) when the holder or
	// epoch is stale, or the lease already expired.
	Renew(partition int, holder string, epoch uint64, ttl time.Duration) error
	// Checkpoint durably records progress: the resume cursor and the
	// record count, stamped with the writing epoch. Same fencing as
	// Renew — a post-takeover write from a stale holder is rejected.
	Checkpoint(partition int, holder string, epoch uint64, cursor, records uint64) error
	// Release gives the lease up, optionally marking the partition
	// complete. Same fencing as Renew.
	Release(partition int, holder string, epoch uint64, done bool) error
	// State snapshots the plan and every lease.
	State() (State, error)
}
