package parallel

import (
	"time"

	"jitomev/internal/obs"
)

// Observability for the concurrency primitives. Everything recorded here
// is scheduling-dependent — busy time and queue depth change with the
// interleaving — so every family is registered Volatile: visible on
// /metrics and in summaries, excluded from the deterministic snapshot
// the worker-count tests compare.
const (
	famShardSeconds = "parallel_shard_seconds"
	famShards       = "parallel_shards_total"
	famWorkerBusy   = "parallel_worker_busy_seconds"
	famQueueHW      = "parallel_queue_depth_high_water"
	famQueuePushes  = "parallel_queue_pushes_total"
)

// instrument is the per-pool handle bundle for an instrumented stage.
type instrument struct {
	shardDur *obs.Histogram
	shards   *obs.Counter
	busy     *obs.FloatGauge
}

// observe records one produce call that began at start.
func (in instrument) observe(start time.Time) {
	d := time.Since(start).Seconds()
	in.shardDur.Observe(d)
	in.busy.Add(d)
	in.shards.Inc()
}

// NewOrderedObs is NewOrdered with per-item observability: every produce
// call's wall time lands in a (volatile) duration histogram, the item
// count in a counter, and the summed busy time in a float gauge, all
// labelled with stage — the before/after surface for judging how well a
// stage parallelizes. A nil registry selects the uninstrumented pool.
func NewOrderedObs[In, Out any](reg *obs.Registry, stage string, workers int, produce func(In) Out, consume func(Out)) *Ordered[In, Out] {
	p := NewOrdered(workers, produce, consume)
	if reg != nil {
		reg.Volatile(famShardSeconds, famShards, famWorkerBusy, famQueueHW, famQueuePushes)
		p.inst = instrument{
			shardDur: reg.Histogram(famShardSeconds, obs.DurationBuckets, "stage", stage),
			shards:   reg.Counter(famShards, "stage", stage),
			busy:     reg.FloatGauge(famWorkerBusy, "stage", stage),
		}
	}
	return p
}

// queueObs carries a Queue's registry handles.
type queueObs struct {
	highWater *obs.Gauge
	pushes    *obs.Counter
}

// NewQueueObs is NewQueue with observability: the queue's depth
// high-water mark (its worst backlog) and total pushes are published
// under the given queue name. A nil registry degrades to NewQueue.
func NewQueueObs[T any](reg *obs.Registry, name string, buffer int, consume func(T)) *Queue[T] {
	q := NewQueue(buffer, consume)
	if reg != nil {
		reg.Volatile(famQueueHW, famQueuePushes)
		q.obs = queueObs{
			highWater: reg.Gauge(famQueueHW, "queue", name),
			pushes:    reg.Counter(famQueuePushes, "queue", name),
		}
	}
	return q
}

// HighWater reports the deepest backlog the queue has seen, whether or
// not the queue is bound to a registry.
func (q *Queue[T]) HighWater() int64 { return q.highWater.Load() }

// observePush updates depth tracking around one Push.
func (q *Queue[T]) observePush() {
	depth := int64(len(q.ch))
	for {
		cur := q.highWater.Load()
		if depth <= cur || q.highWater.CompareAndSwap(cur, depth) {
			break
		}
	}
	q.obs.highWater.SetMax(depth)
	q.obs.pushes.Inc()
}
