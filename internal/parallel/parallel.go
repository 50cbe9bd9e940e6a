// Package parallel provides the deterministic concurrency building blocks
// the pipeline shares: Ordered, the one worker pool behind every
// detection, encode and decode pass, and Queue, the bounded FIFO that
// pipelines generation with ingest.
//
// Determinism is the repo's core fidelity guarantee: every figure and
// headline statistic must be a pure function of (seed, days, scale),
// regardless of GOMAXPROCS or scheduling. Ordered is built around that
// constraint rather than raw throughput: callers submit work in a fixed
// order, results are consumed in exactly that order on one goroutine,
// and how the work was cut into items never depends on the worker
// count — so a pass over many workers folds the same sequence a serial
// pass does, bit for bit.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Workers resolves a worker-count knob: zero or negative selects
// GOMAXPROCS (use every core), any positive count is returned as-is.
// By convention across the repo, 1 runs every stage inline on the
// caller's goroutine.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Ordered is a bounded, order-preserving worker pool. The caller submits
// items from one goroutine; produce runs on up to workers goroutines,
// and consume receives every result in submission order on a single
// goroutine. At most Window items are in flight — submitted but not yet
// consumed — so Submit blocks rather than buffer without bound, and peak
// memory is set by the window, not by how many items a caller submits.
//
// At one worker, Submit runs produce and consume inline on the
// submitting goroutine and no goroutine is ever started. Otherwise the
// workers and the consume goroutine start with the first submissions
// and exit in Close. produce and consume are fixed at construction and
// items travel through a fixed ring of slots, so a warm pool allocates
// nothing per item.
//
// produce runs concurrently and must not share mutable state; consume
// must not call back into the pool.
type Ordered[In, Out any] struct {
	produce func(In) Out
	consume func(Out)
	workers int
	inst    instrument

	slots   []orderedSlot[In, Out] // ring of Window slots
	next    int                    // submission count, submitter-owned
	started int                    // workers started so far
	tokens  chan struct{}          // semaphore: one token per item in flight
	// work and order are sized to the window: every index in them holds
	// a token, so sends to them never block.
	work  chan int      // slots awaiting produce
	order chan int      // slots awaiting consume, in submission order
	done  chan struct{} // closed when the consume goroutine exits
	wg    sync.WaitGroup
}

// orderedSlot carries one item from Submit through produce to consume;
// ready is signalled once out holds produce's result.
type orderedSlot[In, Out any] struct {
	in    In
	out   Out
	ready chan struct{}
}

// NewOrdered builds a pool of Workers(workers) goroutines. Call Close
// exactly once, after every item is submitted.
func NewOrdered[In, Out any](workers int, produce func(In) Out, consume func(Out)) *Ordered[In, Out] {
	p := &Ordered[In, Out]{produce: produce, consume: consume, workers: Workers(workers)}
	if p.workers == 1 {
		return p
	}
	w := p.Window()
	p.slots = make([]orderedSlot[In, Out], w)
	for i := range p.slots {
		p.slots[i].ready = make(chan struct{}, 1)
	}
	p.tokens = make(chan struct{}, w)
	p.work = make(chan int, w)
	p.order = make(chan int, w)
	p.done = make(chan struct{})
	return p
}

// Window is the most items the pool holds in flight: two per worker, so
// every worker has a next item queued while the consumer drains.
func (p *Ordered[In, Out]) Window() int {
	if p.workers == 1 {
		return 1
	}
	return 2 * p.workers
}

// Submit hands one item to the pool, blocking while the window is full.
// At one worker it returns after the item is consumed.
func (p *Ordered[In, Out]) Submit(v In) {
	if p.workers == 1 {
		p.consume(p.run(v))
		return
	}
	p.tokens <- struct{}{}
	if p.next == 0 {
		go p.consumeLoop()
	}
	if p.started < p.workers {
		p.started++
		p.wg.Add(1)
		go p.worker()
	}
	i := p.next % len(p.slots)
	p.next++
	p.slots[i].in = v
	p.work <- i
	p.order <- i
}

// Close waits until every submitted item is consumed and stops the
// pool's goroutines.
func (p *Ordered[In, Out]) Close() {
	if p.workers == 1 {
		return
	}
	close(p.work)
	close(p.order)
	if p.next > 0 {
		<-p.done
	}
	p.wg.Wait()
}

// run is produce, timed when the pool is instrumented.
func (p *Ordered[In, Out]) run(v In) Out {
	if p.inst.shards == nil {
		return p.produce(v)
	}
	start := time.Now()
	out := p.produce(v)
	p.inst.observe(start)
	return out
}

func (p *Ordered[In, Out]) worker() {
	defer p.wg.Done()
	for i := range p.work {
		s := &p.slots[i]
		s.out = p.run(s.in)
		s.ready <- struct{}{}
	}
}

// consumeLoop drains slots in submission order. A slot is cleared before
// its token returns, so the ring pins nothing already consumed; the
// token returns after consume, so a slow consumer holds the window.
func (p *Ordered[In, Out]) consumeLoop() {
	defer close(p.done)
	var zeroIn In
	var zeroOut Out
	for i := range p.order {
		s := &p.slots[i]
		<-s.ready
		out := s.out
		s.in, s.out = zeroIn, zeroOut
		p.consume(out)
		<-p.tokens
	}
}

// Queue is a bounded FIFO connecting one producer to one consumer
// goroutine. Push blocks while the buffer is full (backpressure rather
// than unbounded memory), and items are consumed strictly in push order,
// so a pipelined sink preserves acceptance order exactly.
type Queue[T any] struct {
	ch   chan T
	done chan struct{}

	// highWater tracks the deepest backlog observed at push time; obs
	// optionally mirrors it (and a push counter) onto a registry — see
	// NewQueueObs.
	highWater atomic.Int64
	obs       queueObs
}

// NewQueue starts a consumer goroutine draining the queue into consume.
// buffer < 1 is clamped to 1.
func NewQueue[T any](buffer int, consume func(T)) *Queue[T] {
	if buffer < 1 {
		buffer = 1
	}
	q := &Queue[T]{ch: make(chan T, buffer), done: make(chan struct{})}
	go func() {
		defer close(q.done)
		for v := range q.ch {
			consume(v)
		}
	}()
	return q
}

// Push enqueues one item, blocking while the buffer is full.
func (q *Queue[T]) Push(v T) {
	q.ch <- v
	q.observePush()
}

// Close signals end of input and blocks until the consumer has drained
// every pushed item. The queue must not be pushed to after Close.
func (q *Queue[T]) Close() {
	close(q.ch)
	<-q.done
}
