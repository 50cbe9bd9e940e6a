package parallel

import (
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"jitomev/internal/obs"
)

func TestWorkers(t *testing.T) {
	max := runtime.GOMAXPROCS(0)
	for _, tc := range []struct{ in, want int }{
		{0, max}, {-3, max}, {1, 1}, {7, 7},
	} {
		if got := Workers(tc.in); got != tc.want {
			t.Errorf("Workers(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestQueuePreservesOrder(t *testing.T) {
	const n = 10_000
	var got []int
	q := NewQueue(16, func(v int) { got = append(got, v) })
	for i := 0; i < n; i++ {
		q.Push(i)
	}
	q.Close()
	if len(got) != n {
		t.Fatalf("consumed %d of %d items", len(got), n)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("position %d holds %d — order broken", i, v)
		}
	}
}

func TestQueueCloseDrains(t *testing.T) {
	var count atomic.Int64
	q := NewQueue(1, func(int) { count.Add(1) }) // tiny buffer forces backpressure
	for i := 0; i < 100; i++ {
		q.Push(i)
	}
	q.Close()
	if count.Load() != 100 {
		t.Fatalf("Close returned with %d of 100 items consumed", count.Load())
	}
}

// raceEnabled is set under the race detector (race_test.go).
var raceEnabled bool

// collect runs n items through a pool and returns what consume saw.
func collect(workers, n int, produce func(int) int) []int {
	var got []int
	p := NewOrdered(workers, produce, func(v int) { got = append(got, v) })
	for i := 0; i < n; i++ {
		p.Submit(i)
	}
	p.Close()
	return got
}

// TestOrderedOrder asserts the core determinism contract: consume sees
// every result exactly once, in submission order, however produce's
// latency scrambles the order items finish in — with more items than
// the window and with fewer items than workers.
func TestOrderedOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		for _, n := range []int{3, 500} {
			rng := rand.New(rand.NewSource(int64(workers * n)))
			delays := make([]time.Duration, n)
			for i := range delays {
				delays[i] = time.Duration(rng.Intn(50)) * time.Microsecond
			}
			got := collect(workers, n, func(i int) int {
				time.Sleep(delays[i])
				return i * i
			})
			if len(got) != n {
				t.Fatalf("workers=%d n=%d: consumed %d", workers, n, len(got))
			}
			for i, v := range got {
				if v != i*i {
					t.Fatalf("workers=%d n=%d: position %d holds %d — order broken", workers, n, i, v)
				}
			}
		}
	}
}

func TestOrderedEmpty(t *testing.T) {
	before := runtime.NumGoroutine()
	for _, workers := range []int{1, 4} {
		called := false
		p := NewOrdered(workers, func(int) int { called = true; return 0 }, func(int) { called = true })
		if g := runtime.NumGoroutine(); g != before {
			t.Errorf("workers=%d: an empty pool runs %d goroutines, want %d", workers, g, before)
		}
		p.Close()
		if called {
			t.Errorf("workers=%d: callbacks ran with no items", workers)
		}
	}
}

// TestOrderedWindow asserts the memory guarantee: no more than Window
// items are ever produced but not yet consumed.
func TestOrderedWindow(t *testing.T) {
	for _, workers := range []int{1, 3} {
		var inFlight, peak atomic.Int64
		var p *Ordered[int, int]
		p = NewOrdered(workers,
			func(i int) int {
				v := inFlight.Add(1)
				for {
					m := peak.Load()
					if v <= m || peak.CompareAndSwap(m, v) {
						break
					}
				}
				return i
			},
			func(int) {
				time.Sleep(10 * time.Microsecond) // a slow consumer fills the window
				inFlight.Add(-1)
			})
		for i := 0; i < 200; i++ {
			p.Submit(i)
		}
		p.Close()
		if m := peak.Load(); m > int64(p.Window()) {
			t.Errorf("workers=%d: peak in-flight %d exceeds window %d", workers, m, p.Window())
		}
	}
}

// TestOrderedSerialInline asserts that one worker means no goroutine:
// produce and consume both run inside Submit.
func TestOrderedSerialInline(t *testing.T) {
	before := runtime.NumGoroutine()
	consumed := 0
	p := NewOrdered(1,
		func(i int) int {
			if g := runtime.NumGoroutine(); g != before {
				t.Errorf("produce(%d) saw %d goroutines, want %d", i, g, before)
			}
			return i
		},
		func(int) { consumed++ })
	for i := 0; i < 10; i++ {
		p.Submit(i)
		if consumed != i+1 {
			t.Fatalf("Submit(%d) returned before its item was consumed", i)
		}
	}
	p.Close()
	if g := runtime.NumGoroutine(); g != before {
		t.Errorf("%d goroutines after Close, want %d", g, before)
	}
}

// TestOrderedAllocsPerItem asserts that a warm pool allocates nothing
// per item, instrumented or not.
func TestOrderedAllocsPerItem(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on channel operations")
	}
	for _, reg := range []*obs.Registry{nil, obs.NewRegistry()} {
		for _, workers := range []int{1, 4} {
			sum := 0
			p := NewOrderedObs(reg, "test", workers, func(i int) int { return 2 * i }, func(v int) { sum += v })
			for i := 0; i < 4*p.Window(); i++ { // start every goroutine
				p.Submit(i)
			}
			if a := testing.AllocsPerRun(1000, func() { p.Submit(1) }); a != 0 {
				t.Errorf("workers=%d instrumented=%v: %.2f allocs per item, want 0", workers, reg != nil, a)
			}
			p.Close()
		}
	}
}

// TestOrderedObsCountsItems asserts the registry hook counts every
// produce call under its stage label.
func TestOrderedObsCountsItems(t *testing.T) {
	reg := obs.NewRegistry()
	p := NewOrderedObs(reg, "test", 3, func(i int) int { return i }, func(int) {})
	for i := 0; i < 25; i++ {
		p.Submit(i)
	}
	p.Close()
	if got := reg.Counter(famShards, "stage", "test").Value(); got != 25 {
		t.Errorf("%s{stage=test} = %d, want 25", famShards, got)
	}
}
