package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// median returns the middle of xs (mean of the middle two for even
// counts); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile of xs (p in
// (0,100]): with fewer than 100/(100-p) samples it is the maximum.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// medianOf collects per-pass metrics and reports their medians, and
// keeps each traced pass's blocking-path breakdown whole.
type medianOf struct {
	series map[string][]float64
	paths  []map[string]float64
}

func newMedianOf() *medianOf { return &medianOf{series: map[string][]float64{}} }

func (m *medianOf) add(name string, v float64) { m.series[name] = append(m.series[name], v) }

// addPath records one pass's blocking-path breakdown and traced wall time.
func (m *medianOf) addPath(path map[string]time.Duration, wall time.Duration) {
	out := map[string]float64{"unattributed_s": path["unattributed"].Seconds(), "trace.wall_s": wall.Seconds()}
	for _, l := range pathLayers {
		out["path."+l+"_s"] = path[l].Seconds()
	}
	m.paths = append(m.paths, out)
}

// into stores every series' median into dst, and the breakdown of the
// pass with the median traced wall time, so that the reported path
// times sum to the reported wall time.
func (m *medianOf) into(dst map[string]float64) {
	for name, xs := range m.series {
		dst[name] = median(xs)
	}
	if len(m.paths) == 0 {
		return
	}
	sort.Slice(m.paths, func(i, j int) bool { return m.paths[i]["trace.wall_s"] < m.paths[j]["trace.wall_s"] })
	for name, v := range m.paths[(len(m.paths)-1)/2] {
		dst[name] = v
	}
}

// cpuSelf returns this process's user+system CPU time.
func cpuSelf() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// clockTicks is the kernel's USER_HZ, the unit of /proc/<pid>/stat CPU
// fields; 100 on every mainstream Linux configuration.
const clockTicks = 100

// cpuOfPID reads a running child's user+system CPU time from
// /proc/<pid>/stat (getrusage sees children only after they exit).
func cpuOfPID(pid int) (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields resume after ')'.
	s := string(raw)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// heapSampler samples this process's live heap objects from outside the
// measured call, via runtime/metrics, and keeps the high-water mark.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func readHeap(s []metrics.Sample) uint64 {
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// startHeap begins sampling every 2 ms until Stop.
func startHeap() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	s := []metrics.Sample{{Name: heapMetric}}
	h.peak = readHeap(s)
	go func() {
		defer close(h.done)
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				if v := readHeap(s); v > h.peak {
					h.peak = v
				}
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the peak in MiB.
func (h *heapSampler) Stop() float64 {
	close(h.stop)
	<-h.done
	if v := readHeap([]metrics.Sample{{Name: heapMetric}}); v > h.peak {
		h.peak = v
	}
	return float64(h.peak) / (1 << 20)
}

// allocMetric is the cumulative count of bytes allocated on the heap.
const allocMetric = "/gc/heap/allocs:bytes"

// allocated returns the bytes this process has allocated on the heap so
// far. The runtime counts a span's free slots when it hands the span to
// an allocator, so the figure is exact to within a few spans.
func allocated() uint64 {
	s := []metrics.Sample{{Name: allocMetric}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// passCost is the resource use of one measured pass.
type passCost struct {
	wall, cpu time.Duration
	heapMiB   float64
	alloc     uint64 // heap bytes allocated
}

// measured runs fn after a collection, with CPU, wall, bytes allocated
// and peak heap taken around it.
func measured(fn func() error) (passCost, error) {
	runtime.GC()
	h := startHeap()
	a0, c0, t0 := allocated(), cpuSelf(), time.Now()
	err := fn()
	c := passCost{wall: time.Since(t0), cpu: cpuSelf() - c0, alloc: allocated() - a0}
	c.heapMiB = h.Stop()
	return c, err
}

// deadline reports whether a loop started at start has used its budget,
// after at least min iterations.
func deadline(start time.Time, budget time.Duration, done, min int) bool {
	return done >= min && time.Since(start) >= budget
}
