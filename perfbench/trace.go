package main

import (
	"sort"
	"strings"
	"sync"
	"time"
)

// Spans are recorded only by the benchmark's own wrappers around the
// program's public seams, kept in memory, and analysed when a traced pass
// ends. A span's layer is its name up to the first dot.

// Lanes name the goroutine a span ran on. Spans on one lane never
// overlap unless nested.
const (
	laneMain   = "main"
	laneIngest = "ingest"
	laneServer = "server"
)

type span struct {
	name       string
	lane       string
	start, end time.Duration // since the recorder's epoch (monotonic)
	parent     *span
	// waitLane marks a span during which its goroutine was blocked on
	// work running on another lane; blocking-path attribution charges the
	// interval to whatever that lane was doing.
	waitLane string
}

func (s *span) dur() time.Duration { return s.end - s.start }

// recorder collects spans from any goroutine. A span's end is written by
// the goroutine that began it, under the same lock analysis takes, which
// runs once every recording goroutine has finished.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []*span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() time.Duration { return time.Since(r.epoch) }

// begin opens a span now.
func (r *recorder) begin(name, lane string, parent *span) *span {
	return r.add(&span{name: name, lane: lane, start: r.now(), parent: parent})
}

// add records a fully formed span.
func (r *recorder) add(s *span) *span {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
	return s
}

func (r *recorder) end(s *span) {
	t := r.now()
	r.mu.Lock()
	s.end = t
	r.mu.Unlock()
}

// timed records fn as a span.
func (r *recorder) timed(name string, parent *span, fn func()) {
	s := r.begin(name, laneMain, parent)
	fn()
	r.end(s)
}

func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

type interval struct{ a, b time.Duration }

type segment struct {
	interval
	layer string
}

// analysis is the span tree of one traced pass.
type analysis struct {
	spans    []*span
	children map[*span][]*span
}

func (r *recorder) analyse() *analysis {
	r.mu.Lock()
	defer r.mu.Unlock()
	an := &analysis{spans: r.spans, children: map[*span][]*span{}}
	for _, s := range r.spans {
		if s.parent != nil {
			an.children[s.parent] = append(an.children[s.parent], s)
		}
	}
	return an
}

// self returns the parts of s's interval its children do not cover.
func (an *analysis) self(s *span) []interval {
	kids := make([]interval, 0, len(an.children[s]))
	for _, c := range an.children[s] {
		a, b := c.start, c.end
		if a < s.start {
			a = s.start
		}
		if b > s.end {
			b = s.end
		}
		if a < b {
			kids = append(kids, interval{a, b})
		}
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].a < kids[j].a })
	var out []interval
	at := s.start
	for _, k := range kids {
		if k.a > at {
			out = append(out, interval{at, k.a})
		}
		if k.b > at {
			at = k.b
		}
	}
	if at < s.end {
		out = append(out, interval{at, s.end})
	}
	return out
}

func total(ivs []interval) time.Duration {
	var t time.Duration
	for _, iv := range ivs {
		t += iv.b - iv.a
	}
	return t
}

// sum adds the durations (self=false) or self times (self=true) of every
// span with the given name.
func (an *analysis) sum(name string, self bool) time.Duration {
	var t time.Duration
	for _, s := range an.spans {
		if s.name != name {
			continue
		}
		if self {
			t += total(an.self(s))
		} else {
			t += s.dur()
		}
	}
	return t
}

func (an *analysis) count(name string) int {
	n := 0
	for _, s := range an.spans {
		if s.name == name {
			n++
		}
	}
	return n
}

// laneSegments partitions the busy time of every span tree rooted on
// lane into self-time segments labelled by layer, sorted by start.
func (an *analysis) laneSegments(lane string) []segment {
	var segs []segment
	var walk func(s *span)
	walk = func(s *span) {
		for _, iv := range an.self(s) {
			segs = append(segs, segment{iv, layerOf(s.name)})
		}
		for _, c := range an.children[s] {
			walk(c)
		}
	}
	for _, s := range an.spans {
		if s.parent == nil && s.lane == lane {
			walk(s)
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].a < segs[j].a })
	return segs
}

// blockingPath charges every instant of root's interval to one layer:
// a span's self time to its own layer, the children it waited on
// recursively, and a wait on another lane to that lane's self-time
// segments over the same instants. Time nothing covers — gaps between
// steps, hand-offs between goroutines — is charged to "unattributed".
// The layer totals therefore sum exactly to root's duration.
func (an *analysis) blockingPath(root *span) map[string]time.Duration {
	out := map[string]time.Duration{}
	lanes := map[string][]segment{}
	var walk func(s *span, layer string)
	walk = func(s *span, layer string) {
		if s.waitLane != "" {
			segs, ok := lanes[s.waitLane]
			if !ok {
				segs = an.laneSegments(s.waitLane)
				lanes[s.waitLane] = segs
			}
			covered := overlap(segs, interval{s.start, s.end}, out)
			out["unattributed"] += s.dur() - covered
			return
		}
		out[layer] += total(an.self(s))
		for _, c := range an.children[s] {
			walk(c, layerOf(c.name))
		}
	}
	walk(root, "unattributed")
	return out
}

// overlap adds to out, per layer, how much of iv the sorted disjoint
// segments cover, and returns the covered total.
func overlap(segs []segment, iv interval, out map[string]time.Duration) time.Duration {
	i := sort.Search(len(segs), func(i int) bool { return segs[i].b > iv.a })
	var covered time.Duration
	for ; i < len(segs) && segs[i].a < iv.b; i++ {
		a, b := segs[i].a, segs[i].b
		if a < iv.a {
			a = iv.a
		}
		if b > iv.b {
			b = iv.b
		}
		if a < b {
			out[segs[i].layer] += b - a
			covered += b - a
		}
	}
	return covered
}

// pathLayers are the layers a blocking-path breakdown reports, each as
// path.<layer>_s, plus unattributed_s.
var pathLayers = []string{"workload", "explorer", "collector", "report", "snapshot", "query", "stream"}
