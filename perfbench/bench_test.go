package main

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// The self-test runs every workload at tiny sizes, traced and untraced,
// and checks the result line against BENCHMARK.json; then it corrupts one
// expectation per workload and checks the correctness checks catch it.
// It builds cmd/explorerd itself, so it needs the repository around it.

const specPath = "../BENCHMARK.json"

func buildExplorerd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "explorerd")
	cmd := exec.Command("go", "build", "-o", bin, "jitomev/cmd/explorerd")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building explorerd: %v\n%s", err, out)
	}
	return bin
}

func tinyConfig(t *testing.T, workload, explorerd string) config {
	return config{workload: workload, seed: 7, scheduleSeed: 11, seconds: 1, tiny: true,
		explorerd: explorerd, workdir: t.TempDir()}
}

func readSpec(t *testing.T) spec {
	t.Helper()
	raw, err := os.ReadFile(specPath)
	if err != nil {
		t.Fatal(err)
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		t.Fatal(err)
	}
	return sp
}

func TestTinyRunsEmitEveryMetric(t *testing.T) {
	explorerd := buildExplorerd(t)
	sp := readSpec(t)
	for name := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := tinyConfig(t, name, explorerd)
			cfg.trace = trace
			line, err := run(cfg, specPath)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !line.Correct || line.Failed != 0 || line.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, trace, line.Correct, line.Attempted, line.Failed)
			}
			want := sp.EndToEnd
			if trace {
				want = sp.PerLayer
			}
			if len(line.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, spec declares %d", name, trace, len(line.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := line.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s missing or unit %q != %q", name, trace, m.Name, got.Unit, m.Unit)
				}
				if !trace && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m.Name, got.Value)
				}
			}
			if !trace {
				continue
			}
			if line.Metrics["error_ratio"].Value != 0 {
				t.Errorf("%s: error_ratio %v", name, line.Metrics["error_ratio"].Value)
			}
			sum := line.Metrics["unattributed_s"].Value
			for _, l := range pathLayers {
				sum += line.Metrics["path."+l+"_s"].Value
			}
			if wall := line.Metrics["trace.wall_s"].Value; wall <= 0 || math.Abs(sum-wall) > 1e-6*wall {
				t.Errorf("%s: blocking path sums to %v s, traced wall %v s", name, sum, wall)
			}
		}
	}
}

func TestSabotagedExpectationFails(t *testing.T) {
	explorerd := buildExplorerd(t)
	for name := range workloads {
		cfg := tinyConfig(t, name, explorerd)
		cfg.sabotage = true
		cfg.trace = true
		line, err := run(cfg, specPath)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if line.Correct || line.Failed == 0 || line.Metrics["error_ratio"].Value <= 0 {
			t.Errorf("%s: a corrupted expectation went unnoticed (failed=%d of %d)", name, line.Failed, line.Attempted)
		}
	}
}

// TestBlockingPathSumsToWall builds a two-lane pipeline by hand: the
// layer totals plus unattributed time must equal the root's duration.
func TestBlockingPathSumsToWall(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	rec := newRecorder()
	root := rec.add(&span{name: "unattributed", lane: laneMain, start: 0, end: ms(100)})
	run := rec.add(&span{name: "workload.run", lane: laneMain, start: ms(5), end: ms(60), parent: root})
	rec.add(&span{name: "workload.sink_wait", lane: laneMain, start: ms(20), end: ms(40), parent: run, waitLane: laneIngest})
	rec.add(&span{name: "workload.drain", lane: laneMain, start: ms(60), end: ms(70), parent: root, waitLane: laneIngest})
	sink := rec.add(&span{name: "collector.sink", lane: laneIngest, start: ms(10), end: ms(68)})
	rec.add(&span{name: "explorer.accept", lane: laneIngest, start: ms(10), end: ms(30), parent: sink})
	poll := rec.add(&span{name: "collector.poll", lane: laneIngest, start: ms(30), end: ms(68), parent: sink})
	tr := rec.add(&span{name: "collector.transport", lane: laneIngest, start: ms(32), end: ms(60), parent: poll})
	rec.add(&span{name: "explorer.serve", lane: laneServer, start: ms(35), end: ms(55), parent: tr})
	rec.add(&span{name: "report.analyze", lane: laneMain, start: ms(75), end: ms(95), parent: root})

	path := rec.analyse().blockingPath(root)
	var sum time.Duration
	for _, d := range path {
		sum += d
	}
	if sum != root.dur() {
		t.Fatalf("path sums to %v, root lasted %v: %v", sum, root.dur(), path)
	}
	want := map[string]time.Duration{
		"workload":     ms(35),            // run's own time: 5-20 and 40-60
		"explorer":     ms(10 + 5),        // during the push wait 20-40: accept 20-30, serve 35-40
		"collector":    ms(2 + 3 + 8),     // poll 30-32, transport 32-35, then poll 60-68 in the drain
		"report":       ms(20),            // analyze 75-95
		"unattributed": ms(5 + 5 + 5 + 2), // gaps 0-5, 70-75, 95-100 and the idle drain tail 68-70
	}
	if !reflect.DeepEqual(path, want) {
		t.Errorf("blocking path %v, want %v", path, want)
	}
}

// TestScheduleIsPureFunctionOfSeeds: same seeds, same requests and due
// times; another schedule seed, another schedule.
func TestScheduleIsPureFunctionOfSeeds(t *testing.T) {
	var pool []*request
	for i := 0; i < 20; i++ {
		pool = append(pool, &request{kind: i % 3, path: string(rune('a' + i))})
	}
	a := scheduler{seed: 1, scheduleSeed: 2, pool: pool}.phase("reference", 200, time.Second)
	b := scheduler{seed: 1, scheduleSeed: 2, pool: pool}.phase("reference", 200, time.Second)
	c := scheduler{seed: 1, scheduleSeed: 3, pool: pool}.phase("reference", 200, time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seeds gave different schedules")
	}
	if reflect.DeepEqual(a.due, c.due) {
		t.Error("a different schedule seed gave the same schedule")
	}
}
