// Command metricscheck validates a Prometheus text exposition: every
// line must be a well-formed # HELP/# TYPE comment or a `name{labels}
// value` sample (the same gate the exposition golden test applies). It
// reads from stdin or fetches -url, and -require asserts that named
// metric families are present — the teeth behind `make metrics-smoke`.
//
// -quality-url additionally fetches a /qualityz document and validates
// it the same way: the JSON must parse into the quality.Report shape
// (aggregate status, named checks with reasons, coverage ledger, drift
// state), and the aggregate verdict must not exceed -max-status — so the
// smoke run fails on an unexpected CRIT, not just on a malformed
// exposition.
//
// -leasez-url fetches a fleet coordinator's /leasez state document and
// validates its shape: the partition plan must tile (0, high-water]
// contiguously and every lease must name a plan partition with its
// cursor inside the partition's range.
//
// -sloz-url fetches an SLO engine's /sloz document and validates its
// shape: at least one objective, unique names, targets in (0,1), SLIs
// and budget-remaining fractions in [0,1], the four burn-rate windows
// present with positive thresholds, legal alert states, and transition
// histories whose timestamps parse and whose states are legal.
// -sloz-expect additionally waits (up to -wait) for the document to
// reach an alerting posture: all-ok, burning (some objective out of
// OK), or fast-burn — the teeth behind `make load-smoke`'s
// OK → burning → recovered ladder.
//
// -tracez-url fetches a flight recorder's /tracez document and validates
// every kept trace: 32-hex non-zero trace IDs, 16-hex span IDs, parent
// links that resolve within the trace (or are marked remote), non-
// negative durations, occupancy within capacity. -tracez-min-spans waits
// (up to -wait) for at least one trace that deep — the teeth behind the
// fleet smoke's "a cross-process poll leaves a ≥3-hop trace" check —
// and -tracez-require-remote demands a trace whose parent arrived over
// the wire, proving cross-process stitching.
//
// Usage:
//
//	curl -s host:port/metrics | metricscheck
//	metricscheck -url http://host:port/metrics -wait 5s -require collector_polls_total
//	metricscheck -url http://host:port/metrics -quality-url http://host:port/qualityz -max-status warn
//	metricscheck -url http://host:port/metrics -tracez-url http://host:port/tracez -tracez-min-spans 3
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"jitomev/internal/fleet"
	"jitomev/internal/obs"
	"jitomev/internal/quality"
	"jitomev/internal/slo"
)

// families is a repeatable -require flag.
type families []string

func (f *families) String() string     { return strings.Join(*f, ",") }
func (f *families) Set(s string) error { *f = append(*f, s); return nil }

func main() {
	var (
		url        = flag.String("url", "", "fetch the exposition from this URL instead of stdin")
		wait       = flag.Duration("wait", 0, "with -url, keep retrying for up to this long before failing")
		qualityURL = flag.String("quality-url", "", "also fetch and validate a /qualityz JSON document from this URL")
		maxStatus  = flag.String("max-status", "warn", "with -quality-url, fail when the aggregate verdict exceeds this (ok|warn|crit)")
		leasezURL  = flag.String("leasez-url", "", "also fetch and validate a /leasez fleet state document from this URL")
		tracezURL  = flag.String("tracez-url", "", "also fetch and validate a /tracez flight-recorder document from this URL")
		slozURL    = flag.String("sloz-url", "", "also fetch and validate a /sloz SLO document from this URL")
		slozExpect = flag.String("sloz-expect", "", "with -sloz-url, wait for this alert posture (all-ok|burning|fast-burn)")
		minSpans   = flag.Int("tracez-min-spans", 1, "with -tracez-url, wait for at least one trace with this many spans")
		wantRemote = flag.Bool("tracez-require-remote", false, "with -tracez-url, require a remotely-rooted trace (cross-process stitching)")
		require    families
	)
	flag.Var(&require, "require", "fail unless this metric family is present (repeatable)")
	flag.Parse()

	body, err := read(*url, *wait)
	if err != nil {
		fmt.Fprintln(os.Stderr, "metricscheck:", err)
		os.Exit(1)
	}
	if err := obs.ValidateExposition(bytes.NewReader(body)); err != nil {
		fmt.Fprintln(os.Stderr, "metricscheck: malformed exposition:", err)
		os.Exit(1)
	}
	for _, fam := range require {
		if !hasFamily(body, fam) {
			fmt.Fprintf(os.Stderr, "metricscheck: required family %q not exposed\n", fam)
			os.Exit(1)
		}
	}
	samples := 0
	for _, line := range strings.Split(string(body), "\n") {
		if line != "" && !strings.HasPrefix(line, "#") {
			samples++
		}
	}
	fmt.Printf("metricscheck: ok — %d samples, %d bytes\n", samples, len(body))

	if *qualityURL != "" {
		if err := checkQuality(*qualityURL, *wait, *maxStatus); err != nil {
			fmt.Fprintln(os.Stderr, "metricscheck:", err)
			os.Exit(1)
		}
	}
	if *leasezURL != "" {
		if err := checkLeasez(*leasezURL, *wait); err != nil {
			fmt.Fprintln(os.Stderr, "metricscheck:", err)
			os.Exit(1)
		}
	}
	if *tracezURL != "" {
		if err := checkTracez(*tracezURL, *wait, *minSpans, *wantRemote); err != nil {
			fmt.Fprintln(os.Stderr, "metricscheck:", err)
			os.Exit(1)
		}
	}
	if *slozURL != "" {
		if err := checkSloz(*slozURL, *wait, *slozExpect); err != nil {
			fmt.Fprintln(os.Stderr, "metricscheck:", err)
			os.Exit(1)
		}
	}
}

// checkSloz fetches and validates a /sloz document, retrying until the
// deadline for the expected alert posture. Shape violations fail
// immediately; only "not in the expected posture yet" waits.
func checkSloz(url string, wait time.Duration, expect string) error {
	switch expect {
	case "", "all-ok", "burning", "fast-burn":
	default:
		return fmt.Errorf("bad -sloz-expect %q (want all-ok|burning|fast-burn)", expect)
	}
	deadline := time.Now().Add(wait)
	for {
		body, err := read(url, 0)
		if err == nil {
			err = validateSloz(body, expect)
			if err == nil {
				var doc slo.Doc
				_ = json.Unmarshal(body, &doc)
				fmt.Printf("metricscheck: sloz ok — %d objectives after %d ticks\n",
					len(doc.Objectives), doc.Ticks)
				return nil
			}
			if _, fatal := err.(*shapeError); fatal {
				return err
			}
		}
		if time.Now().After(deadline) {
			return err
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// validateSloz checks a /sloz document's shape and, when expect is
// set, its alert posture. Posture misses come back as plain
// (retryable) errors.
func validateSloz(body []byte, expect string) error {
	var doc slo.Doc
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		return shapeErrf("malformed /sloz document: %v", err)
	}
	if len(doc.Objectives) == 0 {
		return shapeErrf("/sloz has no objectives")
	}
	seen := make(map[string]bool, len(doc.Objectives))
	worst := slo.StateOK
	burning := 0
	for _, o := range doc.Objectives {
		if o.Name == "" {
			return shapeErrf("/sloz objective with empty name")
		}
		if seen[o.Name] {
			return shapeErrf("/sloz duplicate objective %q", o.Name)
		}
		seen[o.Name] = true
		if o.Target <= 0 || o.Target >= 1 {
			return shapeErrf("/sloz %s: target %v outside (0,1)", o.Name, o.Target)
		}
		if o.SLI < 0 || o.SLI > 1 {
			return shapeErrf("/sloz %s: sli %v outside [0,1]", o.Name, o.SLI)
		}
		if o.BudgetRemaining < 0 || o.BudgetRemaining > 1 {
			return shapeErrf("/sloz %s: budget_remaining %v outside [0,1]", o.Name, o.BudgetRemaining)
		}
		if len(o.BurnRates) != 4 {
			return shapeErrf("/sloz %s: %d burn-rate windows, want 4", o.Name, len(o.BurnRates))
		}
		for _, b := range o.BurnRates {
			if b.Window == "" || b.Seconds <= 0 || b.BurnRate < 0 || b.Threshold <= 0 {
				return shapeErrf("/sloz %s: malformed burn window %+v", o.Name, b)
			}
		}
		// The alert state itself is enum-checked by UnmarshalJSON; the
		// history must be legal hops with parseable timestamps.
		if _, err := time.Parse(time.RFC3339Nano, o.Alert.Since); err != nil {
			return shapeErrf("/sloz %s: bad alert since %q", o.Name, o.Alert.Since)
		}
		for _, tr := range o.Alert.Transitions {
			if _, err := time.Parse(time.RFC3339Nano, tr.At); err != nil {
				return shapeErrf("/sloz %s: bad transition timestamp %q", o.Name, tr.At)
			}
			if tr.From == tr.To {
				return shapeErrf("/sloz %s: self-transition %s -> %s", o.Name, tr.From, tr.To)
			}
		}
		if o.Alert.TransitionsTotal < uint64(len(o.Alert.Transitions)) {
			return shapeErrf("/sloz %s: transitions_total %d < %d kept",
				o.Name, o.Alert.TransitionsTotal, len(o.Alert.Transitions))
		}
		if o.Alert.State != slo.StateOK {
			burning++
			if o.Alert.Reason == "" {
				return shapeErrf("/sloz %s: state %s without a reason", o.Name, o.Alert.State)
			}
		}
		if o.Alert.State > worst {
			worst = o.Alert.State
		}
	}
	switch expect {
	case "all-ok":
		if burning > 0 {
			return fmt.Errorf("/sloz has %d objectives out of OK (worst %s), want all OK", burning, worst)
		}
	case "burning":
		if burning == 0 {
			return fmt.Errorf("/sloz has every objective OK, want at least one burning")
		}
	case "fast-burn":
		if worst != slo.StateFastBurn {
			return fmt.Errorf("/sloz worst state %s, want fast_burn", worst)
		}
	}
	return nil
}

// checkTracez fetches and validates a /tracez document, retrying until
// the deadline for a trace with at least minSpans spans (and, when
// wantRemote, a remotely-rooted one). Shape violations fail immediately;
// only "not deep enough yet" waits.
func checkTracez(url string, wait time.Duration, minSpans int, wantRemote bool) error {
	deadline := time.Now().Add(wait)
	for {
		body, err := read(url, 0)
		if err == nil {
			var deepest int
			deepest, err = validateTracez(body, minSpans, wantRemote)
			if err == nil {
				var doc obs.TracezDoc
				_ = json.Unmarshal(body, &doc)
				fmt.Printf("metricscheck: tracez ok — %d/%d traces kept, deepest %d spans\n",
					doc.Occupancy, doc.Capacity, deepest)
				return nil
			}
			if _, fatal := err.(*shapeError); fatal {
				return err
			}
		}
		if time.Now().After(deadline) {
			return err
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// shapeError marks a malformed /tracez or /sloz document — never worth
// retrying.
type shapeError struct{ msg string }

func (e *shapeError) Error() string { return e.msg }

func shapeErrf(format string, args ...any) error {
	return &shapeError{msg: fmt.Sprintf(format, args...)}
}

// validateTracez checks the whole document, returning the deepest
// trace's span count. A shape violation returns *shapeError; a
// merely-too-shallow recorder returns a plain (retryable) error.
func validateTracez(body []byte, minSpans int, wantRemote bool) (int, error) {
	var doc obs.TracezDoc
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		return 0, shapeErrf("malformed /tracez document: %v", err)
	}
	if doc.Capacity <= 0 {
		return 0, shapeErrf("/tracez capacity %d", doc.Capacity)
	}
	if doc.Occupancy < 0 || doc.Occupancy > doc.Capacity {
		return 0, shapeErrf("/tracez occupancy %d outside [0,%d]", doc.Occupancy, doc.Capacity)
	}
	if len(doc.Traces) != doc.Occupancy {
		return 0, shapeErrf("/tracez serves %d traces, occupancy says %d", len(doc.Traces), doc.Occupancy)
	}
	deepest, sawRemote := 0, false
	for _, kt := range doc.Traces {
		if err := validateTrace(kt); err != nil {
			return 0, err
		}
		if len(kt.Spans) > deepest {
			deepest = len(kt.Spans)
		}
		if kt.Remote {
			sawRemote = true
		}
	}
	if deepest < minSpans {
		return deepest, fmt.Errorf("/tracez deepest trace has %d spans, want >= %d", deepest, minSpans)
	}
	if wantRemote && !sawRemote {
		return deepest, fmt.Errorf("/tracez has no remotely-rooted trace yet")
	}
	return deepest, nil
}

// validateTrace checks one kept trace: well-formed IDs, resolvable
// parent links, sane durations.
func validateTrace(kt obs.KeptTrace) error {
	if !isHex(kt.TraceID, 32) || kt.TraceID == strings.Repeat("0", 32) {
		return shapeErrf("trace %q: bad trace id", kt.TraceID)
	}
	if kt.KeepReason == "" {
		return shapeErrf("trace %s: empty keep_reason", kt.TraceID)
	}
	if len(kt.Spans) == 0 {
		return shapeErrf("trace %s: no spans", kt.TraceID)
	}
	ids := make(map[string]bool, len(kt.Spans))
	for _, s := range kt.Spans {
		if !isHex(s.SpanID, 16) {
			return shapeErrf("trace %s: bad span id %q", kt.TraceID, s.SpanID)
		}
		ids[s.SpanID] = true
	}
	for _, s := range kt.Spans {
		if s.Name == "" {
			return shapeErrf("trace %s: span %s has no name", kt.TraceID, s.SpanID)
		}
		if s.DurationNS < 0 {
			return shapeErrf("trace %s: span %s duration %d", kt.TraceID, s.SpanID, s.DurationNS)
		}
		if s.ParentSpanID != "" && !s.RemoteParent && !ids[s.ParentSpanID] && kt.Dropped == 0 {
			return shapeErrf("trace %s: span %s parent %s unresolved", kt.TraceID, s.SpanID, s.ParentSpanID)
		}
	}
	return nil
}

// isHex reports whether s is exactly n lowercase hex digits.
func isHex(s string, n int) bool {
	if len(s) != n {
		return false
	}
	for i := 0; i < n; i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// checkLeasez fetches and validates a /leasez state document: the JSON
// must be the fleet.State shape, the plan's partitions must tile
// (0, high-water] contiguously in ID order, and every lease must refer
// to a partition of the plan with a cursor inside (or one past) its
// range.
func checkLeasez(url string, wait time.Duration) error {
	body, err := read(url, wait)
	if err != nil {
		return err
	}
	var st fleet.State
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&st); err != nil {
		return fmt.Errorf("malformed /leasez document: %w", err)
	}
	if len(st.Plan.Partitions) == 0 {
		return fmt.Errorf("/leasez plan has no partitions")
	}
	next := uint64(1)
	for i, p := range st.Plan.Partitions {
		if p.ID != i {
			return fmt.Errorf("/leasez partition %d carries ID %d", i, p.ID)
		}
		if p.Empty() {
			continue
		}
		if p.Lo != next {
			return fmt.Errorf("/leasez plan not contiguous: partition %d starts at %d, want %d", i, p.Lo, next)
		}
		next = p.Hi + 1
	}
	if next != st.Plan.HighWater+1 {
		return fmt.Errorf("/leasez plan covers through %d, high water is %d", next-1, st.Plan.HighWater)
	}
	if len(st.Leases) != len(st.Plan.Partitions) {
		return fmt.Errorf("/leasez has %d leases for %d partitions", len(st.Leases), len(st.Plan.Partitions))
	}
	done := 0
	for i, l := range st.Leases {
		if l.Partition.ID != st.Plan.Partitions[i].ID {
			return fmt.Errorf("/leasez lease %d names partition %d", i, l.Partition.ID)
		}
		if l.Cursor != 0 && !l.Partition.Empty() &&
			(l.Cursor < l.Partition.Lo || l.Cursor > l.Partition.Hi+1) {
			return fmt.Errorf("/leasez lease %d cursor %d outside partition (%d,%d]",
				i, l.Cursor, l.Partition.Lo-1, l.Partition.Hi)
		}
		if l.Done {
			done++
		}
	}
	fmt.Printf("metricscheck: leasez ok — %d partitions over high water %d, %d done\n",
		len(st.Plan.Partitions), st.Plan.HighWater, done)
	return nil
}

// checkQuality fetches and validates a /qualityz document: it must be
// the quality.Report shape, every check must carry a name, every
// non-OK check a reason, and the aggregate must not exceed maxStatus.
func checkQuality(url string, wait time.Duration, maxStatus string) error {
	var ceiling quality.Status
	if err := ceiling.UnmarshalJSON([]byte(`"` + maxStatus + `"`)); err != nil {
		return fmt.Errorf("bad -max-status %q (want ok|warn|crit)", maxStatus)
	}
	body, err := read(url, wait)
	if err != nil {
		return err
	}
	var rep quality.Report
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rep); err != nil {
		return fmt.Errorf("malformed /qualityz document: %w", err)
	}
	worst := quality.OK
	for _, c := range rep.Checks {
		if c.Name == "" {
			return fmt.Errorf("/qualityz check with empty name: %+v", c)
		}
		if c.Status != quality.OK && c.Reason == "" {
			return fmt.Errorf("/qualityz check %q degraded (%s) without a reason", c.Name, c.Status)
		}
		if c.Status > worst {
			worst = c.Status
		}
	}
	if worst != rep.Status {
		return fmt.Errorf("/qualityz aggregate %s does not match worst check %s", rep.Status, worst)
	}
	for _, d := range rep.Drift {
		if d.Name == "" || (d.Kind != "ewma" && d.Kind != "cusum") {
			return fmt.Errorf("/qualityz drift entry malformed: %+v", d)
		}
	}
	if rep.Status > ceiling {
		return fmt.Errorf("/qualityz verdict %s exceeds -max-status %s", rep.Status, ceiling)
	}
	fmt.Printf("metricscheck: qualityz ok — verdict %s, %d checks, %d drift detectors\n",
		rep.Status, len(rep.Checks), len(rep.Drift))
	return nil
}

// read fetches url (retrying until the deadline when wait > 0) or, with
// no url, drains stdin.
func read(url string, wait time.Duration) ([]byte, error) {
	if url == "" {
		return io.ReadAll(os.Stdin)
	}
	deadline := time.Now().Add(wait)
	for {
		body, err := fetch(url)
		if err == nil {
			return body, nil
		}
		if time.Now().After(deadline) {
			return nil, err
		}
		time.Sleep(100 * time.Millisecond)
	}
}

func fetch(url string) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return io.ReadAll(resp.Body)
}

// hasFamily reports whether any sample line belongs to family — the
// name followed by a label block, a space, or nothing else.
func hasFamily(body []byte, family string) bool {
	for _, line := range strings.Split(string(body), "\n") {
		if !strings.HasPrefix(line, family) {
			continue
		}
		rest := line[len(family):]
		if strings.HasPrefix(rest, "{") || strings.HasPrefix(rest, " ") {
			return true
		}
	}
	return false
}
