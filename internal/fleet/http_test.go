package fleet

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"jitomev/internal/collector"
)

// leasezServer mounts the /leasez endpoints over a fresh table.
func leasezServer(t *testing.T, hw uint64) (*LeaseClient, *LeaseTable) {
	t.Helper()
	table := NewLeaseTable(func() uint64 { return hw }, nil)
	mux := http.NewServeMux()
	for _, ep := range NewLeaseServer(table).Endpoints() {
		mux.Handle(ep.Path, ep.Handler)
	}
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return NewLeaseClient(srv.URL), table
}

// TestLeaseHTTPRoundTrip runs the full coordination protocol through
// the wire: the client must behave identically to the in-process table.
func TestLeaseHTTPRoundTrip(t *testing.T) {
	client, _ := leasezServer(t, 1000)

	// No plan yet: state and acquire map to ErrNoPlan across the wire.
	if _, err := client.State(); !errors.Is(err, ErrNoPlan) {
		t.Fatalf("state before plan: %v, want ErrNoPlan", err)
	}
	if _, err := client.Acquire(0, "a", time.Second); !errors.Is(err, ErrNoPlan) {
		t.Fatalf("acquire before plan: %v, want ErrNoPlan", err)
	}

	pl, err := client.Plan(3)
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	if pl.HighWater != 1000 || len(pl.Partitions) != 3 {
		t.Fatalf("plan = %+v", pl)
	}

	lease, err := client.Acquire(1, "a", time.Second)
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	if lease.Epoch != 1 || lease.Holder != "a" || lease.ExpiresUnixMs == 0 {
		t.Fatalf("lease = %+v", lease)
	}
	if _, err := client.Acquire(1, "b", time.Second); !errors.Is(err, ErrLeaseHeld) {
		t.Fatalf("contended acquire: %v, want ErrLeaseHeld", err)
	}
	if _, err := client.Acquire(42, "a", time.Second); !errors.Is(err, ErrUnknownPartition) {
		t.Fatalf("bogus partition: %v, want ErrUnknownPartition", err)
	}

	if err := client.Renew(1, "a", lease.Epoch, time.Second); err != nil {
		t.Fatalf("renew: %v", err)
	}
	if err := client.Renew(1, "a", lease.Epoch+7, time.Second); !errors.Is(err, ErrFenced) {
		t.Fatalf("stale renew: %v, want ErrFenced", err)
	}
	if err := client.Checkpoint(1, "a", lease.Epoch, 640, 25); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if err := client.Release(1, "a", lease.Epoch, true); err != nil {
		t.Fatalf("release: %v", err)
	}
	if _, err := client.Acquire(1, "b", time.Second); !errors.Is(err, ErrDone) {
		t.Fatalf("acquire done partition: %v, want ErrDone", err)
	}

	st, err := client.State()
	if err != nil {
		t.Fatalf("state: %v", err)
	}
	if len(st.Leases) != 3 || st.Plan.HighWater != 1000 {
		t.Fatalf("state = %+v", st)
	}
	l1 := st.Leases[1]
	if !l1.Done || l1.Cursor != 640 || l1.Records != 25 || l1.CkptEpoch != lease.Epoch {
		t.Fatalf("lease 1 over the wire = %+v", l1)
	}
	if st.Done() {
		t.Fatal("fleet should not be done with partitions 0 and 2 open")
	}
}

func TestLeaseHTTPRejectsBadRequests(t *testing.T) {
	client, table := leasezServer(t, 100)
	if _, err := table.Plan(1); err != nil {
		t.Fatalf("plan: %v", err)
	}

	get := func(path string) *http.Response {
		resp, err := http.Get(client.BaseURL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return resp
	}
	post := func(path, body string) *http.Response {
		resp, err := http.Post(client.BaseURL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		return resp
	}

	// Wrong method on either route.
	if resp := get("/leasez/acquire"); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET on op route: %d", resp.StatusCode)
	}
	if resp := post("/leasez", "{}"); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST on state route: %d", resp.StatusCode)
	}
	// Malformed and over-specified bodies.
	if resp := post("/leasez/acquire", "{not json"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: %d", resp.StatusCode)
	}
	if resp := post("/leasez/acquire", `{"partition":0,"holder":"a","ttl_ms":1000,"bogus":1}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field: %d", resp.StatusCode)
	}
	// Unknown op.
	if resp := post("/leasez/frobnicate", "{}"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown op: %d", resp.StatusCode)
	}

	// A partition count outside 1..maxPartitions is the client's error,
	// refused before the table is sized from it.
	unplanned, _ := leasezServer(t, 100)
	for _, body := range []string{`{"partitions":1000000000000}`, `{"partitions":0}`} {
		resp, err := http.Post(unplanned.BaseURL+"/leasez/plan", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST plan %s: %v", body, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("plan %s: %d, want 400", body, resp.StatusCode)
		}
	}
	if _, err := unplanned.Plan(maxPartitions + 1); !errors.Is(err, ErrBadPlan) {
		t.Fatalf("oversized plan: %v, want ErrBadPlan", err)
	}
	if _, err := unplanned.Plan(maxPartitions); err != nil {
		t.Fatalf("plan at the bound: %v", err)
	}
}

// TestFleetOverHTTPCoordinator runs a small fleet whose replicas
// coordinate through the wire protocol instead of the in-process table
// — the multi-process deployment shape, minus the processes.
func TestFleetOverHTTPCoordinator(t *testing.T) {
	clock := testClock()
	store := fillStore(1_200, clock)
	client, table := leasezServer(t, store.HighWater())
	_ = table

	ckptDir := t.TempDir()
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		rep := NewReplica(ReplicaConfig{
			ID:         fmt.Sprintf("wire-replica-%d", i),
			Clock:      clock,
			Transport:  &collector.Direct{Store: store},
			Coord:      client,
			Partitions: 4,
			PageLimit:  75,
			CkptDir:    ckptDir,
		})
		go func() { errs <- rep.Run() }()
	}
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("replica: %v", err)
		}
	}

	st, err := client.State()
	if err != nil {
		t.Fatalf("state: %v", err)
	}
	if !st.Done() {
		t.Fatalf("fleet over HTTP did not finish: %+v", st)
	}
	merged, _, err := MergeDir(st, ckptDir, nil, nil)
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	want := saveBytes(t, groundTruth(store, clock))
	if got := saveBytes(t, merged); string(got) != string(want) {
		t.Fatal("HTTP-coordinated merge differs from ground truth")
	}
}

// FuzzLeasezOps posts arbitrary bodies to every /leasez operation. No
// body may panic the server, and every answer is 200 or a client error
// (400, 404, 409) — never a 5xx. Each input first meets /leasez/plan on
// an unplanned table, which is where the partition count is sized, then
// every op on the planned table.
func FuzzLeasezOps(f *testing.F) {
	for _, body := range []string{
		`{"partitions":3}`,
		`{"partition":1,"holder":"a","ttl_ms":1000}`,
		`{"partition":42,"holder":"a","ttl_ms":1000}`,
		`{"partition":1,"holder":"a","epoch":1,"ttl_ms":1000}`,
		`{"partition":1,"holder":"a","epoch":8,"ttl_ms":1000}`,
		`{"partition":1,"holder":"a","epoch":1,"cursor":640,"records":25}`,
		`{"partition":1,"holder":"a","epoch":1,"done":true}`,
		"{not json",
		`{"partition":0,"holder":"a","ttl_ms":1000,"bogus":1}`,
		"{}",
		`{"partitions":1000000000000}`,
		`{"partitions":0}`,
	} {
		f.Add(body)
	}
	ops := []string{"/leasez/plan", "/leasez/acquire", "/leasez/renew", "/leasez/checkpoint", "/leasez/release"}
	f.Fuzz(func(t *testing.T, body string) {
		table := NewLeaseTable(func() uint64 { return 1000 }, nil)
		srv := NewLeaseServer(table)
		post := func(op string) {
			rec := httptest.NewRecorder()
			srv.handleOp(rec, httptest.NewRequest(http.MethodPost, op, strings.NewReader(body)))
			switch rec.Code {
			case http.StatusOK, http.StatusBadRequest, http.StatusNotFound, http.StatusConflict:
			default:
				t.Fatalf("POST %s %q: status %d: %s", op, body, rec.Code, rec.Body.Bytes())
			}
		}
		post("/leasez/plan")
		if _, err := table.Plan(4); err != nil {
			t.Fatal(err)
		}
		for _, op := range ops {
			post(op)
		}
	})
}
