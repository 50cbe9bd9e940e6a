package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"jitomev/internal/obs"
)

// The /leasez wire protocol: GET /leasez returns the State document;
// the lease operations are POSTs of small JSON bodies under /leasez/.
// Errors come back as {"code","error"} with a stable code the client
// maps onto the package's sentinel errors, so a replica behaves
// identically against an in-process LeaseTable and a remote explorerd.

// planRequest is the body of POST /leasez/plan.
type planRequest struct {
	Partitions int `json:"partitions"`
}

// acquireRequest is the body of POST /leasez/acquire.
type acquireRequest struct {
	Partition int    `json:"partition"`
	Holder    string `json:"holder"`
	TTLMs     int64  `json:"ttl_ms"`
}

// renewRequest is the body of POST /leasez/renew.
type renewRequest struct {
	Partition int    `json:"partition"`
	Holder    string `json:"holder"`
	Epoch     uint64 `json:"epoch"`
	TTLMs     int64  `json:"ttl_ms"`
}

// checkpointRequest is the body of POST /leasez/checkpoint.
type checkpointRequest struct {
	Partition int    `json:"partition"`
	Holder    string `json:"holder"`
	Epoch     uint64 `json:"epoch"`
	Cursor    uint64 `json:"cursor"`
	Records   uint64 `json:"records"`
}

// releaseRequest is the body of POST /leasez/release.
type releaseRequest struct {
	Partition int    `json:"partition"`
	Holder    string `json:"holder"`
	Epoch     uint64 `json:"epoch"`
	Done      bool   `json:"done"`
}

// errorResponse is every non-200 body.
type errorResponse struct {
	Code  string `json:"code"`
	Error string `json:"error"`
}

// codeFor maps a coordination error onto its wire code and HTTP status.
func codeFor(err error) (string, int) {
	switch {
	case errors.Is(err, ErrLeaseHeld):
		return "held", http.StatusConflict
	case errors.Is(err, ErrFenced):
		return "fenced", http.StatusConflict
	case errors.Is(err, ErrDone):
		return "done", http.StatusConflict
	case errors.Is(err, ErrNoPlan):
		return "no_plan", http.StatusConflict
	case errors.Is(err, ErrUnknownPartition):
		return "unknown_partition", http.StatusNotFound
	case errors.Is(err, ErrBadPlan):
		return "bad_plan", http.StatusBadRequest
	}
	return "internal", http.StatusInternalServerError
}

// sentinelFor is the client-side inverse of codeFor.
func sentinelFor(code string) error {
	switch code {
	case "held":
		return ErrLeaseHeld
	case "fenced":
		return ErrFenced
	case "done":
		return ErrDone
	case "no_plan":
		return ErrNoPlan
	case "unknown_partition":
		return ErrUnknownPartition
	case "bad_plan":
		return ErrBadPlan
	}
	return nil
}

// LeaseServer serves a Coordinator over the /leasez endpoints, mounted
// on the ops mux beside /metrics and /qualityz.
type LeaseServer struct {
	coord Coordinator
}

// NewLeaseServer wraps a coordinator (normally the explorerd-owned
// LeaseTable) for HTTP serving.
func NewLeaseServer(c Coordinator) *LeaseServer { return &LeaseServer{coord: c} }

// Endpoints returns the routes for obs.NewOpsMux: the state document at
// /leasez and the operations under /leasez/.
func (s *LeaseServer) Endpoints() []obs.Endpoint {
	return []obs.Endpoint{
		{Path: "/leasez", Handler: http.HandlerFunc(s.handleState)},
		{Path: "/leasez/", Handler: http.HandlerFunc(s.handleOp)},
	}
}

// writeJSON encodes v as the 200 response.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// writeError encodes err with its mapped status and stable code.
func writeError(w http.ResponseWriter, err error) {
	code, status := codeFor(err)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(errorResponse{Code: code, Error: err.Error()})
}

// handleState serves GET /leasez.
func (s *LeaseServer) handleState(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	st, err := s.coord.State()
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, st)
}

// decodeBody decodes a bounded JSON request body into v.
func decodeBody(r *http.Request, v any) error {
	dec := json.NewDecoder(io.LimitReader(r.Body, 1<<16))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// handleOp dispatches the POST operations under /leasez/.
func (s *LeaseServer) handleOp(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	switch r.URL.Path {
	case "/leasez/plan":
		var req planRequest
		if err := decodeBody(r, &req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		pl, err := s.coord.Plan(req.Partitions)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, pl)
	case "/leasez/acquire":
		var req acquireRequest
		if err := decodeBody(r, &req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		l, err := s.coord.Acquire(req.Partition, req.Holder, time.Duration(req.TTLMs)*time.Millisecond)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, l)
	case "/leasez/renew":
		var req renewRequest
		if err := decodeBody(r, &req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if err := s.coord.Renew(req.Partition, req.Holder, req.Epoch, time.Duration(req.TTLMs)*time.Millisecond); err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, struct{}{})
	case "/leasez/checkpoint":
		var req checkpointRequest
		if err := decodeBody(r, &req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if err := s.coord.Checkpoint(req.Partition, req.Holder, req.Epoch, req.Cursor, req.Records); err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, struct{}{})
	case "/leasez/release":
		var req releaseRequest
		if err := decodeBody(r, &req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if err := s.coord.Release(req.Partition, req.Holder, req.Epoch, req.Done); err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, struct{}{})
	default:
		http.NotFound(w, r)
	}
}

// LeaseClient speaks the /leasez protocol — the Coordinator a
// multi-process replica uses against explorerd. Coordination calls are
// deliberately not retried here: a replica treats a coordinator error
// as a lost lease (safe — the data path re-fetches), and retrying a
// fenced write cannot unfence it.
type LeaseClient struct {
	BaseURL string
	Client  *http.Client

	// traceMu guards the bound span context (see BindTrace).
	traceMu  sync.Mutex
	traceCtx obs.SpanCtx
}

// NewLeaseClient builds a client for the explorerd ops listener at
// baseURL (e.g. http://127.0.0.1:9100).
func NewLeaseClient(baseURL string) *LeaseClient {
	return &LeaseClient{
		BaseURL: baseURL,
		Client:  &http.Client{Timeout: 10 * time.Second},
	}
}

// BindTrace pins a span context on the client; subsequent coordination
// calls ride it as child spans and carry the W3C traceparent header, so
// explorerd's middleware stitches the server-side handling into the
// same trace. Sound because a replica issues coordination calls
// sequentially; bind the zero SpanCtx to detach.
func (c *LeaseClient) BindTrace(ctx obs.SpanCtx) {
	c.traceMu.Lock()
	c.traceCtx = ctx
	c.traceMu.Unlock()
}

func (c *LeaseClient) boundTrace() obs.SpanCtx {
	c.traceMu.Lock()
	defer c.traceMu.Unlock()
	return c.traceCtx
}

// leaseOp names the client span for a /leasez path.
func leaseOp(path string) string {
	if path == "/leasez" {
		return "lease:state"
	}
	return "lease:" + strings.TrimPrefix(path, "/leasez/")
}

// call performs one POST (or GET when reqBody is nil) and decodes into
// out; non-200 bodies decode to their sentinel error.
func (c *LeaseClient) call(method, path string, reqBody, out any) (err error) {
	sp := c.boundTrace().StartChild(leaseOp(path))
	defer func() { sp.EndErr(err) }()
	var body io.Reader
	if reqBody != nil {
		buf, err := json.Marshal(reqBody)
		if err != nil {
			return err
		}
		body = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, c.BaseURL+path, body)
	if err != nil {
		return err
	}
	if reqBody != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if tp := sp.Ctx().Traceparent(); tp != "" {
		req.Header.Set("traceparent", tp)
	}
	resp, err := c.Client.Do(req)
	if err != nil {
		return fmt.Errorf("fleet: %s: %w", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		var er errorResponse
		if json.Unmarshal(raw, &er) == nil && er.Code != "" {
			if sentinel := sentinelFor(er.Code); sentinel != nil {
				return fmt.Errorf("%w: %s", sentinel, er.Error)
			}
			return fmt.Errorf("fleet: %s: %s", path, er.Error)
		}
		return fmt.Errorf("fleet: %s: HTTP %d: %s", path, resp.StatusCode, bytes.TrimSpace(raw))
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(io.LimitReader(resp.Body, 16<<20)).Decode(out)
}

// Plan implements Coordinator.
func (c *LeaseClient) Plan(n int) (Plan, error) {
	var pl Plan
	err := c.call(http.MethodPost, "/leasez/plan", planRequest{Partitions: n}, &pl)
	return pl, err
}

// Acquire implements Coordinator.
func (c *LeaseClient) Acquire(partition int, holder string, ttl time.Duration) (Lease, error) {
	var l Lease
	err := c.call(http.MethodPost, "/leasez/acquire",
		acquireRequest{Partition: partition, Holder: holder, TTLMs: ttl.Milliseconds()}, &l)
	return l, err
}

// Renew implements Coordinator.
func (c *LeaseClient) Renew(partition int, holder string, epoch uint64, ttl time.Duration) error {
	return c.call(http.MethodPost, "/leasez/renew",
		renewRequest{Partition: partition, Holder: holder, Epoch: epoch, TTLMs: ttl.Milliseconds()}, nil)
}

// Checkpoint implements Coordinator.
func (c *LeaseClient) Checkpoint(partition int, holder string, epoch uint64, cursor, records uint64) error {
	return c.call(http.MethodPost, "/leasez/checkpoint",
		checkpointRequest{Partition: partition, Holder: holder, Epoch: epoch, Cursor: cursor, Records: records}, nil)
}

// Release implements Coordinator.
func (c *LeaseClient) Release(partition int, holder string, epoch uint64, done bool) error {
	return c.call(http.MethodPost, "/leasez/release",
		releaseRequest{Partition: partition, Holder: holder, Epoch: epoch, Done: done}, nil)
}

// State implements Coordinator.
func (c *LeaseClient) State() (State, error) {
	var st State
	err := c.call(http.MethodGet, "/leasez", nil, &st)
	return st, err
}
