// Package serve is the multi-tenant HTTP/JSON front door over the
// engine's QoS runtime — the serving surface cmd/autogemm-serve mounts
// and the bench module's serve-mixed workload drives. It maps tenants
// (a header or bearer token) onto scheduling classes, threads per-class
// weight, admission depth and per-request deadlines down to
// Engine.Submit (each request's GEMM.QoS), and translates the engine's sentinel
// errors into HTTP statuses with autogemm.HTTPStatus: a shed tenant
// gets 429 + Retry-After, an expired deadline 504, a rejected plan
// 422, a draining engine 503. A result JSON cannot carry (an element
// that overflowed to ±Inf or became NaN) is also answered with 422.
//
// Endpoints:
//
//	POST /v1/multiply   one C += A·B, JSON in/out
//	POST /v1/batch      many GEMMs in, NDJSON lines streamed out as
//	                    each element's future completes
//	GET  /v1/classes    per-class scheduler counters (JSON)
//	POST /v1/classes    runtime retune: ConfigureClass(weight, depth)
//	GET  /metrics       Prometheus text exposition (metrics.go)
//	GET  /debug/vars    full stats snapshot as JSON (metrics.go)
//	GET  /healthz       liveness
//
// Concurrency discipline: the package spawns no goroutines of its own
// (the goroutine vet pass holds here as everywhere outside the
// scheduler). Request concurrency belongs to net/http; the batch
// endpoint fans futures into a channel through Future.OnDone, whose
// callback goroutine is owned by the scheduler runtime.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"autogemm"
)

// TenantHeader names the request header carrying the tenant identity.
const TenantHeader = "X-Autogemm-Tenant"

// TenantConfig maps one tenant onto its scheduling treatment. The
// class is configured on the engine at Server construction; per-request
// QoS carries only the class name and deadline, so a runtime retune
// through POST /v1/classes is never clobbered by request traffic.
type TenantConfig struct {
	// Class is the scheduling class the tenant's jobs park in.
	Class string `json:"class"`
	// Weight is the class's claiming weight (<= 0 keeps the default).
	Weight int `json:"weight"`
	// Depth bounds the class's jobs in flight; beyond it submissions
	// shed with 429. 0 means unbounded at construction.
	Depth int `json:"depth"`
	// DeadlineMs, when positive, is the default per-request completion
	// deadline; a request's own deadlineMs overrides it.
	DeadlineMs int `json:"deadlineMs"`
}

// Config assembles a Server.
type Config struct {
	// Engine executes the GEMMs. Required; the Server does not own it —
	// the caller closes it after shutting the HTTP listener down.
	Engine *autogemm.Engine

	// Tenants maps the TenantHeader value to a tenant's scheduling
	// treatment. A request without a (known) tenant runs under the
	// engine's default class unless RequireTenant is set.
	Tenants map[string]TenantConfig

	// Tokens optionally maps Authorization bearer tokens to tenant
	// names, for callers that authenticate instead of self-labelling.
	Tokens map[string]string

	// RequireTenant refuses requests that resolve to no known tenant
	// with 401 instead of running them under the default class.
	RequireTenant bool

	// MaxDim bounds each problem extent (default 8192); MaxBatch bounds
	// elements per batch request (default 256). Both are request
	// validation — oversized requests get 400 before any planning.
	MaxDim   int
	MaxBatch int
}

// Server is the HTTP front door. Construct with New, mount Handler.
type Server struct {
	cfg   Config
	eng   *autogemm.Engine
	start time.Time

	mu        sync.Mutex
	responses map[int]int64 // HTTP responses by status code
}

// New validates the config, configures each tenant's class on the
// engine (weight + admission depth), and returns the server.
func New(cfg Config) (*Server, error) {
	if cfg.Engine == nil {
		return nil, fmt.Errorf("serve: nil engine")
	}
	if cfg.MaxDim <= 0 {
		cfg.MaxDim = 8192
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 256
	}
	for name, tc := range cfg.Tenants {
		if tc.Class == "" {
			return nil, fmt.Errorf("serve: tenant %q has no class", name)
		}
		cfg.Engine.ConfigureClass(tc.Class, tc.Weight, tc.Depth)
	}
	for token, tenant := range cfg.Tokens {
		if _, ok := cfg.Tenants[tenant]; !ok {
			return nil, fmt.Errorf("serve: token %q maps to unknown tenant %q", token, tenant)
		}
	}
	return &Server{cfg: cfg, eng: cfg.Engine, start: time.Now(), responses: map[int]int64{}}, nil
}

// Handler returns the server's route mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/multiply", s.handleMultiply)
	mux.HandleFunc("/v1/batch", s.handleBatch)
	mux.HandleFunc("/v1/classes", s.handleClasses)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/debug/vars", s.handleVars)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		s.count(http.StatusOK)
		w.Write([]byte("ok\n"))
	})
	return mux
}

// GEMMRequest is one C += A·B problem on the wire: row-major float32
// matrices A (m×k) and B (k×n), an optional starting C (m×n, zeros
// when omitted), and an optional per-request completion deadline.
type GEMMRequest struct {
	M          int       `json:"m"`
	N          int       `json:"n"`
	K          int       `json:"k"`
	A          []float32 `json:"a"`
	B          []float32 `json:"b"`
	C          []float32 `json:"c,omitempty"`
	DeadlineMs int       `json:"deadlineMs,omitempty"`
}

// MultiplyResponse is the /v1/multiply success body.
type MultiplyResponse struct {
	C []float32 `json:"c"`
}

// BatchRequest is the /v1/batch body.
type BatchRequest struct {
	Elements []GEMMRequest `json:"elements"`
}

// BatchLine is one NDJSON line of a /v1/batch response: the element's
// index and either its result or its error + the status the element
// would have received as a standalone request. Lines stream in
// completion order, not index order.
type BatchLine struct {
	Index  int       `json:"index"`
	C      []float32 `json:"c,omitempty"`
	Error  string    `json:"error,omitempty"`
	Status int       `json:"status,omitempty"`
}

// ErrorResponse is the JSON error body of every non-2xx answer.
type ErrorResponse struct {
	Error  string `json:"error"`
	Status int    `json:"status"`
}

// ClassUpdate is the POST /v1/classes body — the runtime retune. The
// semantics are exactly Engine.ConfigureClass: weight <= 0 keeps the
// current weight, depth 0 keeps the current admission bound (a
// weight-only retune preserves it), depth < 0 clears the bound.
type ClassUpdate struct {
	Class  string `json:"class"`
	Weight int    `json:"weight"`
	Depth  int    `json:"depth"`
}

// count tallies one HTTP response for the /metrics surface.
func (s *Server) count(status int) {
	s.mu.Lock()
	s.responses[status]++
	s.mu.Unlock()
}

// writeError answers with the canonical status for err
// (autogemm.HTTPStatus) and a JSON error body; sheds carry Retry-After
// so well-behaved clients back off.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	status := autogemm.HTTPStatus(err)
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	s.writeErrorStatus(w, status, err.Error())
}

func (s *Server) writeErrorStatus(w http.ResponseWriter, status int, msg string) {
	s.writeJSON(w, status, ErrorResponse{Error: msg, Status: status})
}

// writeJSON answers with status and v as the JSON body, and tallies
// the status once it is sent. A value JSON cannot carry — a result that
// overflowed to ±Inf or became NaN — is answered with a 422
// ErrorResponse instead.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(statusWriter{w, status}).Encode(v); unencodable(err) {
		status = http.StatusUnprocessableEntity
		w.WriteHeader(status)
		json.NewEncoder(w).Encode(ErrorResponse{Error: nonFinite(err), Status: status})
	}
	s.count(status)
}

// statusWriter sends its status with the first Write. json.Encoder
// marshals the whole value before its one Write, so a value that fails
// to encode leaves the response unstarted.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w statusWriter) Write(p []byte) (int, error) {
	w.WriteHeader(w.status)
	return w.ResponseWriter.Write(p)
}

// unencodable reports whether err is json's refusal of a value it
// cannot represent, ±Inf or NaN, rather than a failed write.
func unencodable(err error) bool {
	var uv *json.UnsupportedValueError
	return errors.As(err, &uv)
}

// ErrNonFinite is the client-side identity of a result JSON cannot
// carry: an element that overflowed to ±Inf or became NaN. The server
// answers it with 422, like a rejected plan, and an error text that
// starts with this error's own; that marker is how ErrorForStatus tells
// the two apart.
var ErrNonFinite = errors.New("serve: result is not finite (±Inf or NaN cannot be sent as JSON)")

// nonFinite is the error text for a result JSON cannot encode.
func nonFinite(err error) string {
	return ErrNonFinite.Error() + ": " + err.Error()
}

// tenantOf resolves the request's tenant: the TenantHeader value, or
// the tenant a bearer token maps to. An empty resolution runs under
// the engine default class unless RequireTenant; a non-empty name that
// is not configured is refused.
func (s *Server) tenantOf(r *http.Request) (TenantConfig, error) {
	name := r.Header.Get(TenantHeader)
	if name == "" && len(s.cfg.Tokens) > 0 {
		if auth := r.Header.Get("Authorization"); len(auth) > 7 && auth[:7] == "Bearer " {
			name = s.cfg.Tokens[auth[7:]]
		}
	}
	if name == "" {
		if s.cfg.RequireTenant {
			return TenantConfig{}, fmt.Errorf("serve: no tenant (set %s or a bearer token)", TenantHeader)
		}
		return TenantConfig{}, nil // engine default class
	}
	tc, ok := s.cfg.Tenants[name]
	if !ok {
		return TenantConfig{}, fmt.Errorf("serve: unknown tenant %q", name)
	}
	return tc, nil
}

// validate bounds one element's geometry and operand lengths.
func (s *Server) validate(g *GEMMRequest) error {
	if g.M <= 0 || g.N <= 0 || g.K <= 0 {
		return fmt.Errorf("serve: non-positive extents %dx%dx%d", g.M, g.N, g.K)
	}
	if g.M > s.cfg.MaxDim || g.N > s.cfg.MaxDim || g.K > s.cfg.MaxDim {
		return fmt.Errorf("serve: extents %dx%dx%d exceed the limit %d", g.M, g.N, g.K, s.cfg.MaxDim)
	}
	if len(g.A) < g.M*g.K || len(g.B) < g.K*g.N {
		return fmt.Errorf("serve: operand lengths (%d,%d) too small for %dx%dx%d",
			len(g.A), len(g.B), g.M, g.N, g.K)
	}
	if g.C != nil && len(g.C) < g.M*g.N {
		return fmt.Errorf("serve: c length %d too small for %dx%d", len(g.C), g.M, g.N)
	}
	return nil
}

// qosFor builds the per-request QoS: the tenant's class, never a
// per-request weight (weights belong to the class and its retunes),
// and the effective deadline (request override, else tenant default).
func qosFor(tc TenantConfig, deadlineMs int) autogemm.QoS {
	q := autogemm.QoS{Class: tc.Class}
	ms := deadlineMs
	if ms <= 0 {
		ms = tc.DeadlineMs
	}
	if ms > 0 {
		q.Deadline = time.Now().Add(time.Duration(ms) * time.Millisecond)
	}
	return q
}

// submit validates and enqueues one element, returning its future and
// output buffer.
func (s *Server) submit(r *http.Request, tc TenantConfig, g *GEMMRequest) (*autogemm.Future, []float32, error) {
	if err := s.validate(g); err != nil {
		return nil, nil, err
	}
	c := g.C
	if c == nil {
		c = make([]float32, g.M*g.N)
	}
	fut, err := s.eng.Submit(r.Context(), autogemm.GEMM{
		C: c, A: g.A, B: g.B, M: g.M, N: g.N, K: g.K, QoS: qosFor(tc, g.DeadlineMs),
	})
	if err != nil {
		return nil, nil, err
	}
	return fut, c, nil
}

// handleMultiply is POST /v1/multiply: one GEMM, synchronous JSON
// answer. The request context rides the whole way down — a client
// disconnect cancels the job's remaining tasks.
func (s *Server) handleMultiply(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeErrorStatus(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	tc, err := s.tenantOf(r)
	if err != nil {
		s.writeErrorStatus(w, http.StatusUnauthorized, err.Error())
		return
	}
	var g GEMMRequest
	if err := json.NewDecoder(r.Body).Decode(&g); err != nil {
		s.writeErrorStatus(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	fut, c, err := s.submit(r, tc, &g)
	if err != nil {
		if status := autogemm.HTTPStatus(err); status == http.StatusInternalServerError {
			// Validation and geometry problems are the caller's fault.
			s.writeErrorStatus(w, http.StatusBadRequest, err.Error())
		} else {
			s.writeError(w, err)
		}
		return
	}
	if err := fut.Wait(); err != nil {
		s.writeError(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, MultiplyResponse{C: c})
}

// handleBatch is POST /v1/batch: submit every element under the
// tenant's class, then stream one NDJSON line per element as its
// future completes. Elements refused at submission (admission shed,
// bad geometry) get their line immediately; elements not yet submitted
// when the request context fires are short-circuited, mirroring
// Engine.MultiplyBatchContext. Accepted jobs are always drained before
// the handler returns, so element buffers are quiescent afterwards.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeErrorStatus(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	tc, err := s.tenantOf(r)
	if err != nil {
		s.writeErrorStatus(w, http.StatusUnauthorized, err.Error())
		return
	}
	var req BatchRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.writeErrorStatus(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	if len(req.Elements) == 0 {
		s.writeErrorStatus(w, http.StatusBadRequest, "empty batch")
		return
	}
	if len(req.Elements) > s.cfg.MaxBatch {
		s.writeErrorStatus(w, http.StatusBadRequest,
			fmt.Sprintf("batch of %d exceeds the limit %d", len(req.Elements), s.cfg.MaxBatch))
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	s.count(http.StatusOK)
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	// A line that fails to encode was not written (see statusWriter);
	// its element gets a 422 line instead.
	writeLine := func(line BatchLine) {
		if err := enc.Encode(line); unencodable(err) {
			enc.Encode(BatchLine{Index: line.Index, Error: nonFinite(err), Status: http.StatusUnprocessableEntity})
		}
		if flusher != nil {
			flusher.Flush()
		}
	}

	// Submission pass: accepted elements fan their completion into one
	// channel via OnDone (scheduler-owned goroutines — this package
	// spawns none); refused elements answer immediately.
	type pendingElem struct {
		fut *autogemm.Future
		c   []float32
	}
	pending := make(map[int]pendingElem, len(req.Elements))
	done := make(chan int, len(req.Elements))
	for i := range req.Elements {
		if err := r.Context().Err(); err != nil {
			writeLine(BatchLine{Index: i, Error: err.Error(), Status: autogemm.HTTPStatus(err)})
			continue
		}
		fut, c, err := s.submit(r, tc, &req.Elements[i])
		if err != nil {
			status := autogemm.HTTPStatus(err)
			if status == http.StatusInternalServerError {
				status = http.StatusBadRequest
			}
			writeLine(BatchLine{Index: i, Error: err.Error(), Status: status})
			continue
		}
		pending[i] = pendingElem{fut: fut, c: c}
		idx := i
		fut.OnDone(func(error) { done <- idx })
	}

	// Streaming pass: one line per accepted element, in completion
	// order. Every accepted future is drained even after a client
	// disconnect — the write just goes nowhere.
	for n := len(pending); n > 0; n-- {
		idx := <-done
		pe := pending[idx]
		if err := pe.fut.Wait(); err != nil {
			writeLine(BatchLine{Index: idx, Error: err.Error(), Status: autogemm.HTTPStatus(err)})
			continue
		}
		writeLine(BatchLine{Index: idx, C: pe.c})
	}
}

// handleClasses is the runtime control plane: GET snapshots every
// class's scheduler counters, POST retunes one class through
// Engine.ConfigureClass — the operation whose keep-on-zero depth
// contract the regression suite pins.
func (s *Server) handleClasses(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		s.writeJSON(w, http.StatusOK, s.eng.PlanCacheStats().SchedClasses)
	case http.MethodPost:
		var upd ClassUpdate
		if err := json.NewDecoder(r.Body).Decode(&upd); err != nil {
			s.writeErrorStatus(w, http.StatusBadRequest, "bad request body: "+err.Error())
			return
		}
		if upd.Class == "" {
			s.writeErrorStatus(w, http.StatusBadRequest, "class is required")
			return
		}
		s.eng.ConfigureClass(upd.Class, upd.Weight, upd.Depth)
		cs, _ := s.eng.ClassStats(upd.Class)
		s.writeJSON(w, http.StatusOK, cs)
	default:
		s.writeErrorStatus(w, http.StatusMethodNotAllowed, "GET or POST only")
	}
}
