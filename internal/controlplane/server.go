// Package controlplane turns the adaptation kernel into a multi-tenant
// service: an HTTP/JSON API (stdlib net/http only) through which remote
// applications register (POST /v1/apps), stream telemetry observations
// into their lock-free runtime.Inbox (POST /v1/apps/{id}/observations),
// and detach live (DELETE /v1/apps/{id}) — the kernel's membership
// epoch admits and drains them at epoch boundaries while the sharded
// control loops keep serving everyone else. Read-side telemetry is
// GET /v1/apps[/{id}], GET /v1/epochs and GET /healthz.
//
// The ingress funnel deliberately ends at the lock-free inbox: an HTTP
// handler goroutine is just another telemetry producer, so the
// CCBench-style contention argument that chose the lock-free ring
// (PR 2, K3) carries over to remote producers unchanged — handlers
// never contend with the control loops' Collect; beyond the
// batch-claim atomics the only shared state on the warm path is a
// read-locked metric-cardinality check and a pending-sample bound
// (backpressure when the kernel is not draining).
//
// Telemetry has two wire formats over that funnel. JSON
// (POST /v1/apps/{id}/observations) stays for debuggability — curl a
// batch in by hand. The binary observation protocol
// (internal/controlplane/wire) is the throughput path:
// POST /v1/apps/{id}/observations:binary takes one-shot frame bodies,
// and POST /v1/stream holds a long-lived request body open and decodes
// frames off it in a loop — any registered app per frame, name
// dictionaries scoped to the stream, each batch landing in the app's
// inbox via one bulk slot-range claim (Inbox.PushBatch). Both paths
// run on pooled scratch (zero steady-state allocations for binary
// decode) and enforce the same hardening caps as JSON: metric
// cardinality, name bounds, pending-sample backpressure, and finite
// values (JSON cannot carry NaN/Inf, so the binary path rejects them).
package controlplane

import (
	"bufio"
	"bytes"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/controlplane/wire"
	"repro/internal/monitor"
	"repro/internal/policyc"
	"repro/internal/rtrm"
	"repro/internal/runtime"
	"repro/internal/simhpc"
)

// Body-size ceilings, defensive bounds for a public ingress.
const (
	maxSpecBody        = 64 << 10
	maxObservationBody = 1 << 20
)

// remoteApp is the server-side state of one HTTP-registered tenant:
// the kernel controller, the inbox HTTP observations feed, and the
// active policy (ladder position or compiled DSL program).
type remoteApp struct {
	spec    AppSpec
	inbox   *runtime.Inbox
	ctl     *runtime.Controller
	samples atomic.Int64

	// sla is the parsed spec.Goals: the kernel's copy, and what ingest
	// checks admitted samples against for the early-wake hint.
	sla monitor.SLA

	// quota is the spec's ingress token bucket; nil admits everything.
	quota *tokenBucket

	// pol is the active policy arm. Swapped atomically by
	// PUT /v1/apps/{id}/policy while the workload closure and status
	// readers load it lock-free; nil means no policy (level 1).
	pol atomic.Pointer[appPolicy]

	// levelIdx is the ladder arm's position; dslLevel is the DSL arm's
	// knob value as float bits (the compiled policy writes "level"
	// through a KnobFunc into it). Each swap re-seeds the incoming
	// arm's state. swaps counts completed hot-swaps for AppStatus.
	levelIdx atomic.Int64
	dslLevel atomic.Uint64
	swaps    atomic.Int64

	// metrics tracks the distinct metric names this tenant has streamed.
	// Every new name permanently allocates a monitor.Window in the
	// controller, so cardinality is capped (maxMetricsPerApp) — without
	// it a hostile tenant could grow server memory one fresh name at a
	// time, under the body-size ceilings. Once the set is warm the
	// check is a shared RLock, so concurrent producers to one app do
	// not serialize on it.
	metricsMu sync.RWMutex
	metrics   map[string]struct{}
}

// admitMetrics checks a batch's metric names against the cardinality
// cap. All-or-nothing: a rejected batch admits no names, so it cannot
// burn cardinality slots a later well-formed batch would need. It
// takes the kernel's sample type so the JSON and binary ingest paths
// share it without converting.
func (a *remoteApp) admitMetrics(samples []runtime.Sample) error {
	a.metricsMu.RLock()
	known := true
	for i := range samples {
		if _, ok := a.metrics[samples[i].Metric]; !ok {
			known = false
			break
		}
	}
	a.metricsMu.RUnlock()
	if known {
		return nil // warm path: no write lock on the ingest funnel
	}
	a.metricsMu.Lock()
	defer a.metricsMu.Unlock()
	var added []string
	for i := range samples {
		m := samples[i].Metric
		if _, ok := a.metrics[m]; ok {
			continue
		}
		if len(a.metrics) >= maxMetricsPerApp {
			for _, rollback := range added {
				delete(a.metrics, rollback) // roll back: the batch is rejected whole
			}
			return fmt.Errorf("metric %q would exceed the %d distinct metrics per app", m, maxMetricsPerApp)
		}
		a.metrics[m] = struct{}{}
		added = append(added, m)
	}
	return nil
}

// level returns the active workload multiplier (1 without a policy).
// The ladder arm indexes its levels; the DSL arm reads the knob value
// the compiled policy last wrote.
func (a *remoteApp) level() float64 {
	ap := a.pol.Load()
	if ap == nil {
		return 1
	}
	switch ap.spec.Type {
	case PolicyLadder:
		idx := a.levelIdx.Load()
		if idx < 0 || int(idx) >= len(ap.spec.Levels) {
			return 1
		}
		return ap.spec.Levels[idx]
	case PolicyDSL:
		return math.Float64frombits(a.dslLevel.Load())
	}
	return 1
}

// Server exposes a runtime.Kernel over HTTP. It implements
// http.Handler; the caller owns the kernel's lifecycle (Start/Stop) and
// the http.Server wrapping.
type Server struct {
	kernel    *runtime.Kernel
	mux       *http.ServeMux
	authToken string

	mu   sync.RWMutex // guards apps and backends; held across Attach/Detach so map and membership agree
	apps map[string]*remoteApp
	// backends retains the declared spec of every live backend — the
	// kernel holds only the built manager, but snapshots and Restore
	// need the declaration that built it.
	backends []BackendSpec

	// journal is the durability arm (nil = memory-only, no behaviour
	// change); jmu are the lockEntity stripes ordering same-name
	// mutations against their journal records.
	journal *planeJournal
	jmu     [journalStripes]sync.Mutex
}

// ServerOption configures NewServer.
type ServerOption func(*Server)

// WithAuthToken arms static bearer-token ingress auth: every mutating
// route (POST and DELETE — registration, detach, observations, the
// stream, backend creation) requires "Authorization: Bearer <token>"
// and answers 401 without it. Read-side routes (GET) stay open, as
// liveness probes must. An empty token leaves auth off.
func WithAuthToken(token string) ServerOption {
	return func(s *Server) { s.authToken = token }
}

// NewServer builds the control plane over a kernel. Apps attached to
// the kernel directly (in-process) are visible in /v1/epochs but are
// not addressable under /v1/apps, which serves HTTP-registered tenants.
func NewServer(k *runtime.Kernel, opts ...ServerOption) *Server {
	s := &Server{
		kernel: k,
		mux:    http.NewServeMux(),
		apps:   make(map[string]*remoteApp),
	}
	for _, opt := range opts {
		opt(s)
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /v1/epochs", s.handleEpochs)
	s.mux.HandleFunc("GET /v1/epochs/stream", s.handleEpochStream)
	s.mux.HandleFunc("GET /v1/backends", s.handleBackends)
	s.mux.HandleFunc("POST /v1/backends", s.auth(s.handleAddBackend))
	s.mux.HandleFunc("DELETE /v1/backends/{id}", s.auth(s.handleRemoveBackend))
	s.mux.HandleFunc("POST /v1/apps", s.auth(s.handleRegister))
	s.mux.HandleFunc("GET /v1/apps", s.handleApps)
	s.mux.HandleFunc("GET /v1/apps/{id}", s.handleApp)
	s.mux.HandleFunc("DELETE /v1/apps/{id}", s.auth(s.handleDetach))
	s.mux.HandleFunc("PUT /v1/apps/{id}/policy", s.auth(s.handlePutPolicy))
	s.mux.HandleFunc("POST /v1/apps/{id}/observations", s.auth(s.handleObserve))
	s.mux.HandleFunc("POST /v1/apps/{id}/observations:binary", s.auth(s.handleObserveBinary))
	s.mux.HandleFunc("POST /v1/stream", s.auth(s.handleStream))
	return s
}

// auth wraps a mutating handler with the bearer-token check.
func (s *Server) auth(h http.HandlerFunc) http.HandlerFunc {
	if s.authToken == "" {
		return h
	}
	want := []byte("Bearer " + s.authToken)
	return func(w http.ResponseWriter, r *http.Request) {
		got := []byte(r.Header.Get("Authorization"))
		if subtle.ConstantTimeCompare(got, want) != 1 {
			w.Header().Set("WWW-Authenticate", `Bearer realm="antarex"`)
			writeError(w, http.StatusUnauthorized, CodeUnauthorized, "missing or invalid bearer token")
			return
		}
		h(w, r)
	}
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError emits the unified error envelope:
// {"error": {"code", "message", "detail"}}. Every error path in the
// API funnels through here (or writeCompileErr, which adds a detail
// payload), so clients can switch on one machine-readable code space.
func writeError(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeJSON(w, status, ErrorBody{Error: ErrorInfo{
		Code:    code,
		Message: fmt.Sprintf(format, args...),
	}})
}

// writeCompileErr renders a DSL admission failure: 400 with code
// "compile_error" and the positioned diagnostics marshalled into
// detail, so a client can map them back onto policy source lines.
func writeCompileErr(w http.ResponseWriter, ce *policyc.CompileError) {
	detail, err := json.Marshal(ce.Diags)
	if err != nil {
		detail = nil
	}
	writeJSON(w, http.StatusBadRequest, ErrorBody{Error: ErrorInfo{
		Code:    CodeCompileError,
		Message: ce.Error(),
		Detail:  detail,
	}})
}

// errCode maps an HTTP status onto its envelope code.
func errCode(status int) string {
	switch status {
	case http.StatusBadRequest:
		return CodeBadRequest
	case http.StatusUnauthorized:
		return CodeUnauthorized
	case http.StatusNotFound:
		return CodeNotFound
	case http.StatusConflict:
		return CodeConflict
	case http.StatusTooManyRequests:
		return CodeBackpressure
	}
	return CodeInternal
}

// writeErr maps kernel errors onto HTTP statuses.
func writeErr(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, runtime.ErrDuplicateApp):
		status = http.StatusConflict
	case errors.Is(err, runtime.ErrUnknownApp):
		status = http.StatusNotFound
	case errors.Is(err, runtime.ErrEmptyAppName):
		status = http.StatusBadRequest
	case errors.Is(err, runtime.ErrUnknownBackend):
		status = http.StatusNotFound
	case errors.Is(err, runtime.ErrBackendDraining), errors.Is(err, runtime.ErrLastBackend):
		status = http.StatusConflict
	}
	writeError(w, status, errCode(status), "%s", err.Error())
}

func badRequest(w http.ResponseWriter, format string, args ...any) {
	writeError(w, http.StatusBadRequest, CodeBadRequest, format, args...)
}

// Spec magnitude ceilings: the body-size caps bound the JSON, these
// bound what the numbers inside it can make the kernel allocate or
// feed into the simulator. Generous for any real tenant, fatal for a
// hostile one.
const (
	maxTasksPerEpoch = 4096
	maxWindow        = 1 << 16
	maxDebounce      = 1024
	maxLevels        = 64
	maxMetricsPerApp = 64
	maxNameLen       = 128
	maxMagnitude     = 1e9 // gflop, mem_gb, level, goal target
	// maxPendingSamples bounds one tenant's uncollected inbox. The
	// inbox chain is otherwise unbounded, and it only drains while the
	// kernel ticks the app — without this cap, observations streamed at
	// a stopped (or slow) kernel would grow server memory without
	// limit. ~6 MB of samples per tenant at the default chunk layout.
	maxPendingSamples = 1 << 18
)

// validMag reports whether v is a finite value in [0, maxMagnitude]
// (NaN rejected by the double negation).
func validMag(v float64) bool {
	return v >= 0 && v <= maxMagnitude
}

// validName reports whether a tenant name is addressable as one URL
// path segment under /v1/apps/{id}: [A-Za-z0-9._-]+, not "." or "..".
// Anything looser (slashes, dot segments) registers fine but then
// path-cleans into a 404 on every per-app route — a tenant that can
// never be observed or detached over HTTP.
func validName(name string) bool {
	if name == "" || len(name) > maxNameLen || name == "." || name == ".." {
		return false
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
		default:
			return false
		}
	}
	return true
}

// validateSpec bounds a remote AppSpec's magnitudes.
func validateSpec(spec AppSpec) error {
	switch {
	case !validName(spec.Name):
		return fmt.Errorf("name %q must be 1-%d characters of [A-Za-z0-9._-] and not a dot segment", spec.Name, maxNameLen)
	case spec.Workload.Tasks < 0 || spec.Workload.Tasks > maxTasksPerEpoch:
		return fmt.Errorf("workload.tasks %d out of range [0, %d]", spec.Workload.Tasks, maxTasksPerEpoch)
	case spec.Window < 0 || spec.Window > maxWindow:
		return fmt.Errorf("window %d out of range [0, %d]", spec.Window, maxWindow)
	case spec.Debounce < 0 || spec.Debounce > maxDebounce:
		return fmt.Errorf("debounce %d out of range [0, %d]", spec.Debounce, maxDebounce)
	case !validMag(spec.Workload.GFlop) || !validMag(spec.Workload.MemGB):
		return fmt.Errorf("workload gflop/mem_gb must be finite in [0, %g]", float64(maxMagnitude))
	}
	for _, g := range spec.Goals {
		if !validMag(g.Target) {
			return fmt.Errorf("goal %s: target %g must be finite in [0, %g]", g.Metric, g.Target, float64(maxMagnitude))
		}
	}
	if spec.Placement != "" && !validName(spec.Placement) {
		return fmt.Errorf("placement %q must be 1-%d characters of [A-Za-z0-9._-]", spec.Placement, maxNameLen)
	}
	return nil
}

// Backend-spec ceilings: a POST /v1/backends allocates a simulated
// cluster, so its dimensions are bounded like an AppSpec's magnitudes.
const (
	maxBackendNodes = 256
	minAmbientC     = -40
	maxAmbientC     = 60
)

// withBackendDefaults fills a BackendSpec's zero values.
func withBackendDefaults(spec BackendSpec) BackendSpec {
	if spec.Nodes <= 0 {
		spec.Nodes = 8
	}
	if spec.AmbientC == 0 {
		spec.AmbientC = 22
	}
	if spec.CapFrac <= 0 {
		spec.CapFrac = 0.9
	}
	if spec.Vary <= 0 {
		spec.Vary = 0.15
	}
	if spec.Seed == 0 {
		spec.Seed = 1
	}
	return spec
}

// ValidateBackendSpec bounds a backend declaration. Zero values are
// the unset sentinels (see BackendSpec) and always pass; explicit
// negatives are rejected rather than silently defaulted.
func ValidateBackendSpec(spec BackendSpec) error {
	switch {
	case !validName(spec.Name):
		return fmt.Errorf("name %q must be 1-%d characters of [A-Za-z0-9._-] and not a dot segment", spec.Name, maxNameLen)
	case spec.Nodes < 0 || spec.Nodes > maxBackendNodes:
		return fmt.Errorf("nodes %d out of range [1, %d] (0 = default)", spec.Nodes, maxBackendNodes)
	case math.IsNaN(spec.AmbientC) || spec.AmbientC < minAmbientC || spec.AmbientC > maxAmbientC:
		return fmt.Errorf("ambient_c %g out of range [%d, %d] (0 = default 22)", spec.AmbientC, minAmbientC, maxAmbientC)
	case math.IsNaN(spec.CapFrac) || spec.CapFrac < 0 || spec.CapFrac > 1:
		return fmt.Errorf("cap_frac %g out of range (0, 1] (0 = default 0.9)", spec.CapFrac)
	case math.IsNaN(spec.Vary) || spec.Vary < 0 || spec.Vary >= 1:
		return fmt.Errorf("vary %g out of range [0, 1) (0 = default 0.15)", spec.Vary)
	}
	return nil
}

// BuildBackend materializes a backend declaration: a simulated cluster
// of the declared shape under its own rtrm.Manager. Shared by the
// POST /v1/backends handler and cmd/antarex-serve's startup flags.
func BuildBackend(spec BackendSpec) *rtrm.Manager {
	spec = withBackendDefaults(spec)
	rng := simhpc.NewRNG(spec.Seed)
	cluster := simhpc.NewCluster(spec.Nodes, spec.AmbientC, func(i int) *simhpc.Node {
		if spec.Hetero && i%2 == 0 {
			return simhpc.HeterogeneousNode(fmt.Sprintf("%s-n%d", spec.Name, i), spec.Vary, rng)
		}
		return simhpc.HomogeneousNode(fmt.Sprintf("%s-n%d", spec.Name, i), spec.Vary, rng)
	})
	return rtrm.NewManager(cluster, cluster.FacilityPowerW(1)*spec.CapFrac)
}

// parseGoals converts wire goals to monitor goals.
func parseGoals(specs []GoalSpec) ([]monitor.Goal, error) {
	goals := make([]monitor.Goal, 0, len(specs))
	for _, g := range specs {
		if g.Metric == "" {
			return nil, fmt.Errorf("goal missing metric")
		}
		rel := monitor.AtMost
		switch g.Relation {
		case "", "at_most", "<=":
		case "at_least", ">=":
			rel = monitor.AtLeast
		default:
			return nil, fmt.Errorf("goal %s: unknown relation %q", g.Metric, g.Relation)
		}
		switch g.Stat {
		case "", "mean", "p95", "max":
		default:
			return nil, fmt.Errorf("goal %s: unknown stat %q", g.Metric, g.Stat)
		}
		goals = append(goals, monitor.Goal{Metric: g.Metric, Stat: g.Stat, Relation: rel, Target: g.Target})
	}
	return goals, nil
}

// kernelSpec lowers a wire AppSpec into a runtime.AppSpec wired to the
// remoteApp's inbox, synthetic workload and built policy arm.
func (s *Server) kernelSpec(ra *remoteApp, pol runtime.Policy, knob runtime.Knob) runtime.AppSpec {
	w := ra.spec.Workload
	if w.Tasks <= 0 {
		w.Tasks = 1
	}
	if w.GFlop <= 0 {
		w.GFlop = 1
	}
	if w.MemGB <= 0 {
		w.MemGB = w.GFlop / 8
	}
	// The tasks are a pure function of the level, so the closure memoizes
	// the last slice and rebuilds only when the level changes. A returned
	// slice is never written again (runtime.Workload's contract): a level
	// change builds a new one, so the pipelined executor or an abandoned
	// commit may keep reading the old. The kernel never runs one app's
	// Workload twice at once, so the memo needs no lock.
	var memo []*simhpc.Task
	var memoBits uint64
	return runtime.AppSpec{
		Name:     ra.spec.Name,
		SLA:      ra.sla,
		Window:   ra.spec.Window,
		Debounce: ra.spec.Debounce,
		Backend:  ra.spec.Placement,
		Sensor:   ra.inbox,
		Policy:   pol,
		Knob:     knob,
		Workload: func() ([]*simhpc.Task, error) {
			lvl := ra.level()
			if bits := math.Float64bits(lvl); memo == nil || bits != memoBits {
				tasks := make([]*simhpc.Task, w.Tasks)
				for i := range tasks {
					tasks[i] = &simhpc.Task{GFlop: w.GFlop * lvl, MemGB: w.MemGB * lvl, Tag: ra.spec.Name}
				}
				memo, memoBits = tasks, bits
			}
			return memo, nil
		},
	}
}

// specError marks an admission failure caused by the spec's contents —
// the handler maps it to 400 where an unwrapped kernel or journal error
// maps by its own kind.
type specError struct{ err error }

func (e *specError) Error() string { return e.err.Error() }
func (e *specError) Unwrap() error { return e.err }

// admitApp builds and attaches one pre-validated tenant: goals parsed,
// quota bucket built, policy compiled and installed, kernel Attach
// under s.mu, and — when journal is true — the registration journaled
// before the caller acks. Restore passes journal=false: the records
// that produced the recovered state are already durable. The caller
// holds the entity lock (or is single-threaded recovery).
func (s *Server) admitApp(spec AppSpec, journal bool) (*remoteApp, error) {
	goals, err := parseGoals(spec.Goals)
	if err != nil {
		return nil, &specError{err}
	}
	ra := &remoteApp{
		spec:    spec,
		sla:     monitor.SLA{Name: spec.Name, Goals: goals},
		inbox:   &runtime.Inbox{},
		metrics: make(map[string]struct{}),
		quota:   newTokenBucket(spec.Quota, time.Now()),
	}
	ap, pol, knob, err := buildPolicy(ra, spec.Policy)
	if err != nil {
		return nil, &specError{err}
	}
	installPolicy(ra, ap)
	s.mu.Lock()
	ctl, err := s.kernel.Attach(s.kernelSpec(ra, pol, knob))
	if err == nil {
		ra.ctl = ctl
		s.apps[spec.Name] = ra
	}
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}
	if journal {
		// Journal outside s.mu (concurrent tenants' fsyncs batch into
		// one group commit) but inside the caller's entity lock. On
		// failure the app stays live but unacked: write-ahead promises
		// nothing about unacknowledged ops, and the log's sticky error
		// has already degraded the plane to read-only.
		if err := s.journalAppend(opRegister, spec); err != nil {
			return nil, err
		}
	}
	return ra, nil
}

// writeAdmitErr maps an admitApp failure: compile diagnostics, then
// spec errors (400), then kernel/journal errors by their own kind.
func writeAdmitErr(w http.ResponseWriter, err error) {
	var ce *policyc.CompileError
	if errors.As(err, &ce) {
		writeCompileErr(w, ce)
		return
	}
	var se *specError
	if errors.As(err, &se) {
		badRequest(w, "bad app spec: %v", se.err)
		return
	}
	writeErr(w, err)
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	var spec AppSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		badRequest(w, "bad app spec: %v", err)
		return
	}
	if err := rejectLegacyLevels(&spec); err != nil {
		badRequest(w, "bad app spec: %v", err)
		return
	}
	if err := validateSpec(spec); err != nil {
		badRequest(w, "bad app spec: %v", err)
		return
	}
	if err := validatePolicy(spec.Policy); err != nil {
		badRequest(w, "bad app spec: %v", err)
		return
	}
	if err := validateQuota(spec.Quota); err != nil {
		badRequest(w, "bad app spec: %v", err)
		return
	}
	if spec.Placement != "" && !s.kernel.HasBackend(spec.Placement) {
		badRequest(w, "bad app spec: placement %q names no registered backend (see GET /v1/backends)", spec.Placement)
		return
	}
	unlock := s.lockEntity(spec.Name)
	defer unlock()
	ra, err := s.admitApp(spec, true)
	if err != nil {
		writeAdmitErr(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, s.status(ra, nil))
}

func (s *Server) handleDetach(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("id")
	unlock := s.lockEntity(name)
	defer unlock()
	s.mu.Lock()
	var err error
	if _, known := s.apps[name]; !known {
		err = fmt.Errorf("controlplane: %q: %w", name, runtime.ErrUnknownApp)
	} else if err = s.kernel.Detach(name); err == nil {
		delete(s.apps, name)
	}
	s.mu.Unlock()
	if err != nil {
		writeErr(w, err)
		return
	}
	// Journal before the 204: an acked detach must survive a crash
	// (replaying a restart that resurrects a detached tenant would be a
	// durability lie in the other direction).
	if err := s.journalAppend(opDetach, nameRecord{Name: name}); err != nil {
		writeError(w, http.StatusInternalServerError, CodeInternal, "%s", err.Error())
		return
	}
	// The kernel drains the app at the next epoch boundary; membership
	// is already updated, so 204 without waiting for the drain.
	w.WriteHeader(http.StatusNoContent)
}

// backpressureError is a full-inbox rejection (HTTP 429): the inbox
// only drains while the kernel ticks the app, so past the pending cap
// the server refuses new batches instead of buffering without bound.
type backpressureError struct {
	name    string
	pending int
}

func (e *backpressureError) Error() string {
	return fmt.Sprintf("controlplane: %s: %d samples pending and not being collected; retry later", e.name, e.pending)
}

// writeIngestErr maps ingest-funnel errors onto HTTP statuses. The two
// 429 causes — full inbox and exhausted quota — share the same
// envelope code ("backpressure"): to a client both mean "slow down,
// retry later"; the quota case additionally says when, via Retry-After.
func writeIngestErr(w http.ResponseWriter, err error) {
	var qe *quotaError
	if errors.As(err, &qe) {
		w.Header().Set("Retry-After", strconv.Itoa(qe.retryAfterSeconds()))
		writeError(w, http.StatusTooManyRequests, CodeBackpressure, "%s", err.Error())
		return
	}
	var bp *backpressureError
	if errors.As(err, &bp) {
		writeError(w, http.StatusTooManyRequests, CodeBackpressure, "%s", err.Error())
		return
	}
	badRequest(w, "%v", err)
}

// ingest is the funnel every observation path ends in — JSON, binary
// one-shot and streaming alike: backpressure bound, cardinality
// admission, then one bulk slot-range claim into the app's lock-free
// inbox. Past admission nothing can fail: the batch lands even if the
// app is detached concurrently (its inbox just never gets collected
// again). A sample beyond one of the tenant's SLA targets then nudges
// the kernel — push first, nudge second (see runtime.Kernel.Nudge) — so
// a paced plane reacts now instead of up to -interval later.
func (s *Server) ingest(ra *remoteApp, samples []runtime.Sample) error {
	if ra.inbox.Len() >= maxPendingSamples {
		return &backpressureError{name: ra.spec.Name, pending: ra.inbox.Len()}
	}
	// The quota charges after the inbox bound (a full inbox should not
	// burn tokens) and before cardinality admission: a refused batch is
	// rejected whole and charges nothing — take is all-or-nothing.
	if ok, wait := ra.quota.take(len(samples), time.Now()); !ok {
		return &quotaError{name: ra.spec.Name, retryAfter: wait}
	}
	if err := ra.admitMetrics(samples); err != nil {
		return err
	}
	ra.inbox.PushBatch(samples)
	ra.samples.Add(int64(len(samples)))
	for i := range samples {
		if ra.sla.Breaches(samples[i].Metric, samples[i].Value) {
			s.kernel.Nudge()
			break
		}
	}
	return nil
}

// checkFinite rejects non-finite sample values on the binary paths:
// RFC 8259 JSON cannot carry NaN or ±Inf, so enforcing the caps
// "identically" means raw float64 frames must not smuggle them into
// metric windows either.
func checkFinite(samples []runtime.Sample) error {
	for i := range samples {
		if v := samples[i].Value; math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("sample %d (metric %q): non-finite value", i, samples[i].Metric)
		}
	}
	return nil
}

// jsonIngest is the pooled per-request scratch of the JSON observation
// path: the body buffer, the decoded batch (json.Unmarshal reuses the
// samples slice capacity) and the kernel-sample conversion buffer.
type jsonIngest struct {
	body    bytes.Buffer
	batch   ObservationBatch
	samples []runtime.Sample
}

var jsonIngestPool = sync.Pool{New: func() any { return new(jsonIngest) }}

// binaryIngest is the pooled per-request scratch of the binary paths:
// a buffered reader over the request body, the frame decoder with its
// stream dictionaries, and the one-shot endpoint's whole-body
// accumulation buffer.
type binaryIngest struct {
	br    *bufio.Reader
	dec   wire.Decoder
	batch []runtime.Sample
}

var binaryIngestPool = sync.Pool{New: func() any {
	return &binaryIngest{br: bufio.NewReaderSize(nil, 32<<10)}
}}

func (s *Server) lookupApp(name string) *remoteApp {
	s.mu.RLock()
	ra := s.apps[name]
	s.mu.RUnlock()
	return ra
}

func (s *Server) handleObserve(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("id")
	ra := s.lookupApp(name)
	if ra == nil {
		writeErr(w, fmt.Errorf("controlplane: %q: %w", name, runtime.ErrUnknownApp))
		return
	}
	// Cheap early backpressure check before reading the body: an
	// over-cap tenant is refused without the server paying for a 1 MB
	// read + decode on the very path the bound exists to shed. ingest
	// re-checks, covering the decode-window race.
	if ra.inbox.Len() >= maxPendingSamples {
		writeIngestErr(w, &backpressureError{name: name, pending: ra.inbox.Len()})
		return
	}
	sc := jsonIngestPool.Get().(*jsonIngest)
	defer jsonIngestPool.Put(sc)
	sc.body.Reset()
	if _, err := sc.body.ReadFrom(http.MaxBytesReader(w, r.Body, maxObservationBody)); err != nil {
		badRequest(w, "bad observation batch: %v", err)
		return
	}
	// Zero the whole reused backing array, not just truncate:
	// json.Unmarshal merges into existing slice elements, so a field a
	// request omits would otherwise inherit the previous request's
	// value — a cross-tenant leak through the pool.
	sc.batch.Samples = sc.batch.Samples[:cap(sc.batch.Samples)]
	clear(sc.batch.Samples)
	sc.batch.Samples = sc.batch.Samples[:0]
	if err := json.Unmarshal(sc.body.Bytes(), &sc.batch); err != nil {
		badRequest(w, "bad observation batch: %v", err)
		return
	}
	sc.samples = sc.samples[:0]
	for _, o := range sc.batch.Samples {
		if o.Metric == "" {
			badRequest(w, "observation missing metric")
			return
		}
		sc.samples = append(sc.samples, runtime.Sample{Metric: o.Metric, Value: o.Value})
	}
	if err := s.ingest(ra, sc.samples); err != nil {
		writeIngestErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, ObservationAck{Accepted: len(sc.samples)})
}

// handleObserveBinary is the one-shot binary batch endpoint
// (POST /v1/apps/{id}/observations:binary): the body is a short wire
// stream — one or more frames, all addressed to the URL's app — under
// the same body-size ceiling as the JSON path. The body is one batch:
// every frame is decoded and validated before anything is ingested,
// so a rejected body admits nothing (the JSON path's all-or-nothing
// semantics; a client may blindly retry the whole body without
// duplicating samples).
func (s *Server) handleObserveBinary(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("id")
	ra := s.lookupApp(name)
	if ra == nil {
		writeErr(w, fmt.Errorf("controlplane: %q: %w", name, runtime.ErrUnknownApp))
		return
	}
	// Same cheap pre-read backpressure refusal as the JSON handler.
	if ra.inbox.Len() >= maxPendingSamples {
		writeIngestErr(w, &backpressureError{name: name, pending: ra.inbox.Len()})
		return
	}
	sc := binaryIngestPool.Get().(*binaryIngest)
	defer binaryIngestPool.Put(sc)
	sc.br.Reset(http.MaxBytesReader(w, r.Body, maxObservationBody))
	sc.dec.Reset()
	sc.batch = sc.batch[:0]
	for {
		app, samples, err := sc.dec.ReadFrame(sc.br)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			badRequest(w, "bad observation frame: %v", err)
			return
		}
		if app != name {
			badRequest(w, "frame addressed to %q on the %q endpoint", app, name)
			return
		}
		if err := checkFinite(samples); err != nil {
			badRequest(w, "bad observation frame: %v", err)
			return
		}
		// The decoder's sample scratch is reused by the next ReadFrame,
		// so accumulate a copy (metric strings stay interned).
		sc.batch = append(sc.batch, samples...)
	}
	if err := s.ingest(ra, sc.batch); err != nil {
		writeIngestErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, ObservationAck{Accepted: len(sc.batch)})
}

// handleStream is the persistent ingest endpoint (POST /v1/stream): it
// reads binary frames off the request body in a loop until the client
// closes the stream, pushing each frame's batch into its app's inbox
// as it arrives. Any registered app may appear in any frame (the name
// dictionaries are scoped to the stream), so one connection can carry
// a whole agent's fleet of tenants. The response — an ack with totals,
// or the error that terminated the stream — is written when the stream
// ends; an unknown app, a malformed frame or a cardinality violation
// each end the stream (the client sees the HTTP status once its send
// side closes).
//
// Backpressure differs from the one-shot endpoints: a persistent
// stream has a transport to push back on, so a full inbox stalls the
// frame loop instead of rejecting — the server stops reading, the TCP
// window and the client's pipe fill, and the producer self-paces at
// the kernel's drain rate. Only a stall that outlives
// streamStallLimit (a stopped or wedged kernel, not a busy one) turns
// into the 429 the one-shot paths return immediately.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	sc := binaryIngestPool.Get().(*binaryIngest)
	defer binaryIngestPool.Put(sc)
	sc.br.Reset(r.Body)
	sc.dec.Reset()
	var ack StreamAck
	for {
		app, samples, err := sc.dec.ReadFrame(sc.br)
		if errors.Is(err, io.EOF) {
			writeJSON(w, http.StatusOK, ack)
			return
		}
		if err != nil {
			badRequest(w, "bad stream frame: %v", err)
			return
		}
		ra := s.lookupApp(app)
		if ra == nil {
			writeErr(w, fmt.Errorf("controlplane: %q: %w", app, runtime.ErrUnknownApp))
			return
		}
		if err := checkFinite(samples); err != nil {
			badRequest(w, "bad stream frame: %v", err)
			return
		}
		if err := s.ingestStream(r, ra, samples); err != nil {
			writeIngestErr(w, err)
			return
		}
		ack.Accepted += int64(len(samples))
		ack.Frames++
	}
}

// streamStallLimit bounds how long one stream frame may wait out
// backpressure before the stream fails with 429. Generous against a
// busy kernel (drains run every epoch, microseconds apart), short
// against a stopped one. A var so tests can shorten the stall.
var streamStallLimit = 5 * time.Second

// ingestStream is ingest with stream flow control: backpressure waits
// for the kernel to drain instead of failing, bounded by
// streamStallLimit and the client hanging up. Only a kernel tick drains
// an inbox, and every tick is followed by an epoch that rings
// EpochSignal, so a stalled frame retries once per ring. It subscribes
// before its first retry, so a drain between the refusal and the
// subscription is not missed.
func (s *Server) ingestStream(r *http.Request, ra *remoteApp, samples []runtime.Sample) error {
	err := s.ingest(ra, samples)
	if err == nil {
		return nil // before bp: its address escapes, so declaring it allocates
	}
	var bp *backpressureError
	if !errors.As(err, &bp) {
		return err
	}
	sig, cancel := s.kernel.EpochSignal()
	defer cancel()
	limit := time.NewTimer(streamStallLimit)
	defer limit.Stop()
	for {
		if err = s.ingest(ra, samples); err == nil || !errors.As(err, &bp) {
			return err
		}
		select {
		case <-sig:
		case <-r.Context().Done():
			return err // client hung up; surface the last state
		case <-limit.C:
			return err
		}
	}
}

// status renders one tenant. totals is an optional snapshot for list
// endpoints (TotalsPerApp copies the whole ledger into a map, so a list
// re-fetching it per app would be O(N²)); nil means the O(1)
// single-app read.
func (s *Server) status(ra *remoteApp, totals map[string]float64) AppStatus {
	total, ok := totals[ra.spec.Name]
	if !ok && totals == nil {
		total = s.kernel.TotalFor(ra.spec.Name)
	}
	st := AppStatus{
		Name:        ra.spec.Name,
		Ticks:       ra.ctl.Ticks(),
		QuietTicks:  ra.ctl.QuietTicks(),
		Fires:       ra.ctl.Fires(),
		Adaptations: ra.ctl.Adaptations(),
		TotalGFlop:  total,
		Samples:     ra.samples.Load(),
		Level:       ra.level(),
		Backend:     s.kernel.AppBackend(ra.spec.Name),
		Placement:   ra.spec.Placement,
		Error:       ra.ctl.LastError(),
	}
	if q := ra.spec.Quota; q != nil {
		qc := *q
		st.Quota = &qc
	}
	if ap := ra.pol.Load(); ap != nil {
		ps := &PolicyStatus{
			Type:   ap.spec.Type,
			Levels: ap.spec.Levels,
			Swaps:  ra.swaps.Load(),
		}
		if ap.kp != nil {
			m := ap.kp.Metrics()
			ps.SourceHash = ap.prog.SourceHash
			ps.Decisions = m.Decisions
			ps.FuelBudget = m.FuelBudget
			ps.FuelUsedLast = m.FuelUsedLast
			ps.FuelUsedMax = m.FuelUsedMax
			ps.DeadlineDrops = m.DeadlineDrops
			ps.DecisionDeadlineTicks = m.DecisionDeadlineTicks
		}
		st.Policy = ps
	}
	return st
}

func (s *Server) handleApp(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("id")
	s.mu.RLock()
	ra := s.apps[name]
	s.mu.RUnlock()
	if ra == nil {
		writeErr(w, fmt.Errorf("controlplane: %q: %w", name, runtime.ErrUnknownApp))
		return
	}
	writeJSON(w, http.StatusOK, s.status(ra, nil))
}

func (s *Server) handleApps(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	apps := make([]*remoteApp, 0, len(s.apps))
	for _, ra := range s.apps {
		apps = append(apps, ra)
	}
	s.mu.RUnlock()
	totals := s.kernel.TotalsPerApp()
	out := make([]AppStatus, 0, len(apps))
	for _, ra := range apps {
		out = append(out, s.status(ra, totals))
	}
	writeJSON(w, http.StatusOK, out)
}

// backendStatuses converts the kernel's per-backend snapshot to wire
// form.
func (s *Server) backendStatuses() []BackendStatus {
	stats := s.kernel.BackendStats()
	out := make([]BackendStatus, len(stats))
	for i, st := range stats {
		out[i] = BackendStatus{
			Name:          st.Name,
			Apps:          st.Apps,
			Seq:           st.Seq,
			Health:        st.Health.String(),
			State:         st.State,
			LastError:     st.LastErr,
			Epochs:        st.Epochs,
			WorkGFlop:     st.WorkGFlop,
			DeferredGFlop: st.DeferredGFlop,
			EnergyJ:       st.EnergyJ,
			ThermalEvents: st.ThermalEvents,
			CapDemotions:  st.CapDemotions,
		}
	}
	return out
}

func (s *Server) handleBackends(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.backendStatuses())
}

// handleAddBackend declares a new backend (POST /v1/backends): a
// simulated cluster under its own manager joins the kernel's routing
// set at the next epoch boundary. Names must be unique among live
// backends (409 on duplicate); a removed backend's name is reusable.
func (s *Server) handleAddBackend(w http.ResponseWriter, r *http.Request) {
	var spec BackendSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		badRequest(w, "bad backend spec: %v", err)
		return
	}
	if err := ValidateBackendSpec(spec); err != nil {
		badRequest(w, "bad backend spec: %v", err)
		return
	}
	if err := s.AdmitBackend(spec); err != nil {
		var je *journalError
		if errors.As(err, &je) {
			writeError(w, http.StatusInternalServerError, CodeInternal, "%s", err.Error())
			return
		}
		writeError(w, http.StatusConflict, CodeConflict, "%s", err.Error())
		return
	}
	for _, st := range s.backendStatuses() {
		if st.Name == spec.Name {
			writeJSON(w, http.StatusCreated, st)
			return
		}
	}
	writeJSON(w, http.StatusCreated, BackendStatus{Name: spec.Name})
}

// handleRemoveBackend drains and deletes a backend
// (DELETE /v1/backends/{id}). Admission is synchronous — unknown names
// 404, a concurrent drain or the last schedulable backend 409 — while
// the drain itself (evacuating the placed apps at a generation
// boundary) runs in the background: the response is 202 with the
// backend's draining status, and the SSE stream's "backend" events
// report the drained/removed transitions. Deleting an already-removed
// name is a 404, which makes the call safely retryable: a retry after
// a lost response gets the 404 and knows the backend is gone.
func (s *Server) handleRemoveBackend(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("id")
	unlock := s.lockEntity(name)
	done, err := s.kernel.RemoveBackendAsync(name)
	if err != nil {
		unlock()
		writeErr(w, err)
		return
	}
	// The remove is admitted: journal it before any ack (202 included —
	// the client treats 202 as "will complete", so a crash mid-drain
	// must not resurrect the backend). The retained spec goes first so
	// a concurrent snapshot cannot capture the doomed backend after its
	// remove record was journaled.
	s.dropBackendSpec(name)
	jerr := s.journalAppend(opRemoveBackend, nameRecord{Name: name})
	unlock()
	if jerr != nil {
		writeError(w, http.StatusInternalServerError, CodeInternal, "%s", jerr.Error())
		return
	}
	// Give a fast drain (idle kernel) a moment to finish, so callers of
	// a quiesced plane observe the remove synchronously.
	select {
	case <-done:
		writeJSON(w, http.StatusOK, BackendStatus{Name: name, State: "removed"})
		return
	case <-time.After(50 * time.Millisecond):
	}
	for _, st := range s.backendStatuses() {
		if st.Name == name {
			writeJSON(w, http.StatusAccepted, st)
			return
		}
	}
	writeJSON(w, http.StatusOK, BackendStatus{Name: name, State: "removed"})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	k := s.kernel
	healthy := k.HealthyBackends()
	status := "ok"
	if healthy == 0 {
		// No schedulable backend: epochs are parked or being written
		// off; the plane is up but degraded.
		status = "degraded"
	}
	writeJSON(w, http.StatusOK, Health{
		Status:           status,
		Running:          k.Running(),
		Apps:             k.NumApps(),
		Backends:         k.NumBackends(),
		BackendsHealthy:  healthy,
		Epochs:           k.Epochs(),
		Generation:       k.Generation(),
		ServedGeneration: k.ServedGeneration(),
		Rebuilds:         k.Rebuilds(),
	})
}
