package controlplane

import "encoding/json"

// Wire types of the v1 HTTP/JSON control-plane API. Remote applications
// cannot ship Go callbacks, so the adaptation policy an AppSpec carries
// is declarative: a discriminated PolicySpec that is either a level
// ladder (the built-in step-down policy) or DSL aspect source the
// server compiles to a VM-backed kernel policy at admission
// (internal/policyc). SLA goals over streamed observations and a
// synthetic epoch workload (task count × roofline coordinates) round
// out the spec.

// GoalSpec is one SLA clause (monitor.Goal over the wire).
type GoalSpec struct {
	Metric string `json:"metric"`
	// Stat selects the windowed statistic the bound applies to: "mean"
	// (default), "p95" or "max".
	Stat string `json:"stat,omitempty"`
	// Relation is "at_most" (default) or "at_least".
	Relation string  `json:"relation,omitempty"`
	Target   float64 `json:"target"`
}

// WorkloadSpec declares the synthetic workload the app offers the
// shared manager each epoch.
type WorkloadSpec struct {
	// Tasks is the number of tasks per epoch (default 1).
	Tasks int `json:"tasks,omitempty"`
	// GFlop is each task's compute volume (default 1).
	GFlop float64 `json:"gflop,omitempty"`
	// MemGB is each task's memory traffic (default GFlop/8).
	MemGB float64 `json:"mem_gb,omitempty"`
}

// AppSpec registers one remote application (POST /v1/apps).
type AppSpec struct {
	// Name must be addressable as a URL path segment: 1-128 characters
	// of [A-Za-z0-9._-], not "." or "..".
	Name string `json:"name"`
	// Window is the samples-per-metric window size (default 32).
	Window int `json:"window,omitempty"`
	// Debounce is the consecutive-violation count before the policy
	// fires (default 2).
	Debounce int          `json:"debounce,omitempty"`
	Goals    []GoalSpec   `json:"goals,omitempty"`
	Workload WorkloadSpec `json:"workload,omitempty"`
	// Policy is the app's adaptation policy, a discriminated object:
	// {"type":"ladder","levels":[...]} or
	// {"type":"dsl","source":"aspectdef ...","params":{...}}.
	// Omitted means no policy (the app never adapts).
	Policy *PolicySpec `json:"policy,omitempty"`
	// Levels was the pre-redesign spelling of
	// {"policy":{"type":"ladder","levels":[...]}}. The alias shipped for
	// one release and is now rejected: setting it is a 400 pointing at
	// policy.levels. The field stays declared so the rejection is a
	// deliberate message instead of DisallowUnknownFields noise.
	Levels []float64 `json:"levels,omitempty"`
	// Quota is the app's ingress rate limit. Omitted means unlimited.
	Quota *QuotaSpec `json:"quota,omitempty"`
	// Placement optionally names the backend this app prefers — the
	// kernel's placement hint. Must name a registered backend (400
	// otherwise); all shipped placement policies pin a hinted app to
	// its backend and never steer it away.
	Placement string `json:"placement,omitempty"`
}

// QuotaSpec is a per-tenant ingress token bucket: a sustained
// samples-per-second rate plus a burst allowance. Every observation
// path — JSON, binary one-shot and the stream — charges the same
// bucket one token per sample; an over-quota batch is refused whole
// with 429 ("backpressure") and a Retry-After header, never admitted
// partially. The quota is part of the AppSpec, so it is journaled and
// survives restarts with the rest of the registration.
type QuotaSpec struct {
	// Rate is the sustained refill rate in samples per second.
	Rate float64 `json:"rate"`
	// Burst is the bucket depth in samples (0 selects max(Rate, 1):
	// roughly one second of headroom).
	Burst float64 `json:"burst,omitempty"`
}

// Policy type discriminators (PolicySpec.Type).
const (
	// PolicyLadder is the built-in step-down policy: the app starts at
	// Levels[0]; every debounced SLA firing moves one level to the
	// right; the active level scales each task's compute volume AND
	// memory traffic together (the task's roofline intensity is
	// preserved — less work, not different work). A descending ladder
	// (e.g. [1, 0.5, 0.25]) sheds work under violation, like the
	// navigation server's fidelity ladder.
	PolicyLadder = "ladder"
	// PolicyDSL compiles LARA-style aspect source into a VM-backed
	// policy at admission. The compiled policy reads metric summaries
	// (<metric>.<stat>) and the SLA violation magnitude, and writes the
	// "level" knob (the workload multiplier the ladder also drives) via
	// do Set/Scale. Compile errors are a 400 whose error detail carries
	// line/col diagnostics.
	PolicyDSL = "dsl"
)

// PolicySpec is the discriminated adaptation-policy object, one arm
// per Type. It is both the AppSpec field and the body of
// PUT /v1/apps/{id}/policy (hot swap at a generation boundary).
type PolicySpec struct {
	// Type is "ladder" or "dsl".
	Type string `json:"type"`
	// Levels is the ladder arm: the workload-multiplier ladder, most
	// expensive first.
	Levels []float64 `json:"levels,omitempty"`
	// Source is the dsl arm: DSL aspect source (aspectdef ... end). The
	// first aspect is the policy entry point; its inputs are bound from
	// Params.
	Source string `json:"source,omitempty"`
	// Params bind the entry aspect's inputs (dsl arm only). Missing
	// inputs bind to 0.
	Params map[string]float64 `json:"params,omitempty"`
}

// PolicyStatus reports the active policy on AppStatus — the read-side
// shape of the spec plus, for dsl policies, the compiled revision and
// its execution accounting.
type PolicyStatus struct {
	Type   string    `json:"type"`
	Levels []float64 `json:"levels,omitempty"`
	// SourceHash is "sha256:<hex>" over the dsl source, so a tenant can
	// confirm which revision is live without the server echoing the
	// program back.
	SourceHash string `json:"source_hash,omitempty"`
	// Swaps counts successful PUT /v1/apps/{id}/policy calls.
	Swaps int64 `json:"swaps,omitempty"`
	// Execution accounting for dsl policies (zero/omitted for ladder):
	// Decisions counts completed VM runs; FuelUsedLast/FuelUsedMax are
	// the most recent and worst per-decision fuel spends against
	// FuelBudget — a FuelUsedMax near the budget is the early warning
	// before a quarantine trip.
	Decisions    int64 `json:"decisions,omitempty"`
	FuelBudget   int64 `json:"fuel_budget,omitempty"`
	FuelUsedLast int64 `json:"fuel_used_last,omitempty"`
	FuelUsedMax  int64 `json:"fuel_used_max,omitempty"`
	// A dsl decision runs in bounded slices, one per tick: a small one
	// lands in its first tick. DecisionDeadlineTicks is how many ticks a
	// decision may span and still be applied; DeadlineDrops counts
	// completed ones that spanned more.
	DeadlineDrops         int64 `json:"deadline_drops,omitempty"`
	DecisionDeadlineTicks int64 `json:"decision_deadline_ticks,omitempty"`
}

// BackendSpec declares one resource-manager backend — a simulated
// cluster under its own rtrm.Manager — to a running kernel
// (POST /v1/backends). Backends join the routing set at the next epoch
// boundary; DELETE /v1/backends/{id} drains and removes one.
type BackendSpec struct {
	// Name must be addressable like an app name: 1-128 characters of
	// [A-Za-z0-9._-], not "." or "..".
	Name string `json:"name"`
	// Nodes is the cluster size (0 selects the default, 8).
	Nodes int `json:"nodes,omitempty"`
	// Hetero alternates heterogeneous/homogeneous nodes when true;
	// false builds an all-homogeneous site.
	Hetero bool `json:"hetero,omitempty"`
	// AmbientC is the site's ambient temperature in [-40, 60].
	// 0 is the unset sentinel and selects the default (22); a site at
	// exactly 0C is not expressible — declare 0.01 instead.
	AmbientC float64 `json:"ambient_c,omitempty"`
	// CapFrac is the facility power cap as a fraction of peak, in
	// (0, 1]. 0 selects the default (0.9); negative values are
	// rejected.
	CapFrac float64 `json:"cap_frac,omitempty"`
	// Vary is the component manufacturing variability, in (0, 1).
	// 0 is the unset sentinel and selects the default (0.15); declare
	// a tiny positive value for a variability-free site. Negative
	// values are rejected.
	Vary float64 `json:"vary,omitempty"`
	// Seed seeds the site's RNG (0 selects the default, 1).
	Seed uint64 `json:"seed,omitempty"`
}

// BackendStatus is the read side of one backend (GET /v1/backends,
// and embedded per-backend in GET /v1/epochs).
type BackendStatus struct {
	Name string `json:"name"`
	// Apps is the number of applications placed on the backend.
	Apps int `json:"apps"`
	// Seq is the backend's epoch sequence number: it advances on every
	// commit this backend runs. A commit abandoned at the backend
	// timeout lands after its epoch, so stream consumers key change
	// detection on the seq vector, not on the global epoch counter.
	Seq int64 `json:"seq"`
	// Health is the backend's failure-domain health: "healthy",
	// "degraded" (a commit overran the kernel's backend timeout) or
	// "failed" (the backend panicked mid-commit). Degraded and failed
	// backends take no new work; their apps evacuate to healthy ones.
	Health string `json:"health,omitempty"`
	// State is the backend's lifecycle state: "active", "draining"
	// (DELETE in progress, apps evacuating) or "drained". Removed
	// backends disappear from listings entirely.
	State string `json:"state,omitempty"`
	// LastError carries the most recent failure reason (captured panic,
	// deadline overrun). Empty while healthy.
	LastError string `json:"last_error,omitempty"`
	// Epochs is the number of control epochs this backend has run
	// (backends only run when apps placed on them contribute).
	Epochs        int     `json:"epochs"`
	WorkGFlop     float64 `json:"work_gflop"`
	DeferredGFlop float64 `json:"deferred_gflop"`
	EnergyJ       float64 `json:"energy_j"`
	ThermalEvents int     `json:"thermal_events"`
	CapDemotions  int     `json:"cap_demotions"`
}

// Observation is one streamed telemetry sample.
type Observation struct {
	Metric string  `json:"metric"`
	Value  float64 `json:"value"`
}

// ObservationBatch is the body of POST /v1/apps/{id}/observations.
type ObservationBatch struct {
	Samples []Observation `json:"samples"`
}

// ObservationAck acknowledges an accepted batch.
type ObservationAck struct {
	Accepted int `json:"accepted"`
}

// StreamAck is the terminal response of POST /v1/stream: totals for
// the whole stream, written when the client closes its send side.
type StreamAck struct {
	Accepted int64 `json:"accepted"`
	Frames   int64 `json:"frames"`
}

// AppStatus is the read side of one app (GET /v1/apps/{id}).
type AppStatus struct {
	Name  string `json:"name"`
	Ticks int64  `json:"ticks"`
	// QuietTicks counts the ticks that found nothing new since a passing
	// SLA check and skipped the analyse pass (a subset of Ticks).
	QuietTicks  int64   `json:"quiet_ticks"`
	Fires       int64   `json:"fires"`
	Adaptations int64   `json:"adaptations"`
	TotalGFlop  float64 `json:"total_gflop"`
	// Samples counts observations accepted over HTTP for this app.
	Samples int64 `json:"samples"`
	// Level is the app's active workload level (1 when no ladder).
	Level float64 `json:"level"`
	// Backend is the backend the app is currently placed on ("" until
	// the first placement, i.e. before the app's first epoch boundary).
	Backend string `json:"backend,omitempty"`
	// Placement echoes the spec's placement hint (the backend the app
	// asked for; Backend is where it actually runs right now).
	Placement string `json:"placement,omitempty"`
	// Quota echoes the spec's ingress quota. Omitted means unlimited.
	Quota *QuotaSpec `json:"quota,omitempty"`
	// Policy is the active adaptation policy in canonical shape (also
	// for apps registered through the deprecated levels alias). Omitted
	// when the app has no policy.
	Policy *PolicyStatus `json:"policy,omitempty"`
	// Error is the app's most recent failure note: the captured panic of
	// a quarantined app (a tenant panic is contained to its app, never
	// the kernel), or a dropped-epoch note from a no-healthy-backends
	// write-off. Empty while clean.
	Error string `json:"error,omitempty"`
}

// BackendEventBody is the payload of one SSE "backend" event on
// GET /v1/epochs/stream: a backend state transition (health change or
// lifecycle move), delivered immediately, outside the epoch throttle.
type BackendEventBody struct {
	Backend string `json:"backend"`
	Health  string `json:"health"`
	State   string `json:"state"`
	Reason  string `json:"reason,omitempty"`
}

// EpochsStatus is the kernel-wide epoch telemetry (GET /v1/epochs).
type EpochsStatus struct {
	// Epochs counts manager epochs run since the kernel was built.
	Epochs int64 `json:"epochs"`
	// Generation is the membership epoch: attach/detach count so far.
	Generation int64 `json:"generation"`
	// ServedGeneration is the membership epoch the concurrent loops
	// currently serve; it trails Generation briefly after a change.
	ServedGeneration int64 `json:"served_generation"`
	// Apps is the current number of attached applications.
	Apps int `json:"apps"`
	// TotalsPerApp is cumulative offered GFlop per app (detached apps
	// keep their entries).
	TotalsPerApp map[string]float64 `json:"totals_per_app"`
	// Manager aggregates, merged across every backend.
	WorkGFlop     float64 `json:"work_gflop"`
	DeferredGFlop float64 `json:"deferred_gflop"`
	EnergyJ       float64 `json:"energy_j"`
	// Backends is the per-backend breakdown, in registration order.
	Backends []BackendStatus `json:"backends"`
}

// Health is the liveness probe (GET /healthz). Status is "ok" while at
// least one backend is schedulable and "degraded" otherwise — the
// plane still answers, but epochs are parked or being written off.
type Health struct {
	Status           string `json:"status"`
	Running          bool   `json:"running"`
	Apps             int    `json:"apps"`
	Backends         int    `json:"backends"`
	BackendsHealthy  int    `json:"backends_healthy"`
	Epochs           int64  `json:"epochs"`
	Generation       int64  `json:"generation"`
	ServedGeneration int64  `json:"served_generation"`
	// Rebuilds counts loop-topology rebuilds since the kernel started
	// (runtime.Kernel.Rebuilds); other membership changes are patched in.
	Rebuilds int64 `json:"rebuilds"`
}

// Error codes carried in the error envelope. They partition the HTTP
// statuses the API uses, so clients branch on a stable string instead
// of parsing messages.
const (
	// CodeBadRequest: malformed body, spec validation failure (400).
	CodeBadRequest = "bad_request"
	// CodeCompileError: DSL policy source failed to compile (400); the
	// envelope detail is an array of {line, col, msg} diagnostics.
	CodeCompileError = "compile_error"
	// CodeUnauthorized: missing or invalid bearer token (401).
	CodeUnauthorized = "unauthorized"
	// CodeNotFound: unknown app or backend (404).
	CodeNotFound = "not_found"
	// CodeConflict: duplicate app, draining or last backend (409).
	CodeConflict = "conflict"
	// CodeBackpressure: inbox pending cap reached, retry later (429).
	CodeBackpressure = "backpressure"
	// CodeInternal: everything else (5xx).
	CodeInternal = "internal"
)

// ErrorInfo is the typed error payload: a stable machine-readable
// code, a human-readable message, and optional structured detail
// (compile diagnostics ride here as [{line, col, msg}, ...]).
type ErrorInfo struct {
	Code    string          `json:"code"`
	Message string          `json:"message"`
	Detail  json.RawMessage `json:"detail,omitempty"`
}

// ErrorBody is the JSON error envelope every non-2xx response carries:
// {"error": {"code", "message", "detail"}}.
type ErrorBody struct {
	Error ErrorInfo `json:"error"`
}

// UnmarshalJSON accepts both the envelope and the pre-redesign flat
// shape {"error": "message"}, so a new client talking to an old plane
// (one release of skew) still surfaces the message.
func (b *ErrorBody) UnmarshalJSON(data []byte) error {
	var env struct {
		Error ErrorInfo `json:"error"`
	}
	if err := json.Unmarshal(data, &env); err == nil {
		b.Error = env.Error
		return nil
	}
	var legacy struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(data, &legacy); err != nil {
		return err
	}
	b.Error = ErrorInfo{Message: legacy.Error}
	return nil
}
