package controlplane

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"

	"repro/internal/autotune"
	"repro/internal/monitor"
	"repro/internal/policyc"
	"repro/internal/runtime"
)

// DSL-policy admission ceilings, in the spirit of the spec magnitude
// bounds: the compiler is fuel-bounded at run time, but admission still
// caps what one tenant can make it chew on.
const (
	maxPolicySource = 16 << 10
	maxPolicyParams = 32
)

// appPolicy is the server-side record of one installed policy arm:
// the canonical wire spec (what GET reports), and for the DSL arm the
// compiled program plus its live VM-backed instance. An instance owns
// no goroutine, so a swapped-out or detached one is simply dropped.
type appPolicy struct {
	spec PolicySpec
	prog *policyc.Program  // nil for ladder
	kp   *policyc.VMPolicy // nil for ladder
}

// rejectLegacyLevels refuses the removed top-level "levels" alias. It
// was accepted (and canonicalized) for one release; now it is a 400
// that tells the caller exactly where the field moved, which beats the
// generic unknown-field error a dropped declaration would produce.
func rejectLegacyLevels(spec *AppSpec) error {
	if len(spec.Levels) == 0 {
		return nil
	}
	return errors.New(`top-level "levels" was removed; use {"policy": {"type": "ladder", "levels": [...]}} (policy.levels)`)
}

// validatePolicy bounds a canonical PolicySpec. nil (no policy) is
// valid: the app runs open-loop at level 1.
func validatePolicy(p *PolicySpec) error {
	if p == nil {
		return nil
	}
	switch p.Type {
	case PolicyLadder:
		if p.Source != "" || len(p.Params) > 0 {
			return errors.New("ladder policy takes levels only (source/params are dsl fields)")
		}
		if len(p.Levels) == 0 {
			return errors.New("ladder policy needs at least one level")
		}
		if len(p.Levels) > maxLevels {
			return fmt.Errorf("%d levels, at most %d", len(p.Levels), maxLevels)
		}
		for _, l := range p.Levels {
			if !validMag(l) {
				return fmt.Errorf("level %g must be finite in [0, %g]", l, float64(maxMagnitude))
			}
		}
	case PolicyDSL:
		if len(p.Levels) > 0 {
			return errors.New("dsl policy takes source/params, not levels")
		}
		if p.Source == "" {
			return errors.New("dsl policy needs source")
		}
		if len(p.Source) > maxPolicySource {
			return fmt.Errorf("policy source %d bytes, at most %d", len(p.Source), maxPolicySource)
		}
		if len(p.Params) > maxPolicyParams {
			return fmt.Errorf("%d params, at most %d", len(p.Params), maxPolicyParams)
		}
		for name, v := range p.Params {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > maxMagnitude {
				return fmt.Errorf("param %q = %g must be finite in [-%g, %g]",
					name, v, float64(maxMagnitude), float64(maxMagnitude))
			}
		}
	default:
		return fmt.Errorf("policy type %q must be %q or %q", p.Type, PolicyLadder, PolicyDSL)
	}
	return nil
}

// buildPolicy materializes a canonical PolicySpec into the kernel-side
// policy and knob for this tenant. The ladder arm reproduces the
// built-in step-down behaviour over ra.levelIdx; the DSL arm compiles
// the source (positioned diagnostics surface as *policyc.CompileError),
// checks it only touches the "level" knob, and instantiates a VM-backed
// policy whose knob writes land in ra.dslLevel. A nil spec builds
// nothing: the app runs open-loop.
func buildPolicy(ra *remoteApp, p *PolicySpec) (*appPolicy, runtime.Policy, runtime.Knob, error) {
	if p == nil {
		return nil, nil, nil, nil
	}
	switch p.Type {
	case PolicyLadder:
		levels := p.Levels
		pol := runtime.PolicyFunc(func(monitor.Decision, map[string]monitor.Summary) (autotune.Config, bool) {
			next := ra.levelIdx.Load() + 1
			if int(next) >= len(levels) {
				return nil, false // bottom of the ladder: nothing to shed
			}
			return autotune.Config{"level_idx": float64(next)}, true
		})
		knob := runtime.KnobFunc(func(cfg autotune.Config) {
			if v, ok := cfg["level_idx"]; ok && int(v) < len(levels) {
				ra.levelIdx.Store(int64(v))
			}
		})
		return &appPolicy{spec: *p}, pol, knob, nil
	case PolicyDSL:
		prog, err := policyc.Compile(p.Source)
		if err != nil {
			return nil, nil, nil, err
		}
		if ce := prog.CheckKnobs("level"); ce != nil {
			return nil, nil, nil, ce
		}
		kp, err := policyc.New(prog, policyc.Options{
			Params: p.Params,
			KnobValue: func(name string) float64 {
				if name == "level" {
					return ra.level()
				}
				return 0
			},
		})
		if err != nil {
			return nil, nil, nil, err
		}
		knob := runtime.KnobFunc(func(cfg autotune.Config) {
			v, ok := cfg["level"]
			if !ok {
				return
			}
			// Clamp into the same range validMag enforces on ladder
			// levels: the policy steers the workload multiplier, it
			// does not get to turn it into a magnitude attack.
			if v < 0 {
				v = 0
			}
			if v > maxMagnitude {
				v = maxMagnitude
			}
			ra.dslLevel.Store(math.Float64bits(v))
		})
		return &appPolicy{spec: *p, prog: prog, kp: kp}, kp, knob, nil
	}
	return nil, nil, nil, fmt.Errorf("policy type %q must be %q or %q", p.Type, PolicyLadder, PolicyDSL)
}

// installPolicy seeds the incoming arm's state and publishes the new
// policy record. Seeding reads ra.level() before the store, so it sees
// the outgoing arm: a DSL policy starts from the level the ladder (or
// default 1) left the workload at, instead of a discontinuity.
func installPolicy(ra *remoteApp, ap *appPolicy) {
	if ap == nil {
		return
	}
	switch ap.spec.Type {
	case PolicyLadder:
		ra.levelIdx.Store(0)
	case PolicyDSL:
		ra.dslLevel.Store(math.Float64bits(ra.level()))
	}
	ra.pol.Store(ap)
}

// handlePutPolicy hot-swaps a tenant's policy (PUT /v1/apps/{id}/policy):
// the replacement is validated and compiled up front, then installed
// through Kernel.SwapPolicy so it lands at a generation boundary — the
// app keeps its inbox, metric windows, totals and tick counters, and no
// decision is computed half by the old policy and half by the new one.
// Swapping also clears a quarantine: replacing the crashed component is
// the recovery path. Responds 200 with the app's status (policy block
// included).
func (s *Server) handlePutPolicy(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("id")
	var p PolicySpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p); err != nil {
		badRequest(w, "bad policy spec: %v", err)
		return
	}
	if err := validatePolicy(&p); err != nil {
		badRequest(w, "bad policy spec: %v", err)
		return
	}
	// Entity lock before s.mu: the swap and its journal record must be
	// ordered against any concurrent register/detach of the same name
	// (the journal fold is last-writer-wins per name, so same-name
	// record order must match memory order).
	unlock := s.lockEntity(name)
	defer unlock()
	s.mu.Lock()
	ra := s.apps[name]
	if ra == nil {
		s.mu.Unlock()
		writeErr(w, fmt.Errorf("controlplane: %q: %w", name, runtime.ErrUnknownApp))
		return
	}
	ap, pol, knob, err := buildPolicy(ra, &p)
	if err != nil {
		s.mu.Unlock()
		var ce *policyc.CompileError
		if errors.As(err, &ce) {
			writeCompileErr(w, ce)
			return
		}
		badRequest(w, "bad policy spec: %v", err)
		return
	}
	old := ra.pol.Load()
	installPolicy(ra, ap)
	if _, err := s.kernel.SwapPolicy(name, pol, knob); err != nil {
		ra.pol.Store(old) // roll back the record; the kernel rejected the swap
		s.mu.Unlock()
		writeErr(w, err)
		return
	}
	ra.swaps.Add(1)
	s.mu.Unlock()
	// Journal after the swap is live, before the ack: an acked swap
	// must survive a crash. On journal failure the swap stays live but
	// unacked — write-ahead promises nothing about unacknowledged ops.
	if err := s.journalAppend(opPutPolicy, policyRecord{Name: name, Policy: p}); err != nil {
		writeError(w, http.StatusInternalServerError, CodeInternal, "%s", err.Error())
		return
	}
	writeJSON(w, http.StatusOK, s.status(ra, nil))
}
