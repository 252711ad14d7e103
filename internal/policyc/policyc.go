// Package policyc compiles DSL adaptation strategies (internal/dsl)
// through the stack IR (internal/ir) into VM-backed kernel policies.
//
// This is the missing arc of the paper's tool flow: the DSL front end
// and the split-compilation IR existed since the seed, but policies the
// kernel actually ran were hand-written Go ladders. policyc closes the
// loop — a tenant posts LARA-style aspect source, Compile lowers it to
// IR bytecode, and New wraps it in a fuel-bounded policy whose Decide
// signature matches runtime.Policy structurally (no runtime import; the
// interfaces match by shape).
//
// The policy dialect is the DSL grammar minus source weaving: no
// select (there is no program to select join points from), no insert
// templates, no weaver actions. An aspect's inputs are bound from
// per-app parameters; metric summaries and the SLA decision are
// marshalled in as IR globals; knob writes come back out through the
// set/scale/hold externs. Every policy runs its decision on the tick in
// bounded slices, one per Decide, on a resumable VM: a small decision
// finishes in its first slice, a long one resumes on later ticks, and
// none runs on a goroutine. A runaway or crashing policy burns its fuel
// budget and panics out of Decide, which the kernel's tick-path recover
// converts to per-app quarantine — it can never stall a commit.
package policyc

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"

	"repro/internal/dsl"
	"repro/internal/ir"
)

// Diag is one compile diagnostic with a 1-based source position. The
// JSON shape is what the control plane returns in the error envelope's
// detail field, so tenants get machine-readable line/col.
type Diag struct {
	Line int    `json:"line"`
	Col  int    `json:"col"`
	Msg  string `json:"msg"`
}

func (d Diag) String() string { return fmt.Sprintf("%d:%d: %s", d.Line, d.Col, d.Msg) }

// CompileError carries all diagnostics from a failed compile.
type CompileError struct {
	Diags []Diag
}

// Error implements error: first diagnostic plus a count.
func (e *CompileError) Error() string {
	if len(e.Diags) == 0 {
		return "policyc: compile failed"
	}
	if len(e.Diags) == 1 {
		return fmt.Sprintf("policyc: %s", e.Diags[0])
	}
	return fmt.Sprintf("policyc: %s (and %d more)", e.Diags[0], len(e.Diags)-1)
}

// maxDiags caps how many diagnostics a single compile accumulates, so
// hostile source cannot balloon the error response.
const maxDiags = 20

// MetricRef is one metric summary the policy reads, discovered at
// compile time so Decide marshals only what the bytecode touches.
type MetricRef struct {
	Metric string // metric name, e.g. "latency"
	Stat   string // one of count, mean, stddev, min, max, p95
}

func (r MetricRef) global() string { return "m:" + r.Metric + ":" + r.Stat }

// KnobRef is one knob the policy reads or writes, with the source
// position for CheckKnobs diagnostics.
type KnobRef struct {
	Name  string
	Write bool
	Line  int
	Col   int
}

// Program is a compiled policy: IR bytecode plus the interface
// metadata (metric reads, knob writes) the runtime marshalling layer
// and the control plane status API need.
type Program struct {
	Module *ir.Module
	// Entry is the module function name of the entry aspect.
	Entry string
	// AspectName is the DSL-level name of the entry aspect.
	AspectName string
	// Inputs are the entry aspect's declared inputs, bound from
	// Options.Params at instantiation.
	Inputs []string
	// Refs are the metric summaries the bytecode reads.
	Refs []MetricRef
	// Knobs are the knob reads and writes the bytecode performs.
	Knobs []KnobRef
	// ReadsViolation reports whether the policy reads the SLA
	// decision's violation magnitude.
	ReadsViolation bool
	// SourceHash is "sha256:<hex>" over the source text, reported by
	// the status API so tenants can confirm which revision is live.
	SourceHash string
}

// Compile parses and lowers DSL policy source. Errors are always
// *CompileError with 1-based line/col diagnostics.
func Compile(src string) (*Program, error) {
	f, err := dsl.Parse(src)
	if err != nil {
		var de *dsl.Error
		if errors.As(err, &de) {
			return nil, &CompileError{Diags: []Diag{{Line: de.Pos.Line, Col: de.Pos.Col, Msg: de.Msg}}}
		}
		return nil, &CompileError{Diags: []Diag{{Line: 1, Col: 1, Msg: err.Error()}}}
	}
	l := newLowerer(f)
	prog := l.lower()
	if len(l.diags) > 0 {
		if len(l.diags) > maxDiags {
			l.diags = l.diags[:maxDiags]
		}
		return nil, &CompileError{Diags: l.diags}
	}
	sum := sha256.Sum256([]byte(src))
	prog.SourceHash = "sha256:" + hex.EncodeToString(sum[:])
	return prog, nil
}

// CheckKnobs verifies every knob the program touches is in the allowed
// set, returning positioned diagnostics otherwise. The control plane
// calls this at admission with the knobs the app actually exposes, so
// a typo'd knob name is a 400 instead of a silent no-op.
func (p *Program) CheckKnobs(allowed ...string) *CompileError {
	ok := make(map[string]bool, len(allowed))
	for _, a := range allowed {
		ok[a] = true
	}
	var diags []Diag
	for _, k := range p.Knobs {
		if !ok[k.Name] {
			verb := "reads"
			if k.Write {
				verb = "writes"
			}
			diags = append(diags, Diag{Line: k.Line, Col: k.Col,
				Msg: fmt.Sprintf("policy %s unknown knob %q (app exposes: %v)", verb, k.Name, allowed)})
		}
		if len(diags) >= maxDiags {
			break
		}
	}
	if len(diags) > 0 {
		return &CompileError{Diags: diags}
	}
	return nil
}
