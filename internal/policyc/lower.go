package policyc

import (
	"fmt"

	"repro/internal/dsl"
	"repro/internal/ir"
	"repro/internal/weaver"
)

// entryPrefix namespaces aspect functions inside the IR module.
const entryPrefix = "aspect:"

// Extern names the policy runtime registers on every policy VM. They
// are the only side channel out of a decision: set/scale stage knob
// writes in a scratch config, hold discards them.
const (
	externSet   = "set"
	externScale = "scale"
	externHold  = "hold"
)

// lowerer translates a parsed DSL file into an ir.Module, one function
// per aspect, accumulating diagnostics instead of stopping at the
// first error so a tenant sees every problem in one 400.
type lowerer struct {
	file    *dsl.File
	aspects map[string]*dsl.Aspect
	prog    *Program
	diags   []Diag

	// per-aspect state
	fn    *ir.Function
	slots map[string]int // input/output/call-label name → local slot

	metricSeen map[MetricRef]bool
	knobSeen   map[string]bool // "r:name" / "w:name"
}

func newLowerer(f *dsl.File) *lowerer {
	l := &lowerer{
		file:       f,
		aspects:    make(map[string]*dsl.Aspect, len(f.Aspects)),
		metricSeen: make(map[MetricRef]bool),
		knobSeen:   make(map[string]bool),
	}
	l.prog = &Program{Module: ir.NewModule()}
	return l
}

func (l *lowerer) errorf(pos dsl.Pos, format string, args ...any) {
	if len(l.diags) >= maxDiags {
		return
	}
	l.diags = append(l.diags, Diag{Line: pos.Line, Col: pos.Col, Msg: fmt.Sprintf(format, args...)})
}

// lower translates every aspect. The first aspect is the policy entry;
// the rest are helpers reachable via call.
func (l *lowerer) lower() *Program {
	for _, a := range l.file.Aspects {
		if prev, dup := l.aspects[a.Name]; dup {
			l.errorf(a.Pos, "duplicate aspect %q (first defined at %s)", a.Name, prev.Pos)
			continue
		}
		l.aspects[a.Name] = a
	}
	entry := l.file.Aspects[0]
	l.prog.Entry = entryPrefix + entry.Name
	l.prog.AspectName = entry.Name
	l.prog.Inputs = append([]string(nil), entry.Inputs...)
	for _, a := range l.file.Aspects {
		if l.aspects[a.Name] != a {
			continue // duplicate, already reported
		}
		l.lowerAspect(a)
	}
	return l.prog
}

func (l *lowerer) lowerAspect(a *dsl.Aspect) {
	l.fn = &ir.Function{Name: entryPrefix + a.Name, NParams: len(a.Inputs)}
	l.slots = make(map[string]int, len(a.Inputs)+len(a.Outputs))
	for _, in := range a.Inputs {
		if _, dup := l.slots[in]; dup {
			l.errorf(a.Pos, "aspect %s: duplicate input %q", a.Name, in)
			continue
		}
		l.slots[in] = len(l.slots)
	}
	// Outputs get zero-initialized local slots; the policy dialect has
	// no assignment, so they are only useful as named zeros, but
	// accepting them keeps paper examples compiling.
	for _, out := range a.Outputs {
		if _, dup := l.slots[out]; dup {
			l.errorf(a.Pos, "aspect %s: duplicate output %q", a.Name, out)
			continue
		}
		l.slots[out] = len(l.slots)
	}

	body := a.Body
	for i := 0; i < len(body); i++ {
		switch s := body[i].(type) {
		case *dsl.SelectStmt:
			l.errorf(s.Pos, "select targets source-code join points; a runtime policy has no program to select from")
		case *dsl.ConditionStmt:
			l.errorf(s.Pos, "condition must directly follow an apply block in a runtime policy")
		case *dsl.ApplyStmt:
			// Grammar: the condition physically follows the apply it
			// guards. Lower the guard first, jumping over the actions
			// when it is false.
			var cond dsl.Expr
			if i+1 < len(body) {
				if c, ok := body[i+1].(*dsl.ConditionStmt); ok {
					cond = c.Cond
					i++
				}
			}
			l.lowerApply(s, cond)
		case *dsl.CallStmt:
			l.lowerCall(s.Label, s.Aspect, s.Args, s.Pos)
		default:
			l.errorf(body[i].Position(), "unsupported statement in runtime policy")
		}
	}
	l.fn.NLocals = len(l.slots)
	if l.fn.NLocals < l.fn.NParams {
		l.fn.NLocals = l.fn.NParams
	}
	l.prog.Module.Add(l.fn)
}

// lowerApply lowers `apply` and `apply dynamic` alike: every policy
// already decides on the tick, in resumable slices.
func (l *lowerer) lowerApply(s *dsl.ApplyStmt, cond dsl.Expr) {
	var patch int = -1
	if cond != nil {
		l.lowerExpr(cond)
		patch = l.emit(ir.Instr{Op: ir.OpJmpZero, A: -1})
	}
	for _, act := range s.Body {
		switch a := act.(type) {
		case *dsl.InsertAction:
			l.errorf(a.Pos, "insert templates weave source programs; not available in a runtime policy")
		case *dsl.CallAction:
			l.lowerCall(a.Label, a.Aspect, a.Args, a.Pos)
		case *dsl.DoAction:
			l.lowerDo(a)
		default:
			l.errorf(act.Position(), "unsupported action in runtime policy")
		}
	}
	if patch >= 0 {
		l.fn.Code[patch].A = len(l.fn.Code)
	}
}

// lowerDo compiles the built-in policy actions:
//
//	do Set('knob', expr)   — stage knob := expr
//	do Scale('knob', expr) — stage knob := current(knob) * expr
//	do Hold()              — discard staged writes, keep configuration
//	do Return(expr)        — return expr (helpers called via call label:)
func (l *lowerer) lowerDo(a *dsl.DoAction) {
	switch a.Name {
	case "Set", "Scale":
		ext := externSet
		if a.Name == "Scale" {
			ext = externScale
		}
		if len(a.Args) != 2 {
			l.errorf(a.Pos, "%s expects ('knob', expr), got %d args", a.Name, len(a.Args))
			return
		}
		lit, ok := a.Args[0].(*dsl.StringLit)
		if !ok {
			l.errorf(a.Args[0].Position(), "%s: first argument must be a string knob name", a.Name)
			return
		}
		l.noteKnob(lit.Value, true, a.Pos)
		l.emit(ir.Instr{Op: ir.OpConst, Val: ir.StrValue(lit.Value)})
		l.lowerExpr(a.Args[1])
		l.emit(ir.Instr{Op: ir.OpCall, Sym: ext, A: 2})
		l.emit(ir.Instr{Op: ir.OpPop})
	case "Hold":
		if len(a.Args) != 0 {
			l.errorf(a.Pos, "Hold takes no arguments")
			return
		}
		l.emit(ir.Instr{Op: ir.OpCall, Sym: externHold, A: 0})
		l.emit(ir.Instr{Op: ir.OpPop})
	case "Return":
		if len(a.Args) != 1 {
			l.errorf(a.Pos, "Return expects one expression")
			return
		}
		l.lowerExpr(a.Args[0])
		l.emit(ir.Instr{Op: ir.OpRet})
	default:
		if weaver.IsWeaveAction(a.Name) {
			l.errorf(a.Pos, "weaver action %q weaves source programs, not runtime policies", a.Name)
			return
		}
		l.errorf(a.Pos, "unknown action %q (runtime policies support Set, Scale, Hold, Return)", a.Name)
	}
}

func (l *lowerer) lowerCall(label, aspect string, args []dsl.Expr, pos dsl.Pos) {
	callee, ok := l.aspects[aspect]
	if !ok {
		l.errorf(pos, "call of unknown aspect %q", aspect)
		return
	}
	if len(args) != len(callee.Inputs) {
		l.errorf(pos, "aspect %s expects %d inputs, got %d args", aspect, len(callee.Inputs), len(args))
		return
	}
	for _, arg := range args {
		l.lowerExpr(arg)
	}
	l.emit(ir.Instr{Op: ir.OpCall, Sym: entryPrefix + aspect, A: len(args)})
	if label == "" {
		l.emit(ir.Instr{Op: ir.OpPop})
		return
	}
	slot, exists := l.slots[label]
	if !exists {
		slot = len(l.slots)
		l.slots[label] = slot
	}
	l.emit(ir.Instr{Op: ir.OpStoreLocal, A: slot})
}

func (l *lowerer) lowerExpr(e dsl.Expr) {
	switch x := e.(type) {
	case *dsl.NumberLit:
		l.emit(ir.Instr{Op: ir.OpConst, Val: ir.NumValue(x.Value)})
	case *dsl.StringLit:
		l.errorf(x.Pos, "string literals are only valid as the knob name in Set/Scale")
		l.emit(ir.Instr{Op: ir.OpConst, Val: ir.NumValue(0)})
	case *dsl.VarRef:
		l.lowerVarRef(x)
	case *dsl.MemberExpr:
		l.lowerMember(x)
	case *dsl.UnaryExpr:
		l.lowerExpr(x.X)
		switch x.Op {
		case dsl.TNot:
			l.emit(ir.Instr{Op: ir.OpNot})
		case dsl.TMinus:
			l.emit(ir.Instr{Op: ir.OpNeg})
		default:
			l.errorf(x.Pos, "unsupported unary operator %s", x.Op)
		}
	case *dsl.BinaryExpr:
		l.lowerBinary(x)
	default:
		l.errorf(e.Position(), "unsupported expression in runtime policy")
		l.emit(ir.Instr{Op: ir.OpConst, Val: ir.NumValue(0)})
	}
}

func (l *lowerer) lowerVarRef(x *dsl.VarRef) {
	if slot, ok := l.slots[x.Name]; ok {
		l.emit(ir.Instr{Op: ir.OpLoadLocal, A: slot})
		return
	}
	if x.Name == "violation" {
		l.prog.ReadsViolation = true
		l.emit(ir.Instr{Op: ir.OpLoadGlobal, Sym: "in:violation"})
		return
	}
	// Any other bare identifier reads a knob's current value; the knob
	// set is app-defined, so existence is checked by CheckKnobs at
	// admission rather than here.
	l.noteKnob(x.Name, false, x.Pos)
	l.emit(ir.Instr{Op: ir.OpLoadGlobal, Sym: "k:" + x.Name})
}

var summaryStats = map[string]bool{
	"count": true, "mean": true, "stddev": true,
	"min": true, "max": true, "p95": true,
}

func (l *lowerer) lowerMember(x *dsl.MemberExpr) {
	base, ok := x.X.(*dsl.VarRef)
	if !ok {
		l.errorf(x.Pos, "nested attribute access is not supported; use <metric>.<stat>")
		l.emit(ir.Instr{Op: ir.OpConst, Val: ir.NumValue(0)})
		return
	}
	if _, bound := l.slots[base.Name]; bound {
		l.errorf(x.Pos, "%s is a scalar and has no attribute %q", base.Name, x.Name)
		l.emit(ir.Instr{Op: ir.OpConst, Val: ir.NumValue(0)})
		return
	}
	if !summaryStats[x.Name] {
		l.errorf(x.Pos, "unknown summary stat %q (have count, mean, stddev, min, max, p95)", x.Name)
		l.emit(ir.Instr{Op: ir.OpConst, Val: ir.NumValue(0)})
		return
	}
	ref := MetricRef{Metric: base.Name, Stat: x.Name}
	if !l.metricSeen[ref] {
		l.metricSeen[ref] = true
		l.prog.Refs = append(l.prog.Refs, ref)
	}
	l.emit(ir.Instr{Op: ir.OpLoadGlobal, Sym: ref.global()})
}

func (l *lowerer) lowerBinary(x *dsl.BinaryExpr) {
	switch x.Op {
	case dsl.TAnd:
		// a && b, short-circuit, normalized to 0/1. Forward jumps only,
		// so compiled policies stay structurally loop-free.
		l.lowerExpr(x.L)
		jf := l.emit(ir.Instr{Op: ir.OpJmpZero, A: -1})
		l.lowerExpr(x.R)
		l.emit(ir.Instr{Op: ir.OpNot})
		l.emit(ir.Instr{Op: ir.OpNot})
		jend := l.emit(ir.Instr{Op: ir.OpJmp, A: -1})
		l.fn.Code[jf].A = len(l.fn.Code)
		l.emit(ir.Instr{Op: ir.OpConst, Val: ir.NumValue(0)})
		l.fn.Code[jend].A = len(l.fn.Code)
		return
	case dsl.TOr:
		l.lowerExpr(x.L)
		jnext := l.emit(ir.Instr{Op: ir.OpJmpZero, A: -1})
		l.emit(ir.Instr{Op: ir.OpConst, Val: ir.NumValue(1)})
		jend := l.emit(ir.Instr{Op: ir.OpJmp, A: -1})
		l.fn.Code[jnext].A = len(l.fn.Code)
		l.lowerExpr(x.R)
		l.emit(ir.Instr{Op: ir.OpNot})
		l.emit(ir.Instr{Op: ir.OpNot})
		l.fn.Code[jend].A = len(l.fn.Code)
		return
	}
	l.lowerExpr(x.L)
	l.lowerExpr(x.R)
	var op ir.Opcode
	switch x.Op {
	case dsl.TPlus:
		op = ir.OpAdd
	case dsl.TMinus:
		op = ir.OpSub
	case dsl.TEq:
		op = ir.OpEq
	case dsl.TNe:
		op = ir.OpNe
	case dsl.TLt:
		op = ir.OpLt
	case dsl.TLe:
		op = ir.OpLe
	case dsl.TGt:
		op = ir.OpGt
	case dsl.TGe:
		op = ir.OpGe
	default:
		l.errorf(x.Pos, "unsupported binary operator %s", x.Op)
		l.emit(ir.Instr{Op: ir.OpPop})
		return
	}
	l.emit(ir.Instr{Op: op})
}

func (l *lowerer) noteKnob(name string, write bool, pos dsl.Pos) {
	key := "r:" + name
	if write {
		key = "w:" + name
	}
	if l.knobSeen[key] {
		return
	}
	l.knobSeen[key] = true
	l.prog.Knobs = append(l.prog.Knobs, KnobRef{Name: name, Write: write, Line: pos.Line, Col: pos.Col})
}

// emit appends an instruction and returns its index, for jump patching.
func (l *lowerer) emit(in ir.Instr) int {
	l.fn.Code = append(l.fn.Code, in)
	return len(l.fn.Code) - 1
}
