package ir

import (
	"fmt"
	"math"
)

// Extern is a host function callable from IR code. Weaving-injected
// instrumentation (profile_args, monitor hooks) is provided as externs.
// args is a view of the VM's value stack, valid only during the call.
type Extern func(vm *VM, args []Value) (Value, error)

// CallHook observes every call executed by the VM, before dispatch. The
// DSL's dynamic weaving (Fig. 4 `apply dynamic`) registers a hook that
// inspects runtime argument values and installs specialized variants.
// args is a view of the VM's value stack, valid only during the call.
type CallHook func(vm *VM, callee string, args []Value)

// VM executes IR modules with deterministic cycle accounting. It runs on
// frame and value stacks it owns and reuses, not on the Go stack, so a
// call can be suspended between instructions (Start/Resume), and a warm
// VM executes without allocating.
type VM struct {
	Mod     *Module
	Externs map[string]Extern
	Hooks   []CallHook

	// Cycles accumulates the deterministic cost of executed instructions;
	// it is the "time" the simulator substrates consume.
	Cycles int64
	// Fuel bounds execution; 0 means the default budget. Running out
	// returns ErrOutOfFuel, preventing runaway woven programs.
	Fuel int64

	// frames are the active IR calls, innermost last; stack[:sp] holds
	// each one's locals followed by its operands. The run Start began
	// ends when its frames unwind to base and its values to sbase: a
	// Start while Start or Resume is running (an extern or hook calling
	// Call) nests a run above the one it came from.
	frames      []frame
	stack       []Value
	sp          int
	base, sbase int
	running     bool
	// result and err are the outcome of a call Start finished itself.
	result Value
	err    error
}

// frame is one active IR call: its function, next instruction, and the
// stack index of its first local (the arguments, left in place).
type frame struct {
	fn     *Function
	pc, bp int
}

// ErrOutOfFuel is returned when execution exceeds the fuel budget.
var ErrOutOfFuel = fmt.Errorf("ir: execution exceeded fuel budget")

const defaultFuel = 500_000_000

// maxDepth bounds recursion.
const maxDepth = 512

// NewVM returns a VM over mod with no externs registered.
func NewVM(mod *Module) *VM {
	return &VM{Mod: mod, Externs: make(map[string]Extern)}
}

// RegisterExtern installs a host function under name.
func (vm *VM) RegisterExtern(name string, fn Extern) { vm.Externs[name] = fn }

// AddHook appends a call hook.
func (vm *VM) AddHook(h CallHook) { vm.Hooks = append(vm.Hooks, h) }

// Call invokes the named function with args, applying variant dispatch and
// call hooks, and returns its result: Start plus an unbounded Resume.
func (vm *VM) Call(name string, args ...Value) (Value, error) {
	base, sbase := vm.base, vm.sbase // an enclosing run, when an extern re-enters
	vm.Start(name, args...)
	_, v, err := vm.Resume(math.MaxInt64)
	vm.base, vm.sbase = base, sbase
	return v, err
}

// Start dispatches a call of the named function as Call would, and
// leaves it for Resume to run. It discards a suspended, unfinished run.
func (vm *VM) Start(name string, args ...Value) {
	if vm.Fuel == 0 {
		vm.Fuel = defaultFuel
	}
	if !vm.running {
		vm.frames, vm.sp = vm.frames[:0], 0
	}
	defer func(running bool) { vm.running = running }(vm.running)
	vm.running = true // the entry's hooks and extern may call back in
	vm.base, vm.sbase = len(vm.frames), vm.sp
	vm.reserve(len(args) + 1)
	vm.sp += copy(vm.stack[vm.sp:], args)
	vm.result, vm.err = Value{}, vm.call(name, len(args))
	if len(vm.frames) == vm.base { // dispatch failed, or an extern entry ran
		if vm.err == nil {
			vm.result = vm.stack[vm.sp-1]
		}
		vm.unwind()
	}
}

// unwind drops the current run's frames and values.
func (vm *VM) unwind() { vm.frames, vm.sp = vm.frames[:vm.base], vm.sbase }

// Resume runs the started call for up to budget cycles, and at least
// one instruction. It suspends only before an instruction that would
// overrun the budget, so slicing a run changes neither its result nor
// its Cycles or Fuel. done reports the call finished (or none in
// flight), with its result or error.
func (vm *VM) Resume(budget int64) (done bool, v Value, err error) {
	if len(vm.frames) <= vm.base { // Start finished the call, or none was started
		return true, vm.result, vm.err
	}
	defer func(running bool) { vm.running = running }(vm.running)
	vm.running = true
	var spent int64
	// The innermost frame's state lives in locals until control leaves it.
resume:
	for {
		f := &vm.frames[len(vm.frames)-1]
		fn, pc, bp := f.fn, f.pc, f.bp
		code, st, sp := fn.Code, vm.stack, vm.sp
		var ret Value // the value a return hands the caller
	exec:
		for {
			if pc >= len(code) {
				ret = NumValue(0) // fell off the end
				break
			}
			in := &code[pc]
			cost := in.Op.Cost()
			if spent+cost > budget && spent > 0 {
				f.pc, vm.sp = pc, sp
				return false, Value{}, nil
			}
			spent += cost
			vm.Cycles += cost
			vm.Fuel -= cost
			if vm.Fuel <= 0 {
				err = ErrOutOfFuel
				break
			}
			pc++
			if sp == len(st) { // room for the one value any instruction nets
				vm.sp = sp
				vm.reserve(1)
				st = vm.stack
			}
			switch in.Op {
			case OpConst:
				st[sp] = in.Val
				sp++
			case OpLoadLocal:
				st[sp] = st[bp+in.A]
				sp++
			case OpStoreLocal:
				sp--
				st[bp+in.A] = st[sp]
			case OpLoadGlobal:
				st[sp] = vm.Mod.Globals[in.Sym]
				sp++
			case OpStoreGlobal:
				sp--
				vm.Mod.Globals[in.Sym] = st[sp]
			case OpLoadIndex:
				sp--
				var i int
				if i, err = index(fn, st[sp-1], st[sp]); err != nil {
					break exec
				}
				st[sp-1] = NumValue(st[sp-1].Arr[i])
			case OpStoreIndex:
				sp -= 3
				var i int
				if i, err = index(fn, st[sp], st[sp+1]); err != nil {
					break exec
				}
				st[sp].Arr[i] = st[sp+2].Num
			case OpAdd:
				sp--
				st[sp-1] = NumValue(st[sp-1].Num + st[sp].Num)
			case OpSub:
				sp--
				st[sp-1] = NumValue(st[sp-1].Num - st[sp].Num)
			case OpMul:
				sp--
				st[sp-1] = NumValue(st[sp-1].Num * st[sp].Num)
			case OpDiv:
				sp--
				if st[sp].Num == 0 {
					err = fmt.Errorf("ir: %s: division by zero", fn.Name)
					break exec
				}
				st[sp-1] = NumValue(st[sp-1].Num / st[sp].Num)
			case OpMod:
				sp--
				if st[sp].Num == 0 {
					err = fmt.Errorf("ir: %s: modulo by zero", fn.Name)
					break exec
				}
				st[sp-1] = NumValue(math.Mod(st[sp-1].Num, st[sp].Num))
			case OpNeg:
				st[sp-1] = NumValue(-st[sp-1].Num)
			case OpNot:
				st[sp-1] = boolValue(!st[sp-1].Bool())
			case OpEq:
				sp--
				st[sp-1] = boolValue(st[sp-1].Num == st[sp].Num)
			case OpNe:
				sp--
				st[sp-1] = boolValue(st[sp-1].Num != st[sp].Num)
			case OpLt:
				sp--
				st[sp-1] = boolValue(st[sp-1].Num < st[sp].Num)
			case OpLe:
				sp--
				st[sp-1] = boolValue(st[sp-1].Num <= st[sp].Num)
			case OpGt:
				sp--
				st[sp-1] = boolValue(st[sp-1].Num > st[sp].Num)
			case OpGe:
				sp--
				st[sp-1] = boolValue(st[sp-1].Num >= st[sp].Num)
			case OpJmp:
				pc = in.A
			case OpJmpZero:
				sp--
				if !st[sp].Bool() {
					pc = in.A
				}
			case OpCall:
				f.pc, vm.sp = pc, sp
				if err = vm.call(in.Sym, in.A); err != nil {
					break exec
				}
				continue resume // the callee's frame, or ours after an extern
			case OpRet:
				ret = st[sp-1]
				break exec
			case OpRetVoid:
				ret = NumValue(0)
				break exec
			case OpPop:
				sp--
			case OpNewArray:
				st[sp] = PtrValue(make([]float64, in.A))
				sp++
			default:
				err = fmt.Errorf("ir: %s: unknown opcode %v", fn.Name, in.Op)
				break exec
			}
		}
		if err != nil {
			vm.unwind()
			return true, Value{}, err
		}
		// Return: drop the frame and hand the value to the caller, or end
		// the run.
		vm.frames, vm.sp = vm.frames[:len(vm.frames)-1], bp
		if len(vm.frames) == vm.base {
			vm.unwind()
			return true, ret, nil
		}
		vm.stack[vm.sp] = ret
		vm.sp++
	}
}

// call dispatches name with the top n stack values as arguments: an IR
// function gets a frame over them, an extern runs and its result
// replaces them.
func (vm *VM) call(name string, n int) error {
	if len(vm.frames) >= maxDepth {
		return fmt.Errorf("ir: call depth exceeded at %q", name)
	}
	args := vm.stack[vm.sp-n : vm.sp]
	for _, h := range vm.Hooks {
		h(vm, name, args)
	}
	// Variant dispatch: a specialized version may shadow the generic one
	// for specific argument values (Fig. 4 AddVersion semantics); the
	// matched argument is dropped in place.
	if target := vm.Mod.Lookup(name, args); target != "" {
		i := vm.sp - n + vm.Mod.Variants[name].ArgIndex
		copy(vm.stack[i:], vm.stack[i+1:vm.sp])
		vm.sp--
		name, n = target, n-1
	}
	if fn, ok := vm.Mod.Funcs[name]; ok {
		if n != fn.NParams {
			return fmt.Errorf("ir: %s expects %d args, got %d", fn.Name, fn.NParams, n)
		}
		bp := vm.sp - n
		vm.reserve(fn.NLocals - n + 1)
		clear(vm.stack[vm.sp : bp+fn.NLocals])
		vm.sp = bp + fn.NLocals
		vm.frames = append(vm.frames, frame{fn: fn, bp: bp})
		return nil
	}
	if ext, ok := vm.Externs[name]; ok {
		v, err := ext(vm, vm.stack[vm.sp-n:vm.sp])
		if err != nil {
			return err
		}
		vm.sp -= n // a Call inside ext may have grown the stack, not moved sp
		vm.stack[vm.sp] = v
		vm.sp++
		return nil
	}
	return fmt.Errorf("ir: undefined function %q", name)
}

// index checks an indexing operation's pointer and index operands.
func index(fn *Function, ptr, idx Value) (int, error) {
	if ptr.Kind != KindPtr {
		return 0, fmt.Errorf("ir: %s: indexing non-pointer", fn.Name)
	}
	i := int(idx.Num)
	if i < 0 || i >= len(ptr.Arr) {
		return 0, fmt.Errorf("ir: %s: index %d out of range [0,%d)", fn.Name, i, len(ptr.Arr))
	}
	return i, nil
}

// reserve makes room for n more values above sp. The stack grows only
// as deep as the VM's programs go: a VM per tenant keeps it for good.
func (vm *VM) reserve(n int) {
	if need := vm.sp + n; need > len(vm.stack) {
		grown := make([]Value, max(need, 2*len(vm.stack)))
		copy(grown, vm.stack[:vm.sp])
		vm.stack = grown
	}
}

func boolValue(b bool) Value {
	if b {
		return NumValue(1)
	}
	return NumValue(0)
}
