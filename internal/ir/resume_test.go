package ir

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

const resumeSrc = `
int g = 3;
int sq(int x) { return x * x; }
int sum(int n) { int s = 0; for (int i = 0; i < n; i++) { s += sq(i) % 7; } return s; }
int pick(int k, int x) { return k * 1000 + x; }
int pick4(int x) { return -x; }
int usePick(int n) { int s = 0; for (int i = 0; i < n; i++) { s += pick(i % 5, i); } return s; }
double fill(int n) {
    double a[8];
    for (int i = 0; i < n; i++) { a[i] = i * 1.5; }
    double s = 0.0;
    for (int i = 0; i < n; i++) { s = s + a[i]; }
    return s;
}
double scale(double* a, int n) { for (int i = 0; i < n; i++) { a[i] = a[i] * g; } return a[n - 1]; }
int probe(int n) { for (int i = 0; i < n; i++) { record("probe", i); } return n; }
int selfcall(int n) { return selfcall(n + 1); }
int spin() { while (1) { } return 0; }
double divz(double x, double y) { return sq(2) + x / y; }
int oob(double* a) { return a[9]; }
int bumpG(int n) { for (int i = 0; i < n; i++) { g = g + i; } return g; }
int viaExtern(int n) { int s = 0; for (int i = 0; i < n; i++) { s += square(i); } return s; }
`

// resumeRun is everything one execution can be observed by: its result,
// error text, accounting, and what its hooks, externs and globals saw.
type resumeRun struct {
	val    string
	err    string
	cycles int64
	fuel   int64
	trace  []string
	hits   int64
	global float64
}

// TestResumeMatchesCall: running a call in slices of any size gives the
// value, error, Cycles and Fuel one Call gives, with the same hook,
// extern, variant and global side effects; and no slice runs past its
// budget except by the one instruction every Resume must make.
func TestResumeMatchesCall(t *testing.T) {
	cases := []struct {
		fn   string
		args func() []Value
		fuel int64
	}{
		{"sum", nums(40), 0},
		{"usePick", nums(23), 0}, // variant dispatch for k == 4
		{"fill", nums(8), 0},
		{"scale", func() []Value { return []Value{PtrValue([]float64{1, 2, 3, 4}), NumValue(4)} }, 0},
		{"probe", nums(9), 0},
		{"bumpG", nums(30), 0},
		{"record", func() []Value { return []Value{StrValue("entry"), NumValue(7)} }, 0}, // an extern entry
		{"selfcall", nums(0), 0},
		{"spin", nums(), 10_000},
		{"sum", nums(500), 3_000}, // out of fuel mid-loop
		{"divz", nums(1, 0), 0},
		{"oob", func() []Value { return []Value{PtrValue(make([]float64, 2))} }, 0},
		{"nosuch", nums(), 0},
		{"sq", nums(1, 2), 0}, // wrong arity
	}
	for _, c := range cases {
		want := execResume(t, c.fn, c.args(), c.fuel, 0)
		for _, slice := range []int64{1, 7, 4096} {
			t.Run(fmt.Sprintf("%s/slice=%d", c.fn, slice), func(t *testing.T) {
				got := execResume(t, c.fn, c.args(), c.fuel, slice)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("sliced run\n%+v\none-shot Call\n%+v", got, want)
				}
			})
		}
	}
	// The cases reach every failure the VM reports.
	var errs []string
	for _, c := range cases {
		errs = append(errs, execResume(t, c.fn, c.args(), c.fuel, 0).err)
	}
	for _, msg := range []string{"call depth exceeded", "fuel budget", "division by zero", "out of range", "undefined function", "expects 1 args, got 2"} {
		if !strings.Contains(strings.Join(errs, "\n"), msg) {
			t.Errorf("no case fails with %q", msg)
		}
	}
}

func nums(xs ...float64) func() []Value {
	return func() []Value {
		vs := make([]Value, len(xs))
		for i, x := range xs {
			vs[i] = NumValue(x)
		}
		return vs
	}
}

// execResume runs fn on a fresh module: one Call when slice is 0, else
// Start and Resume(slice) until done.
func execResume(t *testing.T, fn string, args []Value, fuel, slice int64) resumeRun {
	t.Helper()
	vm := NewVM(compileSrc(t, resumeSrc))
	vm.Fuel = fuel
	vm.Mod.AddVersion("pick", 0, 4, "pick4")
	var r resumeRun
	vm.AddHook(func(_ *VM, callee string, args []Value) {
		r.trace = append(r.trace, fmt.Sprintf("hook %s %v", callee, args))
	})
	vm.RegisterExtern("record", func(_ *VM, args []Value) (Value, error) {
		r.trace = append(r.trace, fmt.Sprintf("extern %v", args))
		return NumValue(1), nil
	})
	var v Value
	var err error
	if slice == 0 {
		v, err = vm.Call(fn, args...)
	} else {
		vm.Start(fn, args...)
		for done := false; !done; {
			before := vm.Cycles
			done, v, err = vm.Resume(slice)
			if ran := vm.Cycles - before; ran > slice && ran > OpNewArray.Cost() {
				t.Fatalf("a %d-cycle slice ran %d cycles", slice, ran)
			}
		}
	}
	r.val = fmt.Sprintf("%v %v", v, v.Arr)
	if err != nil {
		r.err = err.Error()
	}
	r.cycles, r.fuel = vm.Cycles, vm.Fuel
	r.hits = vm.Mod.Variants["pick"].Entries[0].Hits
	r.global = vm.Mod.Globals["g"].Num
	for _, a := range args {
		r.val += fmt.Sprint(a.Arr)
	}
	return r
}

// TestCallAllocsNothing: a warm VM reuses its frames and value stack, so
// a call that builds no array allocates nothing: calls, variant dispatch
// and externs included.
func TestCallAllocsNothing(t *testing.T) {
	vm := NewVM(compileSrc(t, resumeSrc))
	vm.Mod.AddVersion("pick", 0, 4, "pick4")
	vm.RegisterExtern("record", func(*VM, []Value) (Value, error) { return NumValue(0), nil })
	for _, c := range []struct {
		fn   string
		args []Value
	}{
		{"sum", []Value{NumValue(20)}},
		{"usePick", []Value{NumValue(10)}},
		{"probe", []Value{NumValue(3)}},
	} {
		if _, err := vm.Call(c.fn, c.args...); err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(100, func() { vm.Call(c.fn, c.args...) }); n != 0 {
			t.Errorf("Call(%s) allocates %.1f objects, want 0", c.fn, n)
		}
	}
}

// TestReentrantCall: an extern or hook that calls back into its own VM
// runs the nested call to completion on top of the outer run, sliced or
// not — the entry's own hooks included — and the outer run carries on
// where it was.
func TestReentrantCall(t *testing.T) {
	var cycles []int64
	for _, slice := range []int64{0, 7} {
		vm := NewVM(compileSrc(t, resumeSrc))
		vm.RegisterExtern("square", func(vm *VM, args []Value) (Value, error) {
			return vm.Call("sq", args...)
		})
		vm.AddHook(func(vm *VM, callee string, args []Value) {
			if callee == "viaExtern" || callee == "square" {
				if v, err := vm.Call("sq", NumValue(3)); err != nil || v.Num != 9 {
					t.Errorf("hook on %s: sq(3) = %v, %v", callee, v, err)
				}
			}
		})
		var v Value
		var err error
		if slice == 0 {
			v, err = vm.Call("viaExtern", NumValue(5))
		} else {
			vm.Start("viaExtern", NumValue(5))
			for done := false; !done; {
				done, v, err = vm.Resume(slice)
			}
		}
		if err != nil || v.Num != 0+1+4+9+16 {
			t.Fatalf("slice %d: viaExtern(5) = %v, %v; want 30", slice, v, err)
		}
		cycles = append(cycles, vm.Cycles)
	}
	if cycles[0] != cycles[1] {
		t.Fatalf("cycles one-shot %d, sliced %d", cycles[0], cycles[1])
	}
}
