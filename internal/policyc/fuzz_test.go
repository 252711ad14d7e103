package policyc

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/monitor"
)

// FuzzCompile is the front door for hostile tenant source: whatever
// bytes arrive over POST /v1/apps, Compile must return a program or a
// *CompileError — never panic, never hang. When compilation succeeds,
// the program must also instantiate, and its first decision — driven
// through Decide in 7-cycle slices until it finishes or panics, so any
// program is suspended mid-decision — must equal the same decision run
// in one go. A decision that fits one default slice must also finish in
// a fresh policy's first Decide, with the one-shot outcome: every
// policy runs sliced, so a small one must never notice. Fuzz coverage
// so reaches the VM marshalling layer and the resumable VM.
func FuzzCompile(f *testing.F) {
	f.Add(steerSrc)
	f.Add("aspectdef A\nend")
	f.Add("aspectdef A\n\tapply dynamic\n\t\tdo Set('level', 1);\n\tend\nend")
	f.Add("aspectdef A\n\tcall A();\nend")
	f.Add("aspectdef A\n\tapply\n\t\tdo Set('level', latency.p95 && x || !y - 2);\n\tend\nend")
	f.Add("aspectdef A\n\tselect fCall end\nend")
	f.Add("aspectdef A\n\tapply\n\t\tinsert before %{x();}%;\n\tend\nend")
	f.Add("aspectdef")
	f.Add("")
	f.Add("\x00\xff'unterminated")
	f.Add("aspectdef A\n\tinput " + strings.Repeat("x,", 100) + "y end\nend")

	f.Fuzz(func(t *testing.T, src string) {
		p, err := Compile(src)
		if err != nil {
			if _, ok := err.(*CompileError); !ok {
				t.Fatalf("Compile error is %T, want *CompileError", err)
			}
			return
		}
		oneShot, cycles, _ := decideOnce(t, p, math.MaxInt64)
		if sliced, _, _ := decideOnce(t, p, 7); sliced != oneShot {
			t.Fatalf("sliced decision %s, one-shot %s", sliced, oneShot)
		}
		if cycles > sliceCycles {
			return
		}
		if first, _, calls := decideOnce(t, p, 0); calls != 1 || first != oneShot {
			t.Fatalf("a %d-cycle decision took %d Decide calls, outcome %s; one-shot %s", cycles, calls, first, oneShot)
		}
	})
}

// decideOnce runs one decision of a fresh instance of p until it leaves
// flight, and renders its outcome with the cycles it ran and the Decide
// calls it took. A positive slice sets the cycles per Decide and lifts
// the deadline, so a long decision is honoured; 0 keeps the policy's
// defaults. A quarantine panic (fuel, depth) is valid runtime
// behaviour, not a front-door bug: it is the outcome.
func decideOnce(t *testing.T, p *Program, slice int64) (out string, cycles int64, calls int) {
	pol, err := New(p, Options{})
	if err != nil {
		t.Fatalf("New on compiled program: %v", err)
	}
	if slice > 0 {
		pol.deadline, pol.slice = math.MaxInt, slice
	}
	defer func() {
		if r := recover(); r != nil {
			out, cycles = fmt.Sprintf("panic %v after %d cycles", r, pol.vm.Cycles), pol.vm.Cycles
		}
	}()
	for {
		calls++
		cfg, ok := pol.Decide(monitor.Decision{Adapt: true, Violation: 1}, map[string]monitor.Summary{
			"latency": {Count: 1, Mean: 1, P95: 1},
		})
		if !pol.inflight {
			return fmt.Sprintf("%v %v after %d cycles", cfg, ok, pol.vm.Cycles), pol.vm.Cycles, calls
		}
	}
}
