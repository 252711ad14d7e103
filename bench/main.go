// Command bench is the observe→actuate benchmark: four named workloads
// driven against a real antarex-serve child process from the client
// side of its HTTP plane, plus — in the traced run — a walk through
// each package's public functions that attributes the end-to-end
// latency layer by layer. See README.md in this directory.
//
//	bash bench/run.sh --workload react_paced --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --all --seed 1          # every workload, gated and traced numbers
//	bash bench/run.sh --aa 5 --seed 1         # five back-to-back sets, spread per metric
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line a run prints, exactly these keys.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// newReport is a measurement's result line over one of the two metric
// catalogues.
func newReport(m *measurement, defs []metricDef, values map[string]float64) report {
	r := report{Correct: m.failed == 0, Attempted: m.attempted, Failed: m.failed, Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		r.Metrics[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
	}
	return r
}

// gated runs one workload with tracing off and reports the end-to-end
// metrics.
func gated(e *env, workload string, seed uint64, seconds float64) (*measurement, report, error) {
	m, err := e.runWorkload(workload, seed, seconds, nil)
	if err != nil {
		return nil, report{}, err
	}
	return m, newReport(m, endToEnd, m.e2e), nil
}

// traced is the separate traced run: the workload once with tracing off
// and once with spans recorded around the bench's own calls, each for
// half the time, then the in-process layer walk. It reports the
// per-layer metrics and writes the spans to bench/out.
func traced(e *env, workload string, seed uint64, seconds float64) (*measurement, report, error) {
	host := calibrateHost()
	plain, err := e.runWorkload(workload, seed, seconds/2, nil)
	if err != nil {
		return nil, report{}, err
	}
	tr := newTracer()
	m, err := e.runWorkload(workload, seed, seconds/2, tr)
	if err != nil {
		return nil, report{}, err
	}
	if base := plain.e2e["react_p50_ms"]; base > 0 {
		m.layer["trace.overhead_frac"] = (m.e2e["react_p50_ms"] - base) / base
	}
	for k, v := range host {
		m.layer[k] = v
	}
	p, err := generate(workload, seed, seconds/2)
	if err != nil {
		return nil, report{}, err
	}
	if err := layerWalk(e, p, tr, m); err != nil {
		return nil, report{}, fmt.Errorf("layer walk: %w", err)
	}
	out := filepath.Join(e.root, "bench", "out", workload+".trace.jsonl")
	if err := tr.writeJSONL(out); err != nil {
		return nil, report{}, err
	}
	printTable(workload, tr, m, out)
	m.attempted += plain.attempted
	m.failed += plain.failed
	m.invalid = m.invalid || plain.invalid
	m.notes = append(m.notes, plain.notes...)
	return m, newReport(m, perLayer, m.layer), nil
}

// printTable prints the per-layer table beside the end-to-end numbers
// it was traced under.
func printTable(workload string, tr *tracer, m *measurement, path string) {
	fmt.Printf("# %s: per-layer self time (%d spans, written to %s)\n", workload, len(tr.spans), path)
	fmt.Printf("# %-32s %8s %12s %12s %12s\n", "span", "count", "self p50", "self p99", "self total")
	for _, row := range tr.table() {
		fmt.Printf("# %-32s %8d %12v %12v %12v\n", row.Name, row.Count, row.P50, row.P99, time.Duration(row.TotalNS))
	}
	fmt.Printf("# react.p50_ms %.4f (this traced pass) = walk.sum_ms %.4f + walk.unattributed_ms %.4f; trace.overhead_frac %.4f\n",
		m.layer["react.p50_ms"], m.layer["walk.sum_ms"], m.layer["walk.unattributed_ms"], m.layer["trace.overhead_frac"])
}

// explain prints what a human wants to know beyond the result line:
// validity, sample counts, what failed.
func explain(workload string, m *measurement) {
	fmt.Printf("# %s: valid %v, %d attempted, %d failed, %d probes visible (highest percentile they support: p%g)\n",
		workload, !m.invalid, m.attempted, m.failed, int(m.layer["react.samples"]), m.layer["react.highest_pct"])
	for _, n := range m.notes {
		fmt.Printf("#   %s\n", n)
	}
}

func emit(r report) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func run() error {
	var (
		root     = flag.String("root", ".", "checkout root (holds BENCHMARK.json, go.mod and cmd/)")
		workload = flag.String("workload", "", "one of "+strings.Join(workloadNames, ", "))
		seed     = flag.Uint64("seed", 1, "seed of every generated input")
		seconds  = flag.Float64("seconds", 20, "how long one run measures")
		trace    = flag.Int("trace", 0, "1: the traced run (per-layer metrics), 0: the gated run (end-to-end metrics)")
		all      = flag.Bool("all", false, "run every workload, gated then traced")
		aa       = flag.Int("aa", 0, "run N back-to-back sets of every workload and report each metric's spread")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	e, err := newEnv(*root)
	if err != nil {
		return err
	}
	defer e.cleanup()

	switch {
	case *aa > 0:
		return runAA(e, *aa, *seed, *seconds)
	case *all:
		ok := true
		for _, w := range workloadNames {
			m, r, err := gated(e, w, *seed, *seconds)
			if err != nil {
				return err
			}
			explain(w, m)
			tm, tr, err := traced(e, w, *seed, *seconds)
			if err != nil {
				return err
			}
			explain(w+" (traced)", tm)
			for k, v := range tr.Metrics {
				r.Metrics[k] = v
			}
			r.Attempted += tr.Attempted
			r.Failed += tr.Failed
			r.Correct = r.Correct && tr.Correct
			ok = ok && r.Correct
			fmt.Printf("%s ", w)
			if err := emit(r); err != nil {
				return err
			}
		}
		if !ok {
			return fmt.Errorf("a workload failed its checks")
		}
		return nil
	case *workload != "":
		var (
			m *measurement
			r report
		)
		if *trace != 0 {
			m, r, err = traced(e, *workload, *seed, *seconds)
		} else {
			m, r, err = gated(e, *workload, *seed, *seconds)
		}
		if err != nil {
			return err
		}
		explain(*workload, m)
		return emit(r)
	}
	return fmt.Errorf("name a -workload, or -all, or -aa N")
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}
