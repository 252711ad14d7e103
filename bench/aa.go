package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// benchmarkFile is the part of BENCHMARK.json the A/A mode reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

func readBenchmarkFile(root string) (*benchmarkFile, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}

// runAA runs n back-to-back sets of every workload on the one built
// binary — set i on seed+i, as the driver varies the seed between its
// runs — and prints, per workload and end-to-end metric, the minimum,
// median, maximum and relative spread (interquartile distance over
// median) as a Markdown table. It fails when a spread exceeds the
// metric's bound in BENCHMARK.json, or when any run failed its checks.
// bench/AA.md is this output, and is where the bounds come from.
func runAA(e *env, n int, seed uint64, seconds float64) error {
	bf, err := readBenchmarkFile(e.root)
	if err != nil {
		return err
	}
	values := map[string]map[string][]float64{} // workload → metric → one value per set
	ok := true
	for set := 0; set < n; set++ {
		for _, w := range workloadNames {
			m, r, err := gated(e, w, seed+uint64(set), seconds)
			if err != nil {
				return err
			}
			if !r.Correct {
				ok = false
				explain(w, m)
			}
			if values[w] == nil {
				values[w] = map[string][]float64{}
			}
			for k, v := range m.e2e {
				values[w][k] = append(values[w][k], v)
			}
			fmt.Fprintf(os.Stderr, "set %d/%d %s done\n", set+1, n, w)
		}
	}
	fmt.Printf("%d sets, seeds %d..%d, %g s each, server GOMAXPROCS %d\n\n", n, seed, seed+uint64(n)-1, seconds, e.gomaxprocs)
	fmt.Println("| workload | metric | unit | min | median | max | spread | bound | |")
	fmt.Println("|---|---|---|---|---|---|---|---|---|")
	for _, w := range workloadNames {
		for _, d := range bf.EndToEnd {
			v := sortedCopy(values[w][d.Name])
			if len(v) == 0 {
				return fmt.Errorf("%s reported no %s", w, d.Name)
			}
			spread := relSpread(v)
			verdict := ""
			if spread > d.Bound {
				verdict = "over"
				if d.Name != "setup_s" { // the driver exempts setup_s's spread
					ok = false
				}
			}
			fmt.Printf("| %s | %s | %s | %.5g | %.5g | %.5g | %.3f | %.2f | %s |\n",
				w, d.Name, d.Unit, v[0], percentile(v, 50), v[len(v)-1], spread, d.Bound, verdict)
		}
	}
	if !ok {
		return fmt.Errorf("a run failed its checks or a spread exceeds its bound")
	}
	return nil
}
