package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand/v2"

	"repro/internal/controlplane"
	"repro/internal/controlplane/wire"
	"repro/internal/runtime"
)

// Workload names, in the order -all and -aa run them.
const (
	wReact    = "react_paced"
	wSaturate = "saturate_1k"
	wIngest   = "ingest"
	wChurn    = "churn_wal"
)

var workloadNames = []string{wReact, wSaturate, wIngest, wChurn}

// slaTarget is the "latency at_most" goal every fed tenant carries:
// in-SLA samples sit well below it, violating ones well above.
const slaTarget = 1.0

// Probe-tenant policies. A ladder probe tenant walks a 64-level ladder
// that alternates 0 and 1, so every firing flips its workload between
// "offers nothing" and "offers work" — the flip to 1 is what the SSE
// feed makes visible. The DSL probe tenant does the same through the
// VM: the violating sample's value becomes the level.
const (
	probeLadderLen = 64
	probeDSL       = `
aspectdef Probe
	apply
		do Set('level', token.mean);
	end
	condition violation > 0 end
end
`
	// hotDSL keeps the VM decide path busy on saturate_1k: a metric
	// read, arithmetic and one knob write per decision (the DSL has + and - only).
	hotDSL = `
aspectdef Hot
	input gain end
	apply
		do Set('level', gain + latency.max - latency.mean);
	end
	condition violation > 0 end
end
`
	// churnDSLA/B are the admission-time policy of a churned DSL tenant
	// and the one PutPolicy swaps in; they differ so the recovered
	// source hash says which one is live.
	churnDSLA = `
aspectdef Shed
	input gain end
	apply
		do Scale('level', gain);
	end
	condition violation > 0 end
end
`
	churnDSLB = `
aspectdef Recover
	apply
		do Set('level', 1);
	end
	condition violation > 0 end
end
`
)

// feedPlan is one pre-encoded binary observation stream: Cold defines
// every app and metric name once (the stream's dictionaries), Warm are
// the steady-state frames sent round-robin afterwards.
type feedPlan struct {
	Cold            []byte
	Warm            [][]byte
	SamplesPerFrame int
	// PerSec is the paced sample rate; 0 means closed loop (as fast as
	// the connection takes them).
	PerSec float64
}

// probeTenantPlan is one react_paced probe tenant.
type probeTenantPlan struct {
	Name string
	DSL  bool
}

// churnItem is one tenant a churn client cycles: registered with Spec,
// swapped to Swap, later detached.
type churnItem struct {
	Spec controlplane.AppSpec
	Swap controlplane.PolicySpec
}

// plan is everything one run feeds the server, generated from the seed
// alone. The server sees only this.
type plan struct {
	Workload string
	Seed     uint64
	// ServeArgs are deployment flags only (-backends, -interval; the
	// harness adds -addr and -data-dir). Never an engine selector: the
	// bench measures whatever engine the server defaults to.
	ServeArgs []string
	Durable   bool
	Backends  int
	Tenants   []controlplane.AppSpec

	Feed       *feedPlan // paced or closed-loop binary stream
	JSONPaths  []string  // ingest phase B: POST target per body
	JSONBodies [][]byte  // ingest phase B: pre-marshalled 128-sample batches
	// The shared foreground: probe tenants (registered with Tenants), the
	// open-loop rate, and which tenant each slot probes.
	Probes       []probeTenantPlan
	ProbesPerSec int
	ProbeOrder   []int
	ProbeJitter  []float64     // where in its slot each probe is due, in [0, 1)
	Churn        [][]churnItem // churn_wal: one pool per client
}

func newRNG(workload string, seed uint64) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(workload))
	return rand.New(rand.NewPCG(seed, h.Sum64()))
}

// namer hands out unique tenant names with a seeded suffix.
type namer struct {
	rng  *rand.Rand
	used map[string]bool
}

func (n *namer) name(prefix string) string {
	for {
		s := fmt.Sprintf("%s-%05x", prefix, n.rng.IntN(1<<20))
		if !n.used[s] {
			n.used[s] = true
			return s
		}
	}
}

func fedGoal() []controlplane.GoalSpec {
	return []controlplane.GoalSpec{{Metric: "latency", Target: slaTarget}}
}

// smallWorkload draws the task count and volume from small ranges. At
// least two tasks: the manager's admit-fraction floor can defer a
// single-task app forever.
func smallWorkload(rng *rand.Rand) controlplane.WorkloadSpec {
	return controlplane.WorkloadSpec{Tasks: 2 + rng.IntN(3), GFlop: float64(1 + rng.IntN(4))}
}

// shedLadder is a descending ladder of 2-4 levels.
func shedLadder(rng *rand.Rand) *controlplane.PolicySpec {
	levels := []float64{1, 0.5, 0.25, 0.125}[:2+rng.IntN(3)]
	return &controlplane.PolicySpec{Type: controlplane.PolicyLadder, Levels: levels}
}

func ladderTenant(rng *rand.Rand, name string) controlplane.AppSpec {
	return controlplane.AppSpec{Name: name, Goals: fedGoal(), Workload: smallWorkload(rng), Policy: shedLadder(rng)}
}

var feedMetrics = []string{"latency", "queue", "util", "power"}

// encodeFeed pre-encodes one frame per tenant on a fresh stream
// encoder, twice: the first pass carries the dictionary definitions,
// the second is the warm steady state. value draws each sample.
func encodeFeed(names []string, metrics []string, perMetric int, perSec float64, value func() float64) (*feedPlan, error) {
	enc := wire.NewEncoder()
	fp := &feedPlan{SamplesPerFrame: len(metrics) * perMetric, PerSec: perSec}
	samples := make([]runtime.Sample, 0, fp.SamplesPerFrame)
	for pass := 0; pass < 2; pass++ {
		for _, name := range names {
			samples = samples[:0]
			for _, m := range metrics {
				for i := 0; i < perMetric; i++ {
					samples = append(samples, runtime.Sample{Metric: m, Value: value()})
				}
			}
			if pass == 0 {
				var err error
				if fp.Cold, err = enc.AppendFrame(fp.Cold, name, samples); err != nil {
					return nil, err
				}
				continue
			}
			frame, err := enc.AppendFrame(nil, name, samples)
			if err != nil {
				return nil, err
			}
			fp.Warm = append(fp.Warm, frame)
		}
	}
	return fp, nil
}

func inSLA(rng *rand.Rand) func() float64 {
	return func() float64 { return 0.2 + 0.6*rng.Float64() }
}

func violating(rng *rand.Rand) func() float64 {
	return func() float64 { return 1.5 + 1.5*rng.Float64() }
}

func names(specs []controlplane.AppSpec) []string {
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.Name
	}
	return out
}

// generate builds the plan of one workload from the seed. seconds sizes
// the schedules that depend on the run length (the probe order).
func generate(workload string, seed uint64, seconds float64) (*plan, error) {
	rng := newRNG(workload, seed)
	nm := &namer{rng: rng, used: map[string]bool{}}
	p := &plan{Workload: workload, Seed: seed, Backends: 1}
	probed := seconds // how long the probe schedule runs
	var err error
	switch workload {
	case wReact:
		// Shipped pacing, one backend: the loop as a tenant experiences it.
		for i := 0; i < 64; i++ {
			p.Tenants = append(p.Tenants, ladderTenant(rng, nm.name("bg")))
		}
		if p.Feed, err = encodeFeed(names(p.Tenants), feedMetrics, 32, 100_000, inSLA(rng)); err != nil {
			return nil, err
		}
		p.ProbesPerSec = 100
	case wSaturate:
		// Unpaced epochs over two backends: the kernel engine does the work.
		p.ServeArgs = []string{"-interval", "0", "-backends", "2"}
		p.Backends = 2
		for i := 0; i < 768; i++ {
			p.Tenants = append(p.Tenants, ladderTenant(rng, nm.name("q")))
		}
		var hot []string
		for i := 0; i < 256; i++ {
			spec := controlplane.AppSpec{Name: nm.name("hot"), Window: 8, Debounce: 1, Goals: fedGoal(),
				Workload: smallWorkload(rng),
				Policy: &controlplane.PolicySpec{Type: controlplane.PolicyDSL, Source: hotDSL,
					Params: map[string]float64{"gain": 0.05 * float64(1+rng.IntN(4))}}}
			p.Tenants = append(p.Tenants, spec)
			hot = append(hot, spec.Name)
		}
		// Four samples a frame: every frame fires its tenant's policy once,
		// so 100 k samples/s keep the VM deciding 25 k times a second.
		if p.Feed, err = encodeFeed(hot, feedMetrics[:1], 4, 100_000, violating(rng)); err != nil {
			return nil, err
		}
	case wIngest:
		// Shipped pacing: decode, handler and inbox work, the engine idles.
		p.ProbesPerSec = 100
		probed = seconds / 2 // only the JSON phase is probed
		for i := 0; i < 64; i++ {
			spec := ladderTenant(rng, nm.name("in"))
			if i%4 == 0 {
				// Far above any tenant's share: charged, never refusing.
				spec.Quota = &controlplane.QuotaSpec{Rate: 1e9, Burst: 1e9}
			}
			p.Tenants = append(p.Tenants, spec)
		}
		draw := inSLA(rng)
		if p.Feed, err = encodeFeed(names(p.Tenants), feedMetrics, 32, 0, draw); err != nil {
			return nil, err
		}
		for _, t := range p.Tenants {
			var batch controlplane.ObservationBatch
			for _, m := range feedMetrics {
				for i := 0; i < 32; i++ {
					batch.Samples = append(batch.Samples, controlplane.Observation{Metric: m, Value: draw()})
				}
			}
			body, err := json.Marshal(batch)
			if err != nil {
				return nil, err
			}
			p.JSONPaths = append(p.JSONPaths, "/v1/apps/"+t.Name+"/observations")
			p.JSONBodies = append(p.JSONBodies, body)
		}
	case wChurn:
		// Journaled plane: durable, policyc.Compile and the generation
		// roll are on the blocking path of every mutation.
		p.ServeArgs = []string{"-backends", "2"}
		p.Backends = 2
		p.Durable = true
		probed = seconds * churnShare // the kill and restart rounds are not probed
		for i := 0; i < 256; i++ {
			p.Tenants = append(p.Tenants, ladderTenant(rng, nm.name("res")))
		}
		if p.Feed, err = encodeFeed(names(p.Tenants), feedMetrics, 32, 50_000, inSLA(rng)); err != nil {
			return nil, err
		}
		for c := 0; c < churnClients; c++ {
			var pool []churnItem
			for i := 0; i < churnPool; i++ {
				it := churnItem{Spec: controlplane.AppSpec{Name: nm.name(fmt.Sprintf("c%d", c)), Goals: fedGoal(), Workload: smallWorkload(rng)}}
				if i%2 == 0 { // every other one is DSL, compiled at admission
					it.Spec.Policy = &controlplane.PolicySpec{Type: controlplane.PolicyDSL, Source: churnDSLA,
						Params: map[string]float64{"gain": 0.5 + 0.1*float64(rng.IntN(4))}}
					it.Swap = controlplane.PolicySpec{Type: controlplane.PolicyDSL, Source: churnDSLB}
				} else {
					it.Spec.Policy = shedLadder(rng)
					it.Swap = controlplane.PolicySpec{Type: controlplane.PolicyLadder, Levels: []float64{1, 0.75, 0.5}}
				}
				pool = append(pool, it)
			}
			p.Churn = append(p.Churn, pool)
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (one of %v)", workload, workloadNames)
	}
	if p.ProbesPerSec == 0 {
		// Half react_paced's rate beside a closed-loop load: the pacer's
		// spin-wait and the feed scan are generator CPU the server also wants.
		p.ProbesPerSec = 50
	}
	addProbes(p, rng, nm, probed)
	return p, nil
}

// addProbes appends the 64 probe tenants (window 1, debounce 1: one
// violating sample fires once) and the probe schedule: slots alternate
// ladder and DSL tenants, each kind walking its own seeded permutation.
func addProbes(p *plan, rng *rand.Rand, nm *namer, seconds float64) {
	alternating := make([]float64, probeLadderLen)
	for i := range alternating {
		alternating[i] = float64(i % 2)
	}
	const nLadder, nDSL = 56, 8
	for i := 0; i < nLadder+nDSL; i++ {
		spec := controlplane.AppSpec{Window: 1, Debounce: 1,
			Workload: controlplane.WorkloadSpec{Tasks: 2, GFlop: float64(1 + rng.IntN(4))}}
		dsl := i >= nLadder
		if dsl {
			spec.Name = nm.name("pd")
			// at_least 2: both the probe value 1 and the reset value 0
			// violate, and token.mean carries the commanded level.
			spec.Goals = []controlplane.GoalSpec{{Metric: "token", Relation: "at_least", Target: 2}}
			spec.Policy = &controlplane.PolicySpec{Type: controlplane.PolicyDSL, Source: probeDSL}
		} else {
			spec.Name = nm.name("pl")
			spec.Goals = []controlplane.GoalSpec{{Metric: "token", Target: 0.5}}
			spec.Policy = &controlplane.PolicySpec{Type: controlplane.PolicyLadder, Levels: alternating}
		}
		p.Tenants = append(p.Tenants, spec)
		p.Probes = append(p.Probes, probeTenantPlan{Name: spec.Name, DSL: dsl})
	}
	ladder, dsl := rng.Perm(nLadder), rng.Perm(nDSL)
	for s := 0; s < int(seconds*float64(p.ProbesPerSec)); s++ {
		if s%2 == 0 {
			p.ProbeOrder = append(p.ProbeOrder, ladder[(s/2)%nLadder])
		} else {
			p.ProbeOrder = append(p.ProbeOrder, nLadder+dsl[(s/2)%nDSL])
		}
		p.ProbeJitter = append(p.ProbeJitter, rng.Float64())
	}
}

// bytes is the plan's canonical serialization; the determinism test
// compares two of them.
func (p *plan) bytes() ([]byte, error) { return json.Marshal(p) }
