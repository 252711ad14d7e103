// Remote serving demo: the adaptation kernel as a multi-tenant HTTP
// service, driven purely through the controlplane client — the Fig. 1
// control loops closed over the network instead of in-process.
//
// Two tenants register over HTTP. "steady" meets its latency SLA;
// "bursty" violates it and walks down its declared level ladder (the
// built-in step-down policy), shedding epoch work. Then "steady"
// detaches while the kernel keeps running — the membership epoch drains
// it at an epoch boundary without stalling "bursty".
//
//	go run ./examples/remote                 # self-hosted: in-process server
//	go run ./examples/remote -connect URL    # drive an external antarex-serve
//	go run ./examples/remote -stream         # telemetry over the binary stream
//	go run ./examples/remote -dsl            # bursty steered by a compiled DSL policy
//
// With -stream, observations ride the persistent binary ingest
// connection (POST /v1/stream via Client.Stream) instead of one JSON
// POST per batch — the protocol built to close K5's ~20× serving tax —
// and the tenants get "-bin" name suffixes so both modes can run
// against one server. With -dsl, bursty's step-down ladder is replaced
// by a DSL aspect compiled server-side to a VM-backed kernel policy
// ({"policy": {"type": "dsl", ...}}), and once it adapts the program is
// hot-swapped live via PUT /v1/apps/{id}/policy (tenants get "-dsl"
// suffixes). With -connect the program doubles as an end-to-end smoke
// check (CI runs it against a freshly started cmd/antarex-serve, in
// all modes): any failed assertion exits non-zero.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"time"

	"repro/internal/controlplane"
	"repro/internal/monitor"
	"repro/internal/rtrm"
	"repro/internal/runtime"
	"repro/internal/simhpc"
)

func main() {
	connect := flag.String("connect", "", "control-plane URL (empty: start an in-process server)")
	useStream := flag.Bool("stream", false, "send telemetry over the persistent binary stream instead of JSON POSTs")
	useDSL := flag.Bool("dsl", false, "steer bursty with a compiled DSL policy and hot-swap it live, instead of the level ladder")
	flag.Parse()
	log.SetFlags(0)

	base := *connect
	if base == "" {
		var shutdown func()
		base, shutdown = selfHost()
		defer shutdown()
		log.Printf("in-process control plane on %s", base)
	}
	c := controlplane.NewClient(base, nil)

	h, err := c.Health()
	must(err)
	if h.Status != "ok" || !h.Running {
		log.Fatalf("unhealthy control plane: %+v", h)
	}
	gen0 := h.Generation

	// Distinct tenant names per mode, so the JSON, stream and DSL runs
	// can drive the same server back to back (CI does).
	tenant := func(name string) string {
		if *useStream {
			name += "-bin"
		}
		if *useDSL {
			name += "-dsl"
		}
		return name
	}
	steadyName, burstyName := tenant("steady"), tenant("bursty")

	// Register the two tenants.
	_, err = c.Register(controlplane.AppSpec{
		Name:     steadyName,
		Goals:    []controlplane.GoalSpec{{Metric: monitor.MetricLatency, Target: 1.0}},
		Workload: controlplane.WorkloadSpec{Tasks: 2, GFlop: 4},
	})
	must(err)
	burstySpec := controlplane.AppSpec{
		Name:     burstyName,
		Window:   8,
		Debounce: 2,
		Goals:    []controlplane.GoalSpec{{Metric: monitor.MetricLatency, Target: 1.0}},
		Workload: controlplane.WorkloadSpec{Tasks: 2, GFlop: 4},
	}
	if *useDSL {
		// The same shedding behaviour as the ladder, but programmed: an
		// aspect compiled server-side at admission; each firing decision
		// multiplies the level knob by gain.
		burstySpec.Policy = &controlplane.PolicySpec{
			Type: controlplane.PolicyDSL,
			Source: `
aspectdef Steer
	input gain end
	apply
		do Scale('level', gain);
	end
	condition violation > 0 end
end
`,
			Params: map[string]float64{"gain": 0.5},
		}
	} else {
		burstySpec.Policy = &controlplane.PolicySpec{
			Type:   controlplane.PolicyLadder,
			Levels: []float64{1, 0.5, 0.25},
		}
	}
	burstyStatus, err := c.Register(burstySpec)
	must(err)
	if *useDSL {
		p := burstyStatus.Policy
		if p == nil || p.Type != controlplane.PolicyDSL {
			log.Fatalf("registered dsl policy not reported: %+v", p)
		}
		log.Printf("compiled dsl policy for %s: %s (fuel budget %d, deadline %d ticks)",
			burstyName, p.SourceHash, p.FuelBudget, p.DecisionDeadlineTicks)
	}
	log.Printf("registered tenants %s + %s (membership epoch %d -> %d)", steadyName, burstyName, gen0, mustGen(c))

	// Stream observations: steady within SLA, bursty far beyond it —
	// either one JSON POST per batch, or buffered frames on the one
	// long-lived binary stream.
	var ow *controlplane.ObservationWriter
	if *useStream {
		ow, err = c.Stream()
		must(err)
		log.Printf("binary observation stream open (POST /v1/stream)")
	}
	var sent int64
	stream := func(name string, lat float64) {
		if ow != nil {
			must(ow.Observe(name, monitor.MetricLatency, lat))
			must(ow.Observe(name, monitor.MetricLatency, lat))
			must(ow.Flush())
		} else {
			_, err := c.Observe(name, []controlplane.Observation{
				{Metric: monitor.MetricLatency, Value: lat},
				{Metric: monitor.MetricLatency, Value: lat},
			})
			must(err)
		}
		sent += 2
	}
	deadline := time.Now().Add(30 * time.Second)
	var bursty controlplane.AppStatus
	for {
		stream(steadyName, 0.3)
		stream(burstyName, 4.0)
		bursty, err = c.App(burstyName)
		must(err)
		if bursty.Adaptations > 0 && bursty.Level < 1 {
			break
		}
		if time.Now().After(deadline) {
			log.Fatalf("bursty never adapted: %+v", bursty)
		}
		time.Sleep(5 * time.Millisecond)
	}
	log.Printf("bursty adapted: level %.2f after %d ticks, %d fires (shedding %d%% of its work)",
		bursty.Level, bursty.Ticks, bursty.Fires, int(100*(1-bursty.Level)))

	if *useDSL {
		// Hot-swap the steering program live (PUT /v1/apps/{id}/policy):
		// the replacement pins the level to a recovery floor, and the
		// swap lands at a generation boundary without dropping the
		// tenant's pending observations, windows or totals.
		swapped, err := c.PutPolicy(burstyName, controlplane.PolicySpec{
			Type: controlplane.PolicyDSL,
			Source: `
aspectdef Recover
	apply
		do Set('level', 0.75);
	end
	condition violation > 0 end
end
`,
		})
		must(err)
		if swapped.Policy == nil || swapped.Policy.Swaps != 1 {
			log.Fatalf("hot-swap not recorded: %+v", swapped.Policy)
		}
		if swapped.Samples < bursty.Samples || swapped.Ticks < bursty.Ticks {
			log.Fatalf("hot-swap dropped history: samples %d->%d ticks %d->%d",
				bursty.Samples, swapped.Samples, bursty.Ticks, swapped.Ticks)
		}
		for {
			stream(burstyName, 4.0)
			st, err := c.App(burstyName)
			must(err)
			if st.Level == 0.75 {
				log.Printf("policy hot-swapped live: %s now holds level %.2f (swap #%d, no observations dropped)",
					burstyName, st.Level, swapped.Policy.Swaps)
				break
			}
			if time.Now().After(deadline) {
				log.Fatalf("swapped policy never took over: %+v", st)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	// Live detach: steady leaves while epochs keep flowing. In stream
	// mode, close the stream first — Close returns only after the
	// server has consumed every flushed frame, so no in-flight steady
	// frame can race the detach (a frame for a detached app would kill
	// the stream with 404) — then reopen for the survivor.
	var acked int64
	if ow != nil {
		ack, err := ow.Close()
		must(err)
		acked += ack.Accepted
		ow, err = c.Stream()
		must(err)
	}
	ep0, err := c.Epochs()
	must(err)
	must(c.Detach(steadyName))
	// Watch the settle and the survivor's progress over the server-sent
	// epoch event feed (GET /v1/epochs/stream) instead of polling
	// /v1/epochs: each event carries the full EpochsStatus, so one
	// subscription covers the generation settling AND the survivor's
	// epochs advancing.
	settleCtx, settleCancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer settleCancel()
	var last controlplane.EpochsStatus
	err = c.StreamEpochs(settleCtx, 5*time.Millisecond, func(ep controlplane.EpochsStatus) bool {
		last = ep
		if ep.ServedGeneration != ep.Generation {
			return true // membership change not yet served
		}
		if ep.Epochs < ep0.Epochs+10 || ep.TotalsPerApp[burstyName] <= ep0.TotalsPerApp[burstyName] {
			stream(burstyName, 4.0)
			return true // survivor still warming through the roll
		}
		return false // settled and progressing: done watching
	})
	if err != nil {
		log.Fatalf("epoch event stream ended early (last %+v): %v", last, err)
	}
	if _, err := c.App(steadyName); !controlplane.IsNotFound(err) {
		log.Fatalf("detached tenant still served: %v", err)
	}
	if last.TotalsPerApp[steadyName] <= 0 {
		log.Fatal("steady's cumulative totals were dropped on detach")
	}
	log.Printf("%s detached live at epoch %d; %s kept running: epoch %d, %.1f GFLOP total, %.1f J (watched over SSE)",
		steadyName, ep0.Epochs, burstyName, last.Epochs, last.TotalsPerApp[burstyName], last.EnergyJ)
	if ow != nil {
		// End the second stream and reconcile the servers' acks (both
		// streams) with what was sent — the streamed path's delivery
		// assertion.
		ack, err := ow.Close()
		must(err)
		acked += ack.Accepted
		if acked != sent {
			log.Fatalf("streams acked %d of %d sent samples", acked, sent)
		}
		log.Printf("streams closed: %d samples acked across both connections", acked)
	}
	fmt.Println("remote serving demo: OK")
}

// selfHost spins up the whole serving stack in-process: cluster,
// manager, kernel (started empty) and the control plane on a loopback
// listener — the same wiring as cmd/antarex-serve, minus the process.
func selfHost() (base string, shutdown func()) {
	rng := simhpc.NewRNG(7)
	cluster := simhpc.NewCluster(4, 22, func(i int) *simhpc.Node {
		return simhpc.HomogeneousNode(fmt.Sprintf("n%d", i), 0.1, rng)
	})
	kernel := runtime.NewKernel(rtrm.NewManager(cluster, cluster.FacilityPowerW(1)*0.9))
	ctx, cancel := context.WithCancel(context.Background())
	if err := kernel.Start(ctx, runtime.Options{Flush: 5 * time.Millisecond}); err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{Handler: controlplane.NewServer(kernel)}
	go func() { _ = srv.Serve(ln) }()
	return "http://" + ln.Addr().String(), func() {
		_ = srv.Close()
		cancel()
		kernel.Stop()
	}
}

func mustGen(c *controlplane.Client) int64 {
	h, err := c.Health()
	must(err)
	return h.Generation
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
