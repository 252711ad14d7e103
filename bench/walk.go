package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	goruntime "runtime"
	"sync"

	"repro/internal/autotune"
	"repro/internal/controlplane"
	"repro/internal/controlplane/wire"
	"repro/internal/durable"
	"repro/internal/monitor"
	"repro/internal/policyc"
	"repro/internal/runtime"
	"repro/internal/simhpc"
)

// The layer walk rebuilds the run's generated tenants in-process from
// the packages' public constructors and pushes the same frames, probes
// and mutations through each layer's public functions one call at a
// time, one span per call. It is the per-layer half of the traced run:
// what each layer costs when nothing else is in the way, to set beside
// the end-to-end latency that was measured through the real server.

// walker records the walk's spans under one root.
type walker struct {
	tr   *tracer
	root int64
}

// call times one call into a layer.
func (w *walker) call(name string, fn func()) {
	sp := w.tr.begin(name, w.root, w.root)
	fn()
	w.tr.end(sp)
}

// splitFrames cuts a concatenation of length-prefixed frames into the
// frames' payloads (what wire.Decoder.Decode takes).
func splitFrames(blob []byte) [][]byte {
	var out [][]byte
	for len(blob) > 0 {
		n, k := binary.Uvarint(blob)
		if k <= 0 || int(n) > len(blob)-k {
			return out
		}
		out = append(out, blob[k:k+int(n)])
		blob = blob[k+int(n):]
	}
	return out
}

// serve runs one request through the in-process server.
func serve(srv http.Handler, method, path, ctype string, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	return rec
}

// firstDSL is the DSL source the workload's tenants run, or the probe
// policy when it has none.
func firstDSL(p *plan) string {
	for _, t := range p.Tenants {
		if t.Policy != nil && t.Policy.Type == controlplane.PolicyDSL {
			return t.Policy.Source
		}
	}
	for _, pool := range p.Churn {
		for _, it := range pool {
			if it.Spec.Policy.Type == controlplane.PolicyDSL {
				return it.Spec.Policy.Source
			}
		}
	}
	return probeDSL
}

// layerWalk fills m.layer with the walk's metrics. The spans go into tr
// beside the traced run's.
func layerWalk(e *env, p *plan, tr *tracer, m *measurement) error {
	w := &walker{tr: tr}
	w.root = tr.begin("walk", 0, 0)
	defer tr.end(w.root)

	// The workload's feed frame, decoded back into samples.
	var dec wire.Decoder
	for _, f := range splitFrames(p.Feed.Cold) {
		if _, _, err := dec.Decode(f); err != nil {
			return err
		}
	}
	payload := splitFrames(p.Feed.Warm[0])[0]
	app, decoded, err := dec.Decode(payload)
	if err != nil {
		return err
	}
	samples := append([]runtime.Sample(nil), decoded...)
	n := float64(len(samples))

	// controlplane/wire.
	enc := wire.NewEncoder()
	frame, err := enc.AppendFrame(nil, app, samples)
	if err != nil {
		return err
	}
	for i := 0; i < 2000; i++ {
		w.call("wire.encode", func() { frame, _ = enc.AppendFrame(frame[:0], app, samples) })
		w.call("wire.decode", func() { dec.Decode(payload) })
	}
	// One-sample frame: the shape of a react_paced probe.
	probe := []runtime.Sample{{Metric: samples[0].Metric, Value: 1}}
	probeFrame, _ := enc.AppendFrame(nil, app, probe)
	probePayload := splitFrames(probeFrame)[0]
	for i := 0; i < 2000; i++ {
		w.call("wire.decode_probe", func() { dec.Decode(probePayload) })
	}

	// controlplane: the plan's plane in-process, kernel not started, so
	// every epoch is one synchronous Kernel.RunEpoch call.
	kernel := runtime.NewKernel()
	kernel.SetPlacement(runtime.LeastLoaded{})
	var opts []controlplane.ServerOption
	var jlog *durable.Log
	if p.Durable {
		if jlog, err = durable.Open(filepath.Join(e.workDir, "walk-plane"), durable.Options{}); err != nil {
			return err
		}
		defer jlog.Close()
		opts = append(opts, controlplane.WithJournal(jlog, 0))
	}
	srv := controlplane.NewServer(kernel, opts...)
	for i := 0; i < p.Backends; i++ {
		// cmd/antarex-serve's bootstrap defaults.
		spec := controlplane.BackendSpec{Name: fmt.Sprintf("b%d", i), Nodes: 8, Hetero: true, AmbientC: 22, CapFrac: 0.9, Vary: 0.15, Seed: 42 + uint64(i)}
		if err := srv.AdmitBackend(spec); err != nil {
			return err
		}
	}
	specs := append([]controlplane.AppSpec(nil), p.Tenants...)
	for _, pool := range p.Churn {
		for _, it := range pool[:8] {
			specs = append(specs, it.Spec)
		}
	}
	tasksPerEpoch := 0
	for _, spec := range specs {
		body, err := json.Marshal(spec)
		if err != nil {
			return err
		}
		var rec *httptest.ResponseRecorder
		w.call("controlplane.register", func() { rec = serve(srv, http.MethodPost, "/v1/apps", "application/json", body) })
		if rec.Code != http.StatusCreated {
			return fmt.Errorf("in-process register %s: %d %s", spec.Name, rec.Code, rec.Body)
		}
		tasksPerEpoch += spec.Workload.Tasks
	}
	epoch := func() error {
		var err error
		w.call("kernel.run_epoch", func() { _, err = kernel.RunEpoch(60) })
		return err
	}
	if err := epoch(); err != nil {
		return err
	}

	stream := append(append([]byte(nil), p.Feed.Cold...), bytes.Join(p.Feed.Warm, nil)...)
	frames := float64(2 * len(p.Feed.Warm))
	jsonBody, err := json.Marshal(observationBatch(samples))
	if err != nil {
		return err
	}
	jsonPath := "/v1/apps/" + app + "/observations"
	for i := 0; i < 100; i++ {
		var rec *httptest.ResponseRecorder
		w.call("controlplane.observe_bin", func() { rec = serve(srv, http.MethodPost, "/v1/stream", "application/x-antarex-wire", stream) })
		if rec.Code != http.StatusOK {
			return fmt.Errorf("in-process stream: %d %s", rec.Code, rec.Body)
		}
		w.call("controlplane.observe_json", func() { rec = serve(srv, http.MethodPost, jsonPath, "application/json", jsonBody) })
		if rec.Code != http.StatusOK {
			return fmt.Errorf("in-process observe: %d %s", rec.Code, rec.Body)
		}
		if err := epoch(); err != nil { // drains every inbox
			return err
		}
	}
	var epochsBytes int
	for i := 0; i < 200; i++ {
		w.call("controlplane.epochs_render", func() { epochsBytes = serve(srv, http.MethodGet, "/v1/epochs", "", nil).Body.Len() })
		w.call("controlplane.app_status", func() { serve(srv, http.MethodGet, "/v1/apps/"+app, "", nil) })
	}
	for i := 0; i < 100; i++ {
		spec := specs[i%len(specs)]
		pol, _ := json.Marshal(spec.Policy)
		var rec *httptest.ResponseRecorder
		w.call("controlplane.put_policy", func() {
			rec = serve(srv, http.MethodPut, "/v1/apps/"+spec.Name+"/policy", "application/json", pol)
		})
		if rec.Code != http.StatusOK {
			return fmt.Errorf("in-process put policy %s: %d %s", spec.Name, rec.Code, rec.Body)
		}
	}
	for i := 0; i < 50; i++ {
		spec := specs[len(specs)-1-i%len(specs)]
		body, _ := json.Marshal(spec)
		var del, reg *httptest.ResponseRecorder
		w.call("controlplane.detach", func() { del = serve(srv, http.MethodDelete, "/v1/apps/"+spec.Name, "", nil) })
		if err := epoch(); err != nil { // the boundary that retires it
			return err
		}
		w.call("controlplane.register", func() { reg = serve(srv, http.MethodPost, "/v1/apps", "application/json", body) })
		if del.Code != http.StatusNoContent || reg.Code != http.StatusCreated {
			return fmt.Errorf("in-process detach/register %s: %d, %d %s", spec.Name, del.Code, reg.Code, reg.Body)
		}
	}

	// runtime kernel: steady epochs, their allocations, bare membership.
	for i := 0; i < 100; i++ {
		if err := epoch(); err != nil {
			return err
		}
	}
	var ms0, ms1 goruntime.MemStats
	goruntime.ReadMemStats(&ms0)
	for i := 0; i < 20; i++ {
		if _, err := kernel.RunEpoch(60); err != nil { // untraced: spans allocate
			return err
		}
	}
	goruntime.ReadMemStats(&ms1)
	m.layer["kernel.allocs_per_epoch"] = float64(ms1.Mallocs-ms0.Mallocs) / 20
	for i := 0; i < 100; i++ {
		name := fmt.Sprintf("walk-%d", i)
		w.call("kernel.attach", func() { kernel.Attach(runtime.AppSpec{Name: name}) })
		w.call("kernel.detach", func() { kernel.Detach(name) })
	}

	// runtime inbox.
	inbox := &runtime.Inbox{}
	sink := func(string, float64) {}
	for i := 0; i < 2000; i++ {
		w.call("inbox.push_batch", func() { inbox.PushBatch(samples) })
		w.call("inbox.drain", func() { inbox.Drain(sink) })
	}

	// runtime controller: a quiet tick, a tick that windows a frame, and
	// the two firing ticks (ladder and DSL) a probe causes.
	goal := []monitor.Goal{{Metric: samples[0].Metric, Relation: monitor.AtMost, Target: slaTarget}}
	fed := runtime.NewController(runtime.AppSpec{Name: "walk-fed", SLA: monitor.SLA{Goals: goal}, Sensor: inbox})
	inSLASamples := make([]runtime.Sample, len(samples))
	for i, s := range samples {
		inSLASamples[i] = runtime.Sample{Metric: s.Metric, Value: 0.5}
	}
	for i := 0; i < 2000; i++ {
		w.call("controller.tick_quiet", func() { fed.Tick() })
		inbox.PushBatch(inSLASamples)
		w.call("controller.tick_samples", func() { fed.Tick() })
	}
	src := firstDSL(p)
	prog, err := policyc.Compile(src)
	if err != nil {
		return err
	}
	metric := "latency"
	if len(prog.Refs) > 0 {
		metric = prog.Refs[0].Metric
	}
	fireGoal := monitor.SLA{Goals: []monitor.Goal{{Metric: metric, Relation: monitor.AtMost, Target: 0.5}}}
	noKnob := runtime.KnobFunc(func(autotune.Config) {})
	kp, err := policyc.New(prog, policyc.Options{Params: map[string]float64{"gain": 0.5}, KnobValue: func(string) float64 { return 1 }})
	if err != nil {
		return err
	}
	defer kp.Close()
	rungs := make([]float64, 4096)
	for i := range rungs {
		rungs[i] = float64(i % 2)
	}
	ladderIn, dslIn := &runtime.Inbox{}, &runtime.Inbox{}
	ladder := runtime.NewController(runtime.AppSpec{Name: "walk-ladder", SLA: fireGoal, Window: 1, Debounce: 1,
		Sensor: ladderIn, Policy: &runtime.LadderPolicy{Knob: "level", Rungs: rungs}, Knob: noKnob})
	dsl := runtime.NewController(runtime.AppSpec{Name: "walk-dsl", SLA: fireGoal, Window: 1, Debounce: 1,
		Sensor: dslIn, Policy: kp, Knob: noKnob})
	for i := 0; i < 2000; i++ {
		ladderIn.Push(metric, 1)
		w.call("controller.tick_fire_ladder", func() { ladder.Tick() })
		dslIn.Push(metric, 1)
		w.call("controller.tick_fire_dsl", func() { dsl.Tick() })
	}

	// monitor: 128 calls a span — one call is shorter than the clock reads
	// around it.
	const batch = 128
	win := monitor.NewWindow(32)
	set := monitor.NewSet(32)
	for _, s := range samples {
		set.Push(s.Metric, 0.5)
	}
	sums := map[string]monitor.Summary{}
	sla := monitor.SLA{Goals: goal}
	for i := 0; i < 200; i++ {
		w.call("monitor.window_push", func() {
			for j := 0; j < batch; j++ {
				win.Push(0.5)
			}
		})
		w.call("monitor.summaries", func() {
			for j := 0; j < batch; j++ {
				set.SummariesInto(sums)
			}
		})
		w.call("monitor.sla_check", func() {
			for j := 0; j < batch; j++ {
				sla.Check(sums)
			}
		})
	}

	// policyc.
	for i := 0; i < 50; i++ {
		w.call("policyc.compile", func() { policyc.Compile(src) })
	}
	decision := monitor.Decision{Adapt: true, Violation: 1}
	dsums := map[string]monitor.Summary{metric: {Count: 1, Mean: 1, Min: 1, Max: 1, P95: 1}}
	for i := 0; i < 200; i++ {
		w.call("policyc.decide", func() {
			for j := 0; j < batch; j++ {
				kp.Decide(decision, dsums)
			}
		})
	}
	m.layer["policyc.fuel_per_decision"] = float64(kp.Metrics().FuelUsedLast)

	// rtrm: the four stages of one backend's epoch at the workload's
	// tasks per backend.
	mgr := controlplane.BuildBackend(controlplane.BackendSpec{Name: "walk", Nodes: 8, Hetero: true, AmbientC: 22, CapFrac: 0.9, Vary: 0.15, Seed: 42})
	perBackend := max(tasksPerEpoch/p.Backends, 1)
	for i := 0; i < 200; i++ {
		tasks := make([]*simhpc.Task, perBackend)
		for j := range tasks {
			tasks[j] = &simhpc.Task{GFlop: 2, MemGB: 0.25, Tag: "walk"}
		}
		w.call("rtrm.begin", func() { mgr.BeginEpoch(60, tasks) })
		w.call("rtrm.sweep", func() { mgr.SweepEpoch() })
		w.call("rtrm.dispatch", func() { mgr.DispatchEpoch(1) })
		w.call("rtrm.commit", func() { mgr.CommitEpoch() })
	}

	// durable, on the checkout's disk.
	if err := walkDurable(e, w); err != nil {
		return err
	}

	// Fold the spans into the per-layer metrics.
	p50 := map[string]float64{}
	for _, row := range tr.table() {
		p50[row.Name] = float64(row.P50)
	}
	us := func(name string) float64 { return p50[name] / 1e3 }
	m.layer["wire.encode_ns_per_sample"] = p50["wire.encode"] / n
	m.layer["wire.decode_ns_per_sample"] = p50["wire.decode"] / n
	m.layer["wire.bytes_per_sample"] = float64(len(frame)) / n
	m.layer["controlplane.observe_bin_us_per_frame"] = us("controlplane.observe_bin") / frames
	m.layer["controlplane.observe_json_us_per_batch"] = us("controlplane.observe_json")
	m.layer["controlplane.epochs_render_us"] = us("controlplane.epochs_render")
	m.layer["controlplane.epochs_bytes"] = float64(epochsBytes)
	m.layer["controlplane.app_status_us"] = us("controlplane.app_status")
	m.layer["controlplane.register_us"] = us("controlplane.register")
	m.layer["controlplane.put_policy_us"] = us("controlplane.put_policy")
	m.layer["controlplane.detach_us"] = us("controlplane.detach")
	m.layer["inbox.push_batch_ns_per_sample"] = p50["inbox.push_batch"] / n
	m.layer["inbox.drain_ns_per_sample"] = p50["inbox.drain"] / n
	m.layer["controller.tick_quiet_ns"] = p50["controller.tick_quiet"]
	m.layer["controller.tick_ns_per_sample"] = (p50["controller.tick_samples"] - p50["controller.tick_quiet"]) / n
	m.layer["controller.tick_fire_ladder_ns"] = p50["controller.tick_fire_ladder"]
	m.layer["controller.tick_fire_dsl_ns"] = p50["controller.tick_fire_dsl"]
	m.layer["monitor.window_push_ns"] = p50["monitor.window_push"] / batch
	m.layer["monitor.summaries_ns"] = p50["monitor.summaries"] / batch
	m.layer["monitor.sla_check_ns"] = p50["monitor.sla_check"] / batch
	m.layer["policyc.compile_us"] = us("policyc.compile")
	m.layer["policyc.decide_ns"] = p50["policyc.decide"] / batch
	m.layer["rtrm.begin_us"] = us("rtrm.begin")
	m.layer["rtrm.sweep_us"] = us("rtrm.sweep")
	m.layer["rtrm.dispatch_us"] = us("rtrm.dispatch")
	m.layer["rtrm.commit_us"] = us("rtrm.commit")
	m.layer["kernel.run_epoch_us"] = us("kernel.run_epoch")
	stages := us("rtrm.begin") + us("rtrm.sweep") + us("rtrm.dispatch") + us("rtrm.commit")
	m.layer["kernel.overhead_us"] = us("kernel.run_epoch") - float64(len(specs))*us("controller.tick_quiet") - float64(p.Backends)*stages
	m.layer["kernel.attach_us"] = us("kernel.attach")
	m.layer["kernel.detach_us"] = us("kernel.detach")
	m.layer["durable.append_us"] = us("durable.append")
	m.layer["durable.append_2writers_us"] = us("durable.append_2writers")
	m.layer["durable.snapshot_us"] = us("durable.snapshot")
	m.layer["durable.open_us_per_record"] = us("durable.open") / walkOpenRecords

	// Attribution: the walked cost of the steps that block a probe, at
	// this workload's tenancy. What is left of the measured median is
	// pacing wait, feed throttle, network and scheduling — time no
	// layer's code spends.
	fire := (us("controller.tick_fire_ladder")+us("controller.tick_fire_dsl"))/2 - us("controller.tick_quiet")
	sumUS := us("client.encode") + us("client.flush") + us("wire.decode_probe") +
		m.layer["controlplane.observe_bin_us_per_frame"] +
		(m.layer["inbox.push_batch_ns_per_sample"]+m.layer["inbox.drain_ns_per_sample"])/1e3 +
		fire + us("kernel.run_epoch") + us("controlplane.epochs_render") + us("sse.decode")
	m.layer["walk.sum_ms"] = sumUS / 1e3
	m.layer["walk.unattributed_ms"] = m.layer["react.p50_ms"] - sumUS/1e3
	return nil
}

func observationBatch(samples []runtime.Sample) controlplane.ObservationBatch {
	var b controlplane.ObservationBatch
	for _, s := range samples {
		b.Samples = append(b.Samples, controlplane.Observation{Metric: s.Metric, Value: 0.5})
	}
	return b
}

// walkOpenRecords is how many records the reopened journal replays.
const walkOpenRecords = 256

// walkDurable times the journal alone: one writer, two writers sharing
// group commits, a snapshot, and a recovery.
func walkDurable(e *env, w *walker) error {
	dir := filepath.Join(e.workDir, "walk-wal")
	log, err := durable.Open(dir, durable.Options{})
	if err != nil {
		return err
	}
	record := bytes.Repeat([]byte("x"), 256) // about one journaled AppSpec
	var aerr error
	for i := 0; i < 100; i++ {
		w.call("durable.append", func() {
			if _, err := log.Append(1, record); err != nil {
				aerr = err
			}
		})
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				w.call("durable.append_2writers", func() {
					if _, err := log.Append(1, record); err != nil {
						mu.Lock()
						aerr = err
						mu.Unlock()
					}
				})
			}
		}()
	}
	wg.Wait()
	blob := bytes.Repeat([]byte("s"), 16<<10)
	for i := 0; i < 10; i++ {
		w.call("durable.snapshot", func() {
			if err := log.WriteSnapshot(blob); err != nil {
				aerr = err
			}
		})
	}
	for i := 0; i < walkOpenRecords; i++ {
		if _, err := log.Append(1, record); err != nil {
			aerr = err
		}
	}
	if err := log.Close(); err != nil {
		return err
	}
	for i := 0; i < 5; i++ {
		w.call("durable.open", func() { log, err = durable.Open(dir, durable.Options{}) })
		if err != nil {
			return err
		}
		if err := log.Close(); err != nil {
			return err
		}
	}
	return aerr
}
