// Command antarex-serve runs the adaptation kernel as a multi-tenant
// HTTP service: one or more simulated clusters, each under its own
// rtrm.Manager backend, the concurrent kernel started empty with a
// placement policy routing each tenant's epoch batches to a backend,
// and the controlplane API on -addr. Remote applications register,
// stream observations and detach while the kernel is running —
// membership changes, backend additions and placement migrations all
// land at epoch boundaries.
//
//	go run ./cmd/antarex-serve -addr :8077 -backends 2 -placement sla
//	curl -s localhost:8077/healthz
//	curl -s localhost:8077/v1/backends
//	curl -s -X POST localhost:8077/v1/backends -d '{"name":"edge","nodes":4,"ambient_c":30}'
//	curl -s -X DELETE localhost:8077/v1/backends/edge    # drain + remove (apps evacuate)
//	curl -s -X POST localhost:8077/v1/apps -d '{"name":"web","placement":"b1","goals":[{"metric":"latency","target":1}],"workload":{"tasks":2,"gflop":4},"policy":{"type":"ladder","levels":[1,0.5,0.25]}}'
//	curl -s -X POST localhost:8077/v1/apps/web/observations -d '{"samples":[{"metric":"latency","value":2.2}]}'
//	curl -s -X PUT localhost:8077/v1/apps/web/policy -d '{"type":"dsl","source":"aspectdef S apply do Set('"'"'level'"'"', 0.5); end condition violation > 0 end end"}'
//	curl -s localhost:8077/v1/epochs
//	curl -sN localhost:8077/v1/epochs/stream    # server-sent epoch events
//	curl -s -X DELETE localhost:8077/v1/apps/web
//
// With -auth-token (or ANTAREX_AUTH_TOKEN), every mutating route
// requires "Authorization: Bearer <token>"; reads stay open.
//
// With -data-dir, the control plane is durable: every mutating route
// (register, detach, policy swap, backend add/remove) is journaled
// into <dir>/wal.log — CRC-framed, fsynced with group commit before
// the HTTP ack — and folded into <dir>/snapshot.db every
// -snapshot-every records. On restart the recovered membership is
// restored (tenants re-admitted, DSL policies recompiled, backends
// rebuilt, placement hints reinstated) before the listener opens; the
// -backends bootstrap flag applies only to a first boot and is ignored
// once a journal exists. A torn final record (crash mid-write) is
// discarded silently; real corruption refuses to serve. Without
// -data-dir nothing changes: the plane is memory-only.
//
// High-rate telemetry should use the binary paths instead of JSON:
// POST /v1/apps/{id}/observations:binary for one-shot frame batches
// and the persistent POST /v1/stream (controlplane.Client.Stream from
// Go; `examples/remote -stream` demonstrates both ends) — ~8× the
// JSON ingest rate on the baseline host, gated as K6.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/controlplane"
	"repro/internal/durable"
	"repro/internal/runtime"
)

// buildKernel assembles an empty kernel under the named placement
// policy; backends join later (bootstrap flags or journal recovery).
func buildKernel(policy string) (*runtime.Kernel, error) {
	kernel := runtime.NewKernel()
	switch policy {
	case "pinned":
		kernel.SetPlacement(runtime.Pinned{})
	case "least-loaded":
		kernel.SetPlacement(runtime.LeastLoaded{})
	case "sla":
		kernel.SetPlacement(runtime.NewSLAAware(0))
	default:
		return nil, fmt.Errorf("unknown placement policy %q (pinned|least-loaded|sla)", policy)
	}
	return kernel, nil
}

// bootstrapSpecs expands the -backends/-nodes/... flags into the
// b0..bN-1 backend declarations of a fresh plane.
func bootstrapSpecs(nBackends int, spec controlplane.BackendSpec) ([]controlplane.BackendSpec, error) {
	if nBackends < 1 {
		return nil, fmt.Errorf("need at least 1 backend, got %d", nBackends)
	}
	specs := make([]controlplane.BackendSpec, nBackends)
	for i := range specs {
		s := spec
		s.Name = fmt.Sprintf("b%d", i)
		s.Seed += uint64(i)
		specs[i] = s
	}
	return specs, nil
}

func main() {
	var (
		addr      = flag.String("addr", ":8077", "HTTP listen address")
		nBackends = flag.Int("backends", 1, "resource-manager backends (simulated sites) to start with; more via POST /v1/backends")
		placement = flag.String("placement", "least-loaded", "placement policy: pinned, least-loaded or sla")
		authToken = flag.String("auth-token", os.Getenv("ANTAREX_AUTH_TOKEN"), "bearer token required on mutating routes (empty: auth off; also via ANTAREX_AUTH_TOKEN)")
		nodes     = flag.Int("nodes", 8, "simulated cluster nodes per backend")
		hetero    = flag.Bool("hetero", true, "alternate heterogeneous/homogeneous nodes")
		ambient   = flag.Float64("ambient", 22, "ambient temperature (C)")
		capFrac   = flag.Float64("cap-frac", 0.9, "facility power cap as a fraction of peak")
		vary      = flag.Float64("vary", 0.15, "component manufacturing variability")
		seed      = flag.Uint64("seed", 42, "cluster RNG seed (backend i uses seed+i)")
		epochDt   = flag.Float64("epoch-dt", 60, "simulated seconds per manager epoch")
		flush     = flag.Duration("flush", 20*time.Millisecond, "epoch scheduler straggler flush bound")
		interval  = flag.Duration("interval", 5*time.Millisecond, "pacing between epochs when nothing is violating (0 = unpaced); a violating observation starts the next epoch at once, up to a burst of 4 early epochs and one per interval after that")
		beTimeout = flag.Duration("backend-timeout", 2*time.Second, "per-backend commit deadline before the slot is marked degraded and evacuated (0 = disabled)")
		shutdownT = flag.Duration("shutdown-timeout", 10*time.Second, "bound on graceful HTTP shutdown; connections still open after it (e.g. SSE streams) are closed forcibly")
		pprofAddr = flag.String("pprof", "", "pprof listen address on a separate loopback listener, e.g. 127.0.0.1:6060 (empty = profiling off; never mounted on the public mux)")
		dataDir   = flag.String("data-dir", "", "durability directory (WAL + snapshots); empty = memory-only control plane")
		snapEvery = flag.Int("snapshot-every", 256, "journaled records between snapshots (bounds WAL growth and replay time)")
	)
	flag.Parse()

	kernel, err := buildKernel(*placement)
	if err != nil {
		log.Fatalf("antarex-serve: %v", err)
	}

	// Durability: open (and recover) the journal before anything else —
	// a corrupt journal must refuse to serve, and recovered state must
	// be live before the listener opens.
	var (
		jlog  *durable.Log
		state controlplane.PlaneState
	)
	if *dataDir != "" {
		if err := os.MkdirAll(*dataDir, 0o755); err != nil {
			log.Fatalf("antarex-serve: %v", err)
		}
		jlog, err = durable.Open(*dataDir, durable.Options{})
		if err != nil {
			log.Fatalf("antarex-serve: open journal: %v", err)
		}
		state, err = controlplane.RecoverPlane(jlog)
		if err != nil {
			log.Fatalf("antarex-serve: recover: %v", err)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Profiling listener: its own mux on its own (loopback) address,
	// deliberately not a route on the control-plane handler — the public
	// mux must never expose pprof, with or without -auth-token. The
	// handlers are registered explicitly instead of importing the
	// net/http/pprof side effects into http.DefaultServeMux, so nothing
	// leaks if some library serves DefaultServeMux later.
	if *pprofAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		psrv := &http.Server{Addr: *pprofAddr, Handler: mux, ReadHeaderTimeout: 5 * time.Second}
		go func() {
			log.Printf("antarex-serve: pprof on %s", *pprofAddr)
			if err := psrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("antarex-serve: pprof listener: %v", err)
			}
		}()
		go func() {
			<-ctx.Done()
			_ = psrv.Close()
		}()
	}

	// Log backend state transitions (panic → failed, stall → degraded,
	// drain/remove lifecycle) as they happen; the channel dies with the
	// process, no cleanup needed.
	events, _ := kernel.BackendEvents()
	go func() {
		for ev := range events {
			if ev.Reason != "" {
				log.Printf("antarex-serve: backend %s: %s/%s (%s)", ev.Backend, ev.State, ev.Health, ev.Reason)
			} else {
				log.Printf("antarex-serve: backend %s: %s/%s", ev.Backend, ev.State, ev.Health)
			}
		}
	}()
	var opts []controlplane.ServerOption
	if *authToken != "" {
		opts = append(opts, controlplane.WithAuthToken(*authToken))
	}
	if jlog != nil {
		opts = append(opts, controlplane.WithJournal(jlog, *snapEvery))
	}
	cp := controlplane.NewServer(kernel, opts...)

	// Membership before the listener: a recovered journal wins over the
	// bootstrap flags (they described the first boot, the journal
	// describes everything acked since); a fresh plane bootstraps its
	// flags through the journaled paths so they survive the next boot.
	if jlog != nil && !state.Empty() {
		if err := cp.Restore(state); err != nil {
			log.Fatalf("antarex-serve: restore: %v", err)
		}
		log.Printf("antarex-serve: recovered %d app(s), %d backend(s) from %s (bootstrap flags ignored)",
			len(state.Apps), len(state.Backends), *dataDir)
	} else {
		specs, err := bootstrapSpecs(*nBackends, controlplane.BackendSpec{
			Nodes:    *nodes,
			Hetero:   *hetero,
			AmbientC: *ambient,
			CapFrac:  *capFrac,
			Vary:     *vary,
			Seed:     *seed,
		})
		if err != nil {
			log.Fatalf("antarex-serve: %v", err)
		}
		for _, s := range specs {
			if err := cp.AdmitBackend(s); err != nil {
				log.Fatalf("antarex-serve: backend %s: %v", s.Name, err)
			}
		}
	}
	kernel.SetBackendTimeout(*beTimeout)

	if err := kernel.Start(ctx, runtime.Options{
		EpochDt:  *epochDt,
		Flush:    *flush,
		Interval: *interval,
	}); err != nil {
		log.Fatalf("antarex-serve: start kernel: %v", err)
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           cp,
		ReadHeaderTimeout: 5 * time.Second,
	}
	go func() {
		<-ctx.Done()
		// Graceful drain, bounded: Shutdown alone waits forever on a
		// stream client that never closes (the SSE feed is endless by
		// design), so after -shutdown-timeout the remaining connections
		// are closed forcibly.
		shctx, cancel := context.WithTimeout(context.Background(), *shutdownT)
		defer cancel()
		if err := srv.Shutdown(shctx); err != nil {
			log.Printf("antarex-serve: graceful shutdown expired after %v: %v; closing open connections", *shutdownT, err)
			_ = srv.Close()
		}
	}()

	auth := "open"
	if *authToken != "" {
		auth = "bearer-token"
	}
	durability := "memory-only"
	if jlog != nil {
		durability = "journaled to " + *dataDir
	}
	log.Printf("antarex-serve: %d backend(s), placement %s, ingress %s, %s, control plane on %s",
		kernel.NumBackends(), *placement, auth, durability, *addr)
	err = srv.ListenAndServe()
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		kernel.Stop()
		log.Fatalf("antarex-serve: %v", err)
	}
	// Graceful path: HTTP drained; now quiesce the kernel, then the
	// journal (every acked mutation is already fsync-durable — Close
	// just releases the file).
	kernel.Stop()
	if jlog != nil {
		if err := jlog.Close(); err != nil {
			log.Printf("antarex-serve: close journal: %v", err)
		}
	}
	stats := kernel.ManagerStats()
	log.Printf("antarex-serve: stopped after %d epochs (%d early, %d nudges dropped), %.1f GFLOP done, %.1f J, membership epoch %d, %d rebuilds",
		kernel.Epochs(), kernel.EarlyEpochs(), kernel.DroppedNudges(), stats.WorkGFlop, stats.EnergyJ, kernel.Generation(), kernel.Rebuilds())
}
