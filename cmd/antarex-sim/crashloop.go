package main

// The crashloop experiment is the durability tentpole's end-to-end
// proof: a real antarex-serve process (ANTAREX_SERVE points at a
// prebuilt binary; otherwise one is built into a temp dir) is driven
// through membership churn over HTTP and SIGKILLed at a random moment
// mid-churn, repeatedly. The driver keeps a client-side shadow ledger
// of every mutation the server ACKED; after each kill the process is
// restarted from the same -data-dir and the recovered plane must match
// the ledger exactly — every acked register/detach/policy-swap/
// backend-add/remove back, nothing invented.
// The one op in flight at the kill is the only tolerated ambiguity
// (it may have landed or not; both worlds are checked). One round also
// tears the WAL tail (a partial record appended to wal.log) to prove
// crash-mid-write recovery, and the final state is replayed twice to
// prove the journal fold is idempotent.

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"repro/internal/controlplane"
)

const (
	crashRounds   = 5
	crashOpsCap   = 400 // per round; the kill usually lands far earlier
	crashKillMin  = 50 * time.Millisecond
	crashKillSpan = 250 * time.Millisecond
)

// crashloopSeed seeds the churn and kill schedule (antarex-sim -seed).
var crashloopSeed int64 = 43

func crashloop() {
	fmt.Printf("== crashloop (seed %d): SIGKILL mid-churn, restart from the journal, verify against the shadow ledger ==\n", crashloopSeed)
	if err := crashloopRun(crashloopSeed); err != nil {
		fmt.Printf("  CRASHLOOP: FAIL: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("  crashloop: no acked mutation lost, torn tail tolerated, double replay idempotent")
}

// serveBinary resolves the antarex-serve executable: $ANTAREX_SERVE if
// set (CI prebuilds with -race), else a fresh `go build` into dir. The
// build names the package by import path, so it works from any
// directory of the module — the checkout root or a test's package dir.
func serveBinary(dir string) (string, error) {
	if p := os.Getenv("ANTAREX_SERVE"); p != "" {
		return filepath.Abs(p)
	}
	bin := filepath.Join(dir, "antarex-serve")
	cmd := exec.Command("go", "build", "-o", bin, "repro/cmd/antarex-serve")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build antarex-serve: %v\n%s", err, out)
	}
	return bin, nil
}

// ledgerApp is the driver's record of one acked tenant: the spec as
// admitted plus the policy currently installed (swaps update it).
type ledgerApp struct {
	spec   controlplane.AppSpec
	policy *controlplane.PolicySpec
}

// pendingOp is the single mutation that was in flight when the process
// died: the server may or may not have journaled it before the kill,
// so verification accepts both the before and after worlds.
type pendingOp struct {
	kind string // "register", "detach", "policy", "addbackend", "removebackend"
	name string
	app  ledgerApp                // register: the spec that may have landed
	pol  *controlplane.PolicySpec // policy: the swap that may have landed
}

// shadowLedger mirrors what the server has ACKED. It is the ground
// truth recovery is judged against.
type shadowLedger struct {
	apps     map[string]ledgerApp
	backends map[string]bool
	pending  *pendingOp
}

// crashloopRun drives the rounds from seed; every error it returns
// names the seed, so a failing schedule can be replayed.
func crashloopRun(seed int64) (err error) {
	defer func() {
		if err != nil {
			err = fmt.Errorf("seed %d: %w", seed, err)
		}
	}()
	work, err := os.MkdirTemp("", "crashloop-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	bin, err := serveBinary(work)
	if err != nil {
		return err
	}
	dataDir := filepath.Join(work, "data")
	addr, err := freeAddr()
	if err != nil {
		return err
	}

	led := &shadowLedger{
		apps: map[string]ledgerApp{},
		// First boot bootstraps b0/b1 through the journaled admission
		// path, so the ledger starts with them.
		backends: map[string]bool{"b0": true, "b1": true},
	}
	rng := rand.New(rand.NewSource(seed))
	var nextName int

	for round := 0; round < crashRounds; round++ {
		proc, c, err := startServe(bin, addr, dataDir)
		if err != nil {
			return fmt.Errorf("round %d: %v", round, err)
		}
		if err := led.verify(c); err != nil {
			proc.Process.Kill()
			proc.Wait()
			return fmt.Errorf("round %d: recovery mismatch: %v", round, err)
		}
		if err := led.resolvePending(c); err != nil {
			proc.Process.Kill()
			proc.Wait()
			return fmt.Errorf("round %d: pending op: %v", round, err)
		}

		// Churn until the asynchronous SIGKILL lands mid-operation.
		killAt := crashKillMin + time.Duration(rng.Int63n(int64(crashKillSpan)))
		timer := time.AfterFunc(killAt, func() { proc.Process.Kill() })
		ops := 0
		for ; ops < crashOpsCap; ops++ {
			if done, err := led.mutate(c, rng, &nextName); err != nil {
				timer.Stop()
				proc.Process.Kill()
				proc.Wait()
				return fmt.Errorf("round %d op %d: %v", round, ops, err)
			} else if done {
				break
			}
		}
		timer.Stop()
		proc.Process.Kill() // idempotent; covers the ops-cap exit
		proc.Wait()
		fmt.Printf("  round %d: killed after %d acked op(s); ledger %d app(s), %d backend(s)\n",
			round, ops, len(led.apps), len(led.backends))

		// One round recovers through a torn WAL tail: a record header
		// promising more bytes than the file holds, exactly what a crash
		// mid-write leaves behind.
		if round == crashRounds/2 {
			if err := tearTail(filepath.Join(dataDir, "wal.log")); err != nil {
				return err
			}
			fmt.Println("  round", round, "tore the WAL tail (partial record appended)")
		}
	}

	// Double replay: recover, verify, stop WITHOUT new mutations, then
	// recover the very same snapshot+tail again — the fold must be
	// idempotent, not merely crash-tolerant.
	for i := 0; i < 2; i++ {
		proc, c, err := startServe(bin, addr, dataDir)
		if err != nil {
			return fmt.Errorf("replay %d: %v", i, err)
		}
		verr := led.verify(c)
		if verr == nil {
			verr = led.resolvePending(c)
		}
		proc.Process.Kill()
		proc.Wait()
		if verr != nil {
			return fmt.Errorf("replay %d: %v", i, verr)
		}
	}
	return nil
}

// freeAddr grabs an ephemeral loopback port. The close-then-reuse
// window is benign here: nothing else binds on the harness host.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr, nil
}

// startServe launches the server against dataDir and waits until it
// answers health probes. The bootstrap flags only matter on the first
// boot; once the journal exists the server ignores them.
func startServe(bin, addr, dataDir string) (*exec.Cmd, *controlplane.Client, error) {
	cmd := exec.Command(bin,
		"-addr", addr,
		"-data-dir", dataDir,
		"-backends", "2",
		"-snapshot-every", "32",
	)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, nil, err
	}
	c := controlplane.NewClient("http://"+addr, nil)
	deadline := time.Now().Add(30 * time.Second)
	for {
		if h, err := c.Health(); err == nil && h.Running {
			return cmd, c, nil
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			cmd.Wait()
			return nil, nil, fmt.Errorf("server on %s never became healthy", addr)
		}
		time.Sleep(20 * time.Millisecond) // a child process rings no signal here: poll its /healthz
	}
}

// mutate performs one random acked mutation, updating the ledger only
// on ack. A transport error (no HTTP response — the kill landed) files
// the op as pending and reports the round done; an API error is a
// server-refused op (e.g. a raced duplicate) and mutates nothing.
func (l *shadowLedger) mutate(c *controlplane.Client, rng *rand.Rand, nextName *int) (done bool, err error) {
	classify := func(err error) (bool, error) {
		if err == nil {
			return false, nil
		}
		var api *controlplane.APIError
		if errors.As(err, &api) {
			l.pending = nil
			return false, fmt.Errorf("server refused: %w", api)
		}
		return true, nil // transport death: op stays pending
	}
	switch k := rng.Intn(10); {
	case k < 5: // register
		*nextName++
		app := ledgerApp{spec: randomSpec(rng, fmt.Sprintf("a%03d", *nextName), l.liveBackends())}
		app.policy = app.spec.Policy
		l.pending = &pendingOp{kind: "register", name: app.spec.Name, app: app}
		if _, err := c.Register(app.spec); err != nil {
			return classify(err)
		}
		l.apps[app.spec.Name] = app
	case k < 7: // detach
		name, ok := l.randomApp(rng)
		if !ok {
			return false, nil
		}
		l.pending = &pendingOp{kind: "detach", name: name}
		if err := c.Detach(name); err != nil {
			return classify(err)
		}
		delete(l.apps, name)
	case k < 9: // policy swap
		name, ok := l.randomApp(rng)
		if !ok {
			return false, nil
		}
		p := randomPolicy(rng)
		l.pending = &pendingOp{kind: "policy", name: name, pol: p}
		if _, err := c.PutPolicy(name, *p); err != nil {
			return classify(err)
		}
		app := l.apps[name]
		app.policy = p
		l.apps[name] = app
	default: // backend lifecycle: add up to 5, remove down to 1
		if len(l.backends) < 5 && rng.Intn(2) == 0 {
			*nextName++
			spec := controlplane.BackendSpec{
				Name: fmt.Sprintf("x%03d", *nextName), Nodes: 2,
				AmbientC: 22, CapFrac: 0.9, Vary: 0.05, Seed: uint64(*nextName),
			}
			l.pending = &pendingOp{kind: "addbackend", name: spec.Name}
			if _, err := c.AddBackend(spec); err != nil {
				return classify(err)
			}
			l.backends[spec.Name] = true
		} else if len(l.backends) > 1 {
			name := l.liveBackends()[rng.Intn(len(l.backends))]
			l.pending = &pendingOp{kind: "removebackend", name: name}
			if _, err := c.RemoveBackend(name); err != nil {
				return classify(err)
			}
			delete(l.backends, name)
		}
	}
	l.pending = nil
	return false, nil
}

func (l *shadowLedger) randomApp(rng *rand.Rand) (string, bool) {
	if len(l.apps) == 0 {
		return "", false
	}
	names := make([]string, 0, len(l.apps))
	for n := range l.apps {
		names = append(names, n)
	}
	return names[rng.Intn(len(names))], true
}

func (l *shadowLedger) liveBackends() []string {
	names := make([]string, 0, len(l.backends))
	for n := range l.backends {
		names = append(names, n)
	}
	return names
}

// randomSpec covers the whole journaled surface of an AppSpec: some
// tenants pinned, some metered, policies across both arms.
func randomSpec(rng *rand.Rand, name string, backends []string) controlplane.AppSpec {
	spec := controlplane.AppSpec{
		Name:   name,
		Goals:  []controlplane.GoalSpec{{Metric: "latency", Target: 1}},
		Policy: randomPolicy(rng),
	}
	if len(backends) > 0 && rng.Intn(2) == 0 {
		spec.Placement = backends[rng.Intn(len(backends))]
	}
	if rng.Intn(2) == 0 {
		spec.Quota = &controlplane.QuotaSpec{Rate: float64(10 + rng.Intn(90)), Burst: float64(1 + rng.Intn(20))}
	}
	return spec
}

func randomPolicy(rng *rand.Rand) *controlplane.PolicySpec {
	if rng.Intn(2) == 0 {
		levels := []float64{1, 0.5, 0.25, 0.125}[:2+rng.Intn(3)]
		return &controlplane.PolicySpec{Type: controlplane.PolicyLadder, Levels: levels}
	}
	return &controlplane.PolicySpec{
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
}

// verify compares the recovered plane against every acked mutation.
// The pending op's entities are exempted here and settled by
// resolvePending; everything else must match exactly.
func (l *shadowLedger) verify(c *controlplane.Client) error {
	apps, err := c.Apps()
	if err != nil {
		return err
	}
	got := map[string]controlplane.AppStatus{}
	for _, a := range apps {
		got[a.Name] = a
	}
	skip := func(name string) bool { return l.pending != nil && l.pending.name == name }
	for name, want := range l.apps {
		if skip(name) {
			continue
		}
		st, ok := got[name]
		if !ok {
			return fmt.Errorf("acked app %q lost", name)
		}
		if err := matchApp(st, want); err != nil {
			return fmt.Errorf("app %q: %v", name, err)
		}
	}
	for name := range got {
		if _, ok := l.apps[name]; !ok && !skip(name) {
			return fmt.Errorf("recovery invented app %q", name)
		}
	}

	backends, err := c.Backends()
	if err != nil {
		return err
	}
	gotB := map[string]bool{}
	for _, b := range backends {
		gotB[b.Name] = true
	}
	for name := range l.backends {
		if !gotB[name] && !skip(name) {
			return fmt.Errorf("acked backend %q lost", name)
		}
	}
	for name := range gotB {
		if !l.backends[name] && !skip(name) {
			return fmt.Errorf("removed backend %q came back", name)
		}
	}
	return nil
}

// matchApp checks one recovered tenant against its acked record:
// placement hint, quota, and the installed policy (ladder levels, or a
// recompiled DSL program evidenced by its source hash).
func matchApp(st controlplane.AppStatus, want ledgerApp) error {
	if st.Placement != want.spec.Placement {
		return fmt.Errorf("placement %q, want %q", st.Placement, want.spec.Placement)
	}
	if q := want.spec.Quota; q != nil {
		if st.Quota == nil || st.Quota.Rate != q.Rate || st.Quota.Burst != q.Burst {
			return fmt.Errorf("quota %+v, want %+v", st.Quota, q)
		}
	} else if st.Quota != nil {
		return fmt.Errorf("quota %+v invented", st.Quota)
	}
	return matchPolicy(st.Policy, want.policy)
}

func matchPolicy(st *controlplane.PolicyStatus, want *controlplane.PolicySpec) error {
	if want == nil {
		return nil // server default; nothing journaled to compare
	}
	if st == nil || st.Type != want.Type {
		return fmt.Errorf("policy %+v, want type %s", st, want.Type)
	}
	switch want.Type {
	case controlplane.PolicyLadder:
		if len(st.Levels) != len(want.Levels) {
			return fmt.Errorf("ladder %v, want %v", st.Levels, want.Levels)
		}
		for i := range st.Levels {
			if st.Levels[i] != want.Levels[i] {
				return fmt.Errorf("ladder %v, want %v", st.Levels, want.Levels)
			}
		}
	case controlplane.PolicyDSL:
		if st.SourceHash == "" {
			return errors.New("recovered DSL policy was not recompiled (no source hash)")
		}
	}
	return nil
}

// resolvePending settles the one ambiguous op by observing which world
// the recovery landed in, then folds that world into the ledger.
func (l *shadowLedger) resolvePending(c *controlplane.Client) error {
	p := l.pending
	if p == nil {
		return nil
	}
	l.pending = nil
	switch p.kind {
	case "register":
		st, err := c.App(p.name)
		if controlplane.IsNotFound(err) {
			return nil // did not land
		}
		if err != nil {
			return err
		}
		if err := matchApp(st, p.app); err != nil {
			return fmt.Errorf("half-landed register %q: %v", p.name, err)
		}
		l.apps[p.name] = p.app
	case "detach":
		if _, err := c.App(p.name); controlplane.IsNotFound(err) {
			delete(l.apps, p.name)
		} else if err != nil {
			return err
		}
	case "policy":
		st, err := c.App(p.name)
		if controlplane.IsNotFound(err) {
			return fmt.Errorf("policy target %q vanished", p.name)
		}
		if err != nil {
			return err
		}
		app := l.apps[p.name]
		if matchPolicy(st.Policy, p.pol) == nil {
			app.policy = p.pol // the swap landed
			l.apps[p.name] = app
			return nil
		}
		if err := matchPolicy(st.Policy, app.policy); err != nil {
			return fmt.Errorf("app %q holds neither old nor new policy: %v", p.name, err)
		}
	case "addbackend", "removebackend":
		backends, err := c.Backends()
		if err != nil {
			return err
		}
		present := false
		for _, b := range backends {
			if b.Name == p.name {
				present = true
			}
		}
		l.backends[p.name] = present
		if !present {
			delete(l.backends, p.name)
		}
	}
	return nil
}

// tearTail appends a truncated record to the WAL: a varint length
// promising a payload the file does not contain — byte-identical to a
// crash between the header write and the payload write. Recovery must
// discard it silently.
func tearTail(walPath string) error {
	f, err := os.OpenFile(walPath, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	// Length 200, then only 3 of the promised bytes.
	_, err = f.Write([]byte{200, 1, 0x01, 0x02, 0x03})
	return err
}
