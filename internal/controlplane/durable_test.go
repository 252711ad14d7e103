package controlplane

import (
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/durable"
	"repro/internal/runtime"
)

// newDurablePlane builds a journaled control plane over dir: an empty
// kernel (backends come from the journaled paths), the server armed
// with WithJournal, and an httptest listener. The caller owns the
// log's lifecycle across simulated restarts, so Close is not deferred.
func newDurablePlane(t *testing.T, dir string, every int) (*runtime.Kernel, *Server, *Client, *durable.Log) {
	t.Helper()
	log, err := durable.Open(dir, durable.Options{})
	if err != nil {
		t.Fatalf("Open journal: %v", err)
	}
	k := runtime.NewKernel()
	s := NewServer(k, WithJournal(log, every))
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)
	return k, s, NewClient(srv.URL, srv.Client()), log
}

// recoverPlane simulates the restart: reopen the journal, fold it, and
// restore into a fresh kernel + server.
func recoverPlane(t *testing.T, dir string, every int) (*runtime.Kernel, *Server, *Client, *durable.Log) {
	t.Helper()
	k, s, c, log := newDurablePlane(t, dir, every)
	st, err := RecoverPlane(log)
	if err != nil {
		t.Fatalf("RecoverPlane: %v", err)
	}
	if err := s.Restore(st); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	return k, s, c, log
}

func testBackendSpec(name string) BackendSpec {
	return BackendSpec{Name: name, Nodes: 2, AmbientC: 22, CapFrac: 0.9, Vary: 0.05, Seed: 7}
}

// TestJournalRecoveryRoundTrip drives every journaled mutation through
// the HTTP API, "crashes" (drops the server without closing anything
// gracefully beyond the log handle), recovers into a fresh plane, and
// verifies the membership that was acked — and only that — came back:
// apps with quotas, placement hints and policies (DSL recompiled, the
// SWAPPED policy, not the registered one) and backends minus the
// removed one.
func TestJournalRecoveryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	_, _, c, log := newDurablePlane(t, dir, 0)

	if _, err := c.AddBackend(testBackendSpec("site-a")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddBackend(testBackendSpec("site-b")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Register(AppSpec{
		Name:      "pinned",
		Placement: "site-b",
		Quota:     &QuotaSpec{Rate: 50, Burst: 10},
		Policy:    &PolicySpec{Type: PolicyLadder, Levels: []float64{1, 0.5, 0.25}},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Register(AppSpec{
		Name:   "compiled",
		Goals:  []GoalSpec{{Metric: "latency", Target: 1}},
		Policy: &PolicySpec{Type: PolicyDSL, Source: steerPolicy, Params: map[string]float64{"gain": 0.5}},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Register(AppSpec{Name: "doomed"}); err != nil {
		t.Fatal(err)
	}
	if err := c.Detach("doomed"); err != nil {
		t.Fatal(err)
	}
	// Swap the ladder app's policy: recovery must restore the swap, not
	// the registration-time ladder.
	if _, err := c.PutPolicy("pinned", PolicySpec{Type: PolicyLadder, Levels: []float64{1, 0.9}}); err != nil {
		t.Fatal(err)
	}

	// Crash: no snapshot, no graceful close of the plane — only the log
	// handle is released so the test process can reopen the files.
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	k2, _, c2, log2 := recoverPlane(t, dir, 0)
	defer log2.Close()

	apps, err := c2.Apps()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]AppStatus{}
	for _, a := range apps {
		byName[a.Name] = a
	}
	if len(byName) != 2 {
		t.Fatalf("recovered %d apps (%v), want 2", len(byName), byName)
	}
	if _, ok := byName["doomed"]; ok {
		t.Fatal("acked detach did not survive: doomed came back")
	}
	pinned := byName["pinned"]
	if pinned.Placement != "site-b" {
		t.Errorf("placement hint = %q, want site-b", pinned.Placement)
	}
	if pinned.Quota == nil || pinned.Quota.Rate != 50 || pinned.Quota.Burst != 10 {
		t.Errorf("quota = %+v, want rate 50 burst 10", pinned.Quota)
	}
	if pinned.Policy == nil || len(pinned.Policy.Levels) != 2 || pinned.Policy.Levels[1] != 0.9 {
		t.Errorf("policy = %+v, want the swapped 2-level ladder", pinned.Policy)
	}
	compiled := byName["compiled"]
	if compiled.Policy == nil || compiled.Policy.Type != PolicyDSL {
		t.Fatalf("dsl policy = %+v", compiled.Policy)
	}
	if compiled.Policy.SourceHash == "" || compiled.Policy.DecisionDeadlineTicks != 10 {
		t.Errorf("dsl policy not recompiled: %+v", compiled.Policy)
	}
	if n := k2.NumBackends(); n != 2 {
		t.Errorf("recovered %d backends, want 2", n)
	}

	// A removed backend must stay removed across the NEXT crash too.
	if _, err := c2.RemoveBackend("site-a"); err != nil {
		t.Fatal(err)
	}
	if err := log2.Close(); err != nil {
		t.Fatal(err)
	}
	k3, _, _, log3 := recoverPlane(t, dir, 0)
	defer log3.Close()
	if n := k3.NumBackends(); n != 1 {
		t.Errorf("after journaled remove: %d backends, want 1", n)
	}
	if k3.HasBackend("site-a") {
		t.Error("removed backend site-a came back")
	}
}

// TestJournalRetiredProtocolRecords: a data-dir written by a binary
// that still had -protocol boots. Its snapshot carries a "protocol"
// field and its WAL an op 6 record; both are accepted and ignored, the
// roster around them recovers, and an op code nobody ever wrote is
// still refused.
func TestJournalRetiredProtocolRecords(t *testing.T) {
	dir := t.TempDir()
	log, err := durable.Open(dir, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := log.WriteSnapshot([]byte(`{"protocol":"optimistic","backends":[{"name":"b0","nodes":2,"ambient_c":22,"cap_frac":0.9,"vary":0.05,"seed":7}]}`)); err != nil {
		t.Fatal(err)
	}
	for _, rec := range []struct {
		op   byte
		data string
	}{
		{opRegister, `{"name":"web","placement":"b0"}`},
		{opOldProtocol, `{"protocol":"clock"}`},
		{opRegister, `{"name":"batch"}`},
	} {
		if _, err := log.Append(rec.op, []byte(rec.data)); err != nil {
			t.Fatal(err)
		}
	}
	log.Close()

	k, _, _, log2 := recoverPlane(t, dir, 0)
	if !k.HasBackend("b0") || k.NumBackends() != 1 {
		t.Errorf("recovered backends %v, want [b0]", k.Backends())
	}
	if k.App("web") == nil || k.App("batch") == nil || k.NumApps() != 2 {
		t.Errorf("recovered %d apps, want web and batch", k.NumApps())
	}

	if _, err := log2.Append(99, []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	log2.Close()
	log3, err := durable.Open(dir, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer log3.Close()
	if _, err := RecoverPlane(log3); err == nil {
		t.Error("unknown op 99 accepted")
	}
}

// TestJournalSnapshotCadence: sustained churn triggers snapshots that
// truncate the WAL, and recovery over snapshot+tail equals recovery
// over the full record stream — including a second replay (idempotence).
func TestJournalSnapshotCadence(t *testing.T) {
	dir := t.TempDir()
	_, s, c, log := newDurablePlane(t, dir, 8)
	if err := s.AdmitBackend(testBackendSpec("b0")); err != nil {
		t.Fatal(err)
	}
	// Churn: 20 registers, 10 detaches → 31 records at cadence 8.
	for i := 0; i < 20; i++ {
		if _, err := c.Register(AppSpec{Name: fmt.Sprintf("app-%02d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		if err := c.Detach(fmt.Sprintf("app-%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if n := log.SinceSnapshot(); n >= 8 {
		t.Fatalf("WAL holds %d records, snapshot cadence 8 never fired", n)
	}
	log.Close()

	verify := func(c *Client) {
		t.Helper()
		apps, err := c.Apps()
		if err != nil {
			t.Fatal(err)
		}
		if len(apps) != 10 {
			t.Fatalf("recovered %d apps, want 10", len(apps))
		}
		for _, a := range apps {
			var i int
			if _, err := fmt.Sscanf(a.Name, "app-%d", &i); err != nil || i < 10 {
				t.Fatalf("unexpected survivor %q", a.Name)
			}
		}
	}
	_, _, c2, log2 := recoverPlane(t, dir, 8)
	verify(c2)
	log2.Close()
	// Idempotence: replaying the same snapshot+tail again converges to
	// the identical membership.
	_, _, c3, log3 := recoverPlane(t, dir, 8)
	defer log3.Close()
	verify(c3)
}

// TestJournalUnackedRegisterMayVanish documents the write-ahead
// contract's other half via the API surface: a mutation the client
// never got an ack for is allowed to vanish — but one it DID get an
// ack for must not. (The positive half is the round-trip test; this
// one pins that recovery does not invent state: an empty journal
// restores an empty plane.)
func TestJournalEmptyBoot(t *testing.T) {
	dir := t.TempDir()
	_, _, _, log := newDurablePlane(t, dir, 0)
	log.Close()
	_, _, c, log2 := recoverPlane(t, dir, 0)
	defer log2.Close()
	apps, err := c.Apps()
	if err != nil {
		t.Fatal(err)
	}
	if len(apps) != 0 {
		t.Fatalf("empty journal recovered %d apps", len(apps))
	}
}

// TestJournaledMutationsUnderConcurrency: concurrent registers and
// detaches against the journaled plane all recover — the out-of-mutex
// append design must not lose or misorder same-name records.
func TestJournaledMutationsUnderConcurrency(t *testing.T) {
	dir := t.TempDir()
	_, s, c, log := newDurablePlane(t, dir, 64)
	if err := s.AdmitBackend(testBackendSpec("b0")); err != nil {
		t.Fatal(err)
	}
	const tenants = 24
	errs := make(chan error, tenants)
	for i := 0; i < tenants; i++ {
		go func(i int) {
			name := fmt.Sprintf("t%02d", i)
			if _, err := c.Register(AppSpec{Name: name}); err != nil {
				errs <- err
				return
			}
			if i%3 == 0 {
				errs <- c.Detach(name)
				return
			}
			errs <- nil
		}(i)
	}
	deadline := time.After(30 * time.Second)
	for i := 0; i < tenants; i++ {
		select {
		case err := <-errs:
			if err != nil {
				t.Fatal(err)
			}
		case <-deadline:
			t.Fatal("concurrent mutations timed out")
		}
	}
	log.Close()
	_, _, c2, log2 := recoverPlane(t, dir, 64)
	defer log2.Close()
	apps, err := c2.Apps()
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for i := 0; i < tenants; i++ {
		if i%3 != 0 {
			want++
		}
	}
	if len(apps) != want {
		t.Fatalf("recovered %d apps, want %d", len(apps), want)
	}
}
