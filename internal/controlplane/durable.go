package controlplane

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
	"sync"

	"repro/internal/durable"
)

// Durability wiring: the control plane journals every mutating route
// into a durable.Log before acknowledging it, so a restarted
// antarex-serve re-admits every tenant, re-adds every backend and
// restores placement before the listener opens.
//
// The division of labour with internal/durable: durable owns the
// mechanics (framing, CRC, group-committed fsync, snapshots, torn-tail
// recovery), this file owns the state machine — the op codes below,
// the fold of a record stream into a PlaneState, and the replay that
// turns a PlaneState back into live kernel membership.
//
// Ordering discipline: a mutation is applied to the kernel under s.mu,
// then journaled OUTSIDE s.mu so concurrent tenants' fsyncs batch into
// one group commit instead of serializing behind the membership lock.
// That makes the journal's record order a race between unrelated
// tenants — which is safe because the fold below is last-writer-wins
// per name: replay order between different names cannot change the
// folded state. Order between ops on the SAME name must match memory
// order, so apply+append run under a name-striped mutex (lockEntity).
// The client-visible guarantee is exactly write-ahead: the HTTP ack is
// sent only after the record is fsync-durable, so an acked mutation
// survives any crash; an unacked one may or may not.

// Journal op codes. The record payloads are JSON — membership changes
// are control-rate, not data-rate, and reusing the wire types keeps
// the journal format aligned with the API format for free.
const (
	opRegister      byte = 1 // AppSpec (canonical)
	opDetach        byte = 2 // nameRecord
	opPutPolicy     byte = 3 // policyRecord
	opAddBackend    byte = 4 // BackendSpec (defaults applied)
	opRemoveBackend byte = 5 // nameRecord
	opOldProtocol   byte = 6 // retired: written by binaries that had -protocol
)

type nameRecord struct {
	Name string `json:"name"`
}

type policyRecord struct {
	Name   string     `json:"name"`
	Policy PolicySpec `json:"policy"`
}

// PlaneState is the net control-plane membership a journal folds down
// to: the live backends in add order, and the live apps with their
// current (post-swap) policies. It is both the snapshot blob format
// and the input to Server.Restore.
type PlaneState struct {
	Backends []BackendSpec `json:"backends,omitempty"`
	Apps     []AppSpec     `json:"apps,omitempty"`
}

// Empty reports whether the state restores nothing — a first boot.
func (st PlaneState) Empty() bool {
	return len(st.Backends) == 0 && len(st.Apps) == 0
}

// RecoverPlane folds an opened journal — snapshot blob plus replayed
// WAL records — into the net PlaneState to restore. Corruption inside
// records that durable's CRC framing cannot see (bad JSON, an unknown
// op) is reported as an error; the caller refuses to serve rather
// than guess at membership.
func RecoverPlane(log *durable.Log) (PlaneState, error) {
	var st PlaneState
	if _, blob := log.Snapshot(); blob != nil {
		if err := json.Unmarshal(blob, &st); err != nil {
			return PlaneState{}, fmt.Errorf("controlplane: decode snapshot: %w", err)
		}
	}
	for _, rec := range log.Entries() {
		if err := applyRecord(&st, rec); err != nil {
			return PlaneState{}, err
		}
	}
	return st, nil
}

// applyRecord folds one journal record into the state. Upserts and
// deletes are idempotent (register twice = replace, detach an absent
// app = no-op): a snapshot may already include a mutation whose record
// then replays on top of it, and replaying the same journal twice must
// yield the same state.
func applyRecord(st *PlaneState, rec durable.Record) error {
	appIdx := func(name string) int {
		return slices.IndexFunc(st.Apps, func(a AppSpec) bool { return a.Name == name })
	}
	backendIdx := func(name string) int {
		return slices.IndexFunc(st.Backends, func(b BackendSpec) bool { return b.Name == name })
	}
	switch rec.Op {
	case opRegister:
		var spec AppSpec
		if err := json.Unmarshal(rec.Data, &spec); err != nil {
			return fmt.Errorf("controlplane: journal seq %d: decode register: %w", rec.Seq, err)
		}
		if i := appIdx(spec.Name); i >= 0 {
			st.Apps[i] = spec
		} else {
			st.Apps = append(st.Apps, spec)
		}
	case opDetach:
		var nr nameRecord
		if err := json.Unmarshal(rec.Data, &nr); err != nil {
			return fmt.Errorf("controlplane: journal seq %d: decode detach: %w", rec.Seq, err)
		}
		if i := appIdx(nr.Name); i >= 0 {
			st.Apps = slices.Delete(st.Apps, i, i+1)
		}
	case opPutPolicy:
		var pr policyRecord
		if err := json.Unmarshal(rec.Data, &pr); err != nil {
			return fmt.Errorf("controlplane: journal seq %d: decode policy swap: %w", rec.Seq, err)
		}
		if i := appIdx(pr.Name); i >= 0 {
			p := pr.Policy
			st.Apps[i].Policy = &p
		}
	case opAddBackend:
		var spec BackendSpec
		if err := json.Unmarshal(rec.Data, &spec); err != nil {
			return fmt.Errorf("controlplane: journal seq %d: decode add backend: %w", rec.Seq, err)
		}
		if i := backendIdx(spec.Name); i >= 0 {
			st.Backends[i] = spec
		} else {
			st.Backends = append(st.Backends, spec)
		}
	case opRemoveBackend:
		var nr nameRecord
		if err := json.Unmarshal(rec.Data, &nr); err != nil {
			return fmt.Errorf("controlplane: journal seq %d: decode remove backend: %w", rec.Seq, err)
		}
		if i := backendIdx(nr.Name); i >= 0 {
			st.Backends = slices.Delete(st.Backends, i, i+1)
		}
	case opOldProtocol:
		// Accepted and ignored: data-dirs written before the epoch
		// protocols were deleted carry these records and must still boot.
	default:
		return fmt.Errorf("controlplane: journal seq %d: unknown op %d", rec.Seq, rec.Op)
	}
	return nil
}

// defaultSnapshotEvery is the snapshot cadence: a snapshot + WAL
// truncation every N journaled records bounds both replay time and
// WAL growth under sustained churn.
const defaultSnapshotEvery = 256

// planeJournal is the server's journaling state.
type planeJournal struct {
	log   *durable.Log
	every int
	// snapMu orders appends against snapshots: appends hold the read
	// side, a snapshot the write side — durable.WriteSnapshot requires
	// no concurrent Append, and the blob must cover every record
	// appended before the truncation.
	snapMu sync.RWMutex
}

// WithJournal arms durability: every mutating route is journaled into
// log before it is acknowledged, and a snapshot + WAL truncation runs
// every snapshotEvery records (<= 0 selects the default, 256). The
// caller recovers prior state with RecoverPlane + Restore before
// serving traffic.
func WithJournal(log *durable.Log, snapshotEvery int) ServerOption {
	return func(s *Server) {
		if snapshotEvery <= 0 {
			snapshotEvery = defaultSnapshotEvery
		}
		s.journal = &planeJournal{log: log, every: snapshotEvery}
	}
}

// journalStripes is the lockEntity stripe count: enough that unrelated
// tenants rarely share a stripe, few enough to embed in the Server.
const journalStripes = 32

// lockEntity serializes the apply+journal window for one entity name
// and returns the unlock. Ops on the same app (register, swap, detach)
// must reach the journal in their memory order; ops on different names
// may interleave freely (the fold is name-independent), which is what
// lets their fsyncs share group commits. A no-op without a journal.
func (s *Server) lockEntity(name string) func() {
	if s.journal == nil {
		return func() {}
	}
	h := fnv.New32a()
	_, _ = h.Write([]byte(name))
	m := &s.jmu[h.Sum32()%journalStripes]
	m.Lock()
	return m.Unlock
}

// journalError marks a mutation that applied in memory but could not
// be made durable — always a 500, never a client fault, regardless of
// which handler it surfaces from.
type journalError struct{ err error }

func (e *journalError) Error() string { return fmt.Sprintf("controlplane: journal: %v", e.err) }
func (e *journalError) Unwrap() error { return e.err }

// journalAppend journals one applied mutation and blocks until it is
// fsync-durable; the caller acknowledges its client only on nil. A
// failed append leaves the mutation live in memory but unacked —
// write-ahead semantics make no promise about unacknowledged ops —
// and the durable.Log's sticky error fails every later mutation, so
// a plane with a dead disk degrades to read-only instead of silently
// diverging from its journal.
func (s *Server) journalAppend(op byte, v any) error {
	j := s.journal
	if j == nil {
		return nil
	}
	data, err := json.Marshal(v)
	if err != nil {
		return &journalError{err}
	}
	j.snapMu.RLock()
	_, err = j.log.Append(op, data)
	j.snapMu.RUnlock()
	if err != nil {
		return &journalError{err}
	}
	if j.log.SinceSnapshot() >= j.every {
		s.snapshotPlane()
	}
	return nil
}

// snapshotPlane writes the current membership as the recovery baseline
// and truncates the WAL. Failure is deliberately swallowed: the
// records a snapshot would have truncated are still durable, so a
// failed snapshot costs replay time, not correctness.
func (s *Server) snapshotPlane() {
	j := s.journal
	j.snapMu.Lock()
	defer j.snapMu.Unlock()
	if j.log.SinceSnapshot() < j.every {
		return // a concurrent writer got here first
	}
	blob, err := json.Marshal(s.planeState())
	if err != nil {
		return
	}
	_ = j.log.WriteSnapshot(blob)
}

// planeState snapshots live membership in canonical form: current
// backends and every app's spec with its ACTIVE policy (a swapped
// policy replaces the registration-time one). Apps are sorted by name
// for deterministic blobs.
func (s *Server) planeState() PlaneState {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := PlaneState{Backends: slices.Clone(s.backends)}
	names := make([]string, 0, len(s.apps))
	for name := range s.apps {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ra := s.apps[name]
		spec := ra.spec
		if ap := ra.pol.Load(); ap != nil {
			p := ap.spec
			spec.Policy = &p
		}
		st.Apps = append(st.Apps, spec)
	}
	return st
}

// Restore replays a recovered PlaneState into the server: every
// backend, then every app — DSL policies recompile through policyc
// exactly as they did at admission. Call once, before the kernel starts
// serving and before the listener opens; nothing is re-journaled (the
// records that produced st are already durable).
//
// A restored app may carry a placement hint naming a backend that was
// later removed: admission-time validation rejected dangling hints,
// but a journaled remove legitimately strands them, and the kernel
// treats an unresolvable hint as "no preference until the backend
// returns" — so Restore admits them instead of refusing to boot.
func (s *Server) Restore(st PlaneState) error {
	for _, bs := range st.Backends {
		if err := ValidateBackendSpec(bs); err != nil {
			return fmt.Errorf("controlplane: restore backend %q: %w", bs.Name, err)
		}
		spec := withBackendDefaults(bs)
		if err := s.kernel.AddBackend(spec.Name, BuildBackend(spec)); err != nil {
			return fmt.Errorf("controlplane: restore backend %q: %w", bs.Name, err)
		}
		s.mu.Lock()
		s.backends = append(s.backends, spec)
		s.mu.Unlock()
	}
	for _, spec := range st.Apps {
		if err := validateSpec(spec); err != nil {
			return fmt.Errorf("controlplane: restore app %q: %w", spec.Name, err)
		}
		if err := validatePolicy(spec.Policy); err != nil {
			return fmt.Errorf("controlplane: restore app %q: %w", spec.Name, err)
		}
		if _, err := s.admitApp(spec, false); err != nil {
			return fmt.Errorf("controlplane: restore app %q: %w", spec.Name, err)
		}
	}
	return nil
}

// AdmitBackend validates, builds and adds a backend through the
// journaled path — the programmatic form of POST /v1/backends, also
// used by antarex-serve to journal its bootstrap flags on first boot.
func (s *Server) AdmitBackend(spec BackendSpec) error {
	if err := ValidateBackendSpec(spec); err != nil {
		return err
	}
	spec = withBackendDefaults(spec)
	unlock := s.lockEntity(spec.Name)
	defer unlock()
	if err := s.kernel.AddBackend(spec.Name, BuildBackend(spec)); err != nil {
		return err
	}
	s.mu.Lock()
	s.backends = append(s.backends, spec)
	s.mu.Unlock()
	return s.journalAppend(opAddBackend, spec)
}

// dropBackendSpec removes a backend's retained spec once its removal
// is admitted (the drain may still be evacuating, but the journal and
// any snapshot must already exclude it — an acked remove survives a
// crash even when the crash lands mid-drain).
func (s *Server) dropBackendSpec(name string) {
	s.mu.Lock()
	s.backends = slices.DeleteFunc(s.backends, func(b BackendSpec) bool { return b.Name == name })
	s.mu.Unlock()
}
