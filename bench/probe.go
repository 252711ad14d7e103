package main

import "time"

// Timing rules of one probe tenant's cycle.
const (
	probeTimeout = time.Second           // not visible by then: failed
	resetSettle  = 50 * time.Millisecond // a reset is sent at least this long before re-arming
	resetQuiet   = 20 * time.Millisecond // ... and the feed must have shown the total still for this long
)

type probePhase int

const (
	phaseIdle      probePhase = iota // at level 0, total still: may be armed
	phaseArmed                       // probe sent, waiting for the total to move
	phaseNeedReset                   // at level 1: a reset must be sent
	phaseResetting                   // reset sent, waiting for the total to stop
	phaseDead                        // lost track of the tenant's level: never probed again
)

// probeTenant is the arm → visible → reset cycle of one probe tenant.
// It holds no I/O: the pacer and the SSE watcher feed it times and
// totals, so the cycle is testable without a server.
type probeTenant struct {
	name string
	key  []byte // totalKey(name)
	dsl  bool

	phase probePhase
	// sent counts the violating samples sent (probes and resets): the
	// adaptations the server must report at the end.
	sent int64
	// stepsLeft is how many more samples a ladder tenant can absorb
	// before it sits on its last level (a DSL tenant never runs out).
	stepsLeft int

	total      float64 // last total seen on the feed
	seen       bool
	lastChange time.Time // arrival of the event in which total last moved
	lastEvent  time.Time // arrival of the last event scanned for this tenant
	due        time.Time // armed: the probe's due time
	resetAt    time.Time
	span       int64 // armed: the probe's root span
	waitSpan   int64 // armed: its wait.visible child
}

func newProbeTenant(p probeTenantPlan) *probeTenant {
	t := &probeTenant{name: p.Name, key: totalKey(p.Name), dsl: p.DSL}
	if p.DSL {
		// A DSL policy is seeded with the level it replaces (1, the
		// default), so the tenant starts "up" and needs a reset first.
		t.phase = phaseNeedReset
		t.stepsLeft = 1 << 30
	} else {
		t.stepsLeft = probeLadderLen - 1
	}
	return t
}

// level is the workload level the tenant was last commanded to.
func (t *probeTenant) level() float64 {
	if t.phase == phaseArmed || t.phase == phaseNeedReset {
		return 1
	}
	return 0
}

// canArm reports whether a probe may be sent now. A ladder tenant needs
// two steps in hand: the probe and the reset after it.
func (t *probeTenant) canArm() bool { return t.phase == phaseIdle && t.seen && t.stepsLeft >= 2 }

// arm records that the probe due at due was sent.
func (t *probeTenant) arm(due time.Time, span int64) {
	t.phase, t.due, t.span = phaseArmed, due, span
	t.sent++
	t.stepsLeft--
}

// observe feeds one total from the SSE feed. It returns the probe's
// latency from its due time when this total is the one that makes an
// armed probe visible.
func (t *probeTenant) observe(total float64, at time.Time) (latency time.Duration, visible bool) {
	t.lastEvent = at
	moved := !t.seen || total != t.total
	if moved {
		t.total, t.seen, t.lastChange = total, true, at
	}
	if t.phase == phaseArmed && moved && at.After(t.due) {
		t.phase = phaseNeedReset
		return at.Sub(t.due), true
	}
	return 0, false
}

// tick advances the time-driven transitions and reports what the pacer
// must do: sendReset, or count a failure (the probe timed out, or a
// reset never took). Either failure retires the tenant.
func (t *probeTenant) tick(now time.Time) (sendReset, failed bool) {
	switch t.phase {
	case phaseArmed:
		if now.Sub(t.due) > probeTimeout {
			t.phase = phaseDead
			return false, true
		}
	case phaseNeedReset:
		return true, false
	case phaseResetting:
		// Stillness is judged between events, not against the clock: while
		// the server or the feed is stalled no event arrives, and silence
		// must not pass for a reset that has landed.
		if t.lastEvent.Sub(t.resetAt) >= resetSettle && t.lastEvent.Sub(t.lastChange) >= resetQuiet {
			t.phase = phaseIdle
		} else if now.Sub(t.resetAt) > probeTimeout {
			t.phase = phaseDead
			return false, true
		}
	}
	return false, false
}

// resetSent records that the untimed 1→0 sample went out.
func (t *probeTenant) resetSent(now time.Time) {
	t.phase, t.resetAt = phaseResetting, now
	t.sent++
	t.stepsLeft--
}
