package main

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/controlplane"
)

const (
	churnClients = 2
	churnPool    = 64 // names each client cycles through
	churnLive    = 4  // churned tenants each client keeps attached
	restarts     = 5
	// churnShare is the part of the run spent churning; the kill and
	// restart rounds follow it.
	churnShare = 0.75
)

// ledger is the bench's shadow of every mutation the server acked: the
// policy each live tenant must report after a restart.
type ledger struct {
	mu   sync.Mutex
	apps map[string]controlplane.PolicySpec
}

func (l *ledger) set(name string, p controlplane.PolicySpec) {
	l.mu.Lock()
	l.apps[name] = p
	l.mu.Unlock()
}

func (l *ledger) del(name string) {
	l.mu.Lock()
	delete(l.apps, name)
	l.mu.Unlock()
}

// churner is one closed-loop client cycling Register → PutPolicy →
// Detach over its own name pool, with churnLive tenants kept attached
// so membership stays constant.
type churner struct {
	pool []churnItem
	next int
	live []int
	led  *ledger
	tr   *tracer

	register, registerDSL, putPolicy, detach []time.Duration
	ops                                      int64
	errs                                     []error
}

// timed runs one mutation under a span and returns its round trip.
func (c *churner) timed(name string, op func() error) time.Duration {
	sp := c.tr.begin(name, 0, 0)
	t0 := time.Now()
	err := op()
	d := time.Since(t0)
	c.tr.end(sp)
	c.ops++
	if err != nil {
		c.errs = append(c.errs, err)
	}
	return d
}

// cycle performs one Register → PutPolicy → (Detach) round. The ledger
// moves only on an ack.
func (c *churner) cycle(cl *controlplane.Client) {
	it := c.pool[c.next%len(c.pool)]
	nerr := len(c.errs)
	d := c.timed("register", func() error { _, err := cl.Register(it.Spec); return err })
	if len(c.errs) > nerr {
		c.next++
		return
	}
	c.led.set(it.Spec.Name, *it.Spec.Policy)
	c.register = append(c.register, d)
	if it.Spec.Policy.Type == controlplane.PolicyDSL {
		c.registerDSL = append(c.registerDSL, d)
	}
	d = c.timed("put_policy", func() error { _, err := cl.PutPolicy(it.Spec.Name, it.Swap); return err })
	if len(c.errs) == nerr {
		c.led.set(it.Spec.Name, it.Swap)
		c.putPolicy = append(c.putPolicy, d)
	}
	c.live = append(c.live, c.next)
	c.next++
	if len(c.live) > churnLive {
		old := c.pool[c.live[0]%len(c.pool)].Spec.Name
		c.live = c.live[1:]
		nerr = len(c.errs)
		d = c.timed("detach", func() error { return cl.Detach(old) })
		if len(c.errs) == nerr {
			c.led.del(old)
			c.detach = append(c.detach, d)
		}
	}
}

// runChurn is the only workload where the journal, policyc.Compile and
// the kernel's generation roll sit on the blocking path: 256 resident
// tenants fed 50 k samples/s, two closed-loop clients churning
// membership on a journaled plane, then five SIGKILL-and-restart rounds
// on the same directory, each checked against the shadow ledger.
func runChurn(s *session, dur time.Duration, tr *tracer) (*measurement, error) {
	m := newMeasurement()
	p := s.plan
	led := &ledger{apps: map[string]controlplane.PolicySpec{}}
	for _, spec := range p.Tenants {
		led.set(spec.Name, *spec.Policy)
	}
	clients := make([]*churner, churnClients)
	for i := range clients {
		clients[i] = &churner{pool: p.Churn[i], led: led, tr: tr}
	}
	pr, err := newProber(s, tr, throttledFeedMS)
	if err != nil {
		return nil, err
	}
	win, err := startWindow(s.proc)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	feed := s.pacedFeed()
	churnFor := time.Duration(float64(dur) * churnShare)
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < churnFor {
				c.cycle(s.proc.client)
			}
		}()
	}
	pr.run(feed.topUp)
	wg.Wait()
	elapsed, cpuS, err := win.stop(m)
	if err != nil {
		return nil, err
	}
	s.closeFeed(m, feed.sent, feed.err)
	if err := pr.finish(m); err != nil {
		return nil, err
	}
	if err := win.after(m); err != nil {
		return nil, err
	}

	var register, registerDSL, putPolicy, detach []time.Duration
	var ops int64
	for _, c := range clients {
		register = append(register, c.register...)
		registerDSL = append(registerDSL, c.registerDSL...)
		putPolicy = append(putPolicy, c.putPolicy...)
		detach = append(detach, c.detach...)
		ops += c.ops
		for _, err := range c.errs {
			m.fail("churn: %v", err)
		}
	}
	m.attempted += ops
	m.layer["admit.register_p50_ms"] = percentile(ms(register), 50)
	m.layer["admit.register_p90_ms"] = percentile(ms(register), 90)
	m.layer["admit.register_dsl_p50_ms"] = percentile(ms(registerDSL), 50)
	m.layer["admit.put_policy_p50_ms"] = percentile(ms(putPolicy), 50)
	m.layer["admit.detach_p50_ms"] = percentile(ms(detach), 50)
	m.layer["throughput.per_s"] = float64(ops) / elapsed
	m.layer["server.cpu_us_per_op"] = cpuS * 1e6 / float64(ops)
	if fi, err := os.Stat(filepath.Join(s.dataDir, "wal.log")); err == nil {
		m.layer["wal.bytes_at_kill"] = float64(fi.Size())
	}

	// Kill and restart on the same directory. Every acked mutation must
	// be back; between rounds each client acks one more cycle so every
	// recovery has something new to prove.
	for _, c := range clients {
		c.tr = nil // the cycles between restarts are untimed
	}
	var recover []float64
	for round := 0; round < restarts; round++ {
		s.proc.kill()
		t0 := time.Now()
		proc, err := s.env.startServe(s.args, len(led.apps))
		if err != nil {
			return nil, err
		}
		recover = append(recover, time.Since(t0).Seconds())
		s.proc = proc
		restored, err := verifyLedger(m, proc, led)
		if err != nil {
			return nil, err
		}
		m.layer["recover.apps_restored"] = float64(restored)
		if round < restarts-1 {
			for _, c := range clients {
				before := len(c.errs)
				c.cycle(proc.client)
				m.attempted += 3
				for _, err := range c.errs[before:] {
					m.fail("churn after restart: %v", err)
				}
			}
		}
	}
	sort.Float64s(recover)
	m.layer["recover.p50_s"] = percentile(recover, 50)
	return m, nil
}

// verifyLedger compares the recovered membership with the ledger:
// nothing acked lost, nothing invented, every tenant on the policy last
// acked for it — a DSL tenant by the hash of the swapped-in source.
func verifyLedger(m *measurement, p *serveProc, led *ledger) (restored int, err error) {
	apps, err := appsByName(p)
	if err != nil {
		return 0, err
	}
	for name := range apps {
		_, ok := led.apps[name]
		m.check(ok, "recovery invented tenant %s", name)
	}
	for name, want := range led.apps {
		st, ok := apps[name]
		if !ok || st.Policy == nil || st.Policy.Type != want.Type {
			m.check(false, "acked tenant %s: recovered %+v, want a %s policy", name, st.Policy, want.Type)
			continue
		}
		if want.Type == controlplane.PolicyDSL {
			sum := sha256.Sum256([]byte(want.Source))
			m.check(st.Policy.SourceHash == "sha256:"+hex.EncodeToString(sum[:]), "tenant %s: recovered source hash %s is not the acked policy's", name, st.Policy.SourceHash)
		} else {
			m.check(slices.Equal(st.Policy.Levels, want.Levels), "tenant %s: recovered ladder %v, want %v", name, st.Policy.Levels, want.Levels)
		}
	}
	return len(apps), nil
}
