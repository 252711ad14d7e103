package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	goruntime "runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/controlplane"
)

// env is what every run shares: where the checkout is, the built
// server binary, and a scratch directory on the checkout's disk.
type env struct {
	root       string // checkout root (holds go.mod and cmd/)
	serveBin   string
	workDir    string // per-process scratch under .bench_build/work
	buildS     float64
	gomaxprocs int // the server's GOMAXPROCS
	dataDirs   int // journal directories handed out so far
}

// newEnv builds ./cmd/antarex-serve once. The build time is reported as
// build_s and is not part of setup_s.
func newEnv(root string) (*env, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	build := filepath.Join(root, ".bench_build")
	e := &env{
		root:       root,
		serveBin:   filepath.Join(build, "antarex-serve"),
		workDir:    filepath.Join(build, "work", strconv.Itoa(os.Getpid())),
		gomaxprocs: min(goruntime.NumCPU(), 4),
	}

	if err := os.MkdirAll(e.workDir, 0o755); err != nil {
		return nil, err
	}
	t0 := time.Now()
	cmd := exec.Command("go", "build", "-o", e.serveBin, "./cmd/antarex-serve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("build antarex-serve: %v\n%s", err, out)
	}
	e.buildS = time.Since(t0).Seconds()
	return e, nil
}

func (e *env) cleanup() { os.RemoveAll(e.workDir) }

// serveProc is one running antarex-serve child.
type serveProc struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	client *controlplane.Client
	hc     *http.Client
	log    *os.File
}

// freeAddr grabs an ephemeral loopback port, as cmd/antarex-sim's
// crashloop does; nothing else binds on the bench host in the window
// between the close and the child's listen.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// startServe launches the server with the given deployment flags and
// returns once /healthz answers and wantApps tenants are attached (0 on
// a fresh plane, the ledger size after a restart on a journal). The
// probe loop polls without backoff: the client's own GET retry sleeps
// 50 ms and more, far coarser than the boot it would be timing.
func (e *env) startServe(args []string, wantApps int) (*serveProc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(filepath.Join(e.workDir, "serve.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(e.serveBin, append([]string{"-addr", addr}, args...)...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(e.gomaxprocs))
	cmd.Stdout, cmd.Stderr = logf, logf
	started := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	// Three connections at most per run (two streams and the SSE feed,
	// or two churn clients and a stream); control calls reuse idle ones.
	hc := &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: 4}}
	p := &serveProc{cmd: cmd, base: "http://" + addr, hc: hc, log: logf,
		client: controlplane.NewClient("http://"+addr, hc)}
	deadline := started.Add(30 * time.Second)
	for {
		if h, err := p.health(); err == nil && h.Running && h.Status == "ok" && h.Apps == wantApps {
			return p, nil
		}
		if time.Now().After(deadline) {
			p.kill()
			return nil, fmt.Errorf("server on %s never became healthy with %d apps (see %s)", addr, wantApps, logf.Name())
		}
		time.Sleep(time.Millisecond)
	}
}

// health is one un-retried GET /healthz.
func (p *serveProc) health() (controlplane.Health, error) {
	var h controlplane.Health
	resp, err := p.hc.Get(p.base + "/healthz")
	if err != nil {
		return h, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return h, fmt.Errorf("healthz: %s", resp.Status)
	}
	return h, json.NewDecoder(resp.Body).Decode(&h)
}

// settled waits until the membership generation the loops serve has
// caught up with the one admission produced.
func (p *serveProc) settled() error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		h, err := p.health()
		if err != nil {
			return err
		}
		if h.Generation == h.ServedGeneration {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("generation %d never served (at %d)", h.Generation, h.ServedGeneration)
		}
		time.Sleep(time.Millisecond)
	}
}

// kill SIGKILLs the child and waits until it has ended.
func (p *serveProc) kill() {
	p.cmd.Process.Signal(syscall.SIGKILL)
	p.cmd.Wait()
	p.hc.CloseIdleConnections()
	p.log.Close()
}

// userHZ is the kernel's clock-tick unit in /proc/<pid>/stat. It is 100
// on every Linux the bench runs on (sysconf(_SC_CLK_TCK) needs cgo).
const userHZ = 100

// cpu reads the child's cumulative user and system CPU seconds.
func (p *serveProc) cpu() (user, sys float64, err error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, 0, err
	}
	// The comm field may hold spaces; fields count from after its ')'.
	rest := string(data[strings.LastIndexByte(string(data), ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64) // utime is field 14 overall
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, 0, fmt.Errorf("bad /proc stat times")
	}
	return ut / userHZ, st / userHZ, nil
}

// onCPU is the child's cumulative time on a processor in seconds, summed
// over its threads from the scheduler's own accounting
// (/proc/<pid>/task/*/schedstat). The utime/stime of /proc/<pid>/stat
// are sampled at the 10 ms tick, and a server whose work is started by
// timers is sampled in step with its own wake-ups: between identical
// runs they differed by 20 %. ok is false where the kernel does not
// keep schedstat; the caller falls back to the tick counts.
func (p *serveProc) onCPU() (seconds float64, ok bool) {
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", p.cmd.Process.Pid))
	if err != nil || len(tasks) == 0 {
		return 0, false
	}
	var ns float64
	for _, t := range tasks {
		data, err := os.ReadFile(t)
		if err != nil {
			continue // the thread exited between the glob and the read
		}
		f := strings.Fields(string(data))
		if len(f) < 1 {
			return 0, false
		}
		v, err := strconv.ParseFloat(f[0], 64)
		if err != nil {
			return 0, false
		}
		ns += v
	}
	return ns / 1e9, true
}

// rssMB reads the child's resident set in MB: now (VmRSS) and at its
// peak (VmHWM).
func (p *serveProc) rssMB() (now, peak float64, err error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, 0, err
	}
	field := func(name string) float64 {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, name); ok {
				if f := strings.Fields(rest); len(f) > 0 {
					kb, _ := strconv.ParseFloat(f[0], 64)
					return kb / 1024
				}
			}
		}
		return 0
	}
	now, peak = field("VmRSS:"), field("VmHWM:")
	if now == 0 || peak == 0 {
		return 0, 0, fmt.Errorf("no VmRSS/VmHWM in /proc status")
	}
	return now, peak, nil
}

// selfCPU is the bench process's own cumulative CPU seconds.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
