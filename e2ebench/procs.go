// Process hygiene: the rcaserve and rcagate binaries are built from
// the tree under test into a temp dir, launched on free loopback ports
// with fresh temp WAL dirs, and reaped on every exit path. CPU time and
// peak RSS are read from /proc for each process separately, so the
// split between gateway and nodes stays visible.

package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// clockTick is USER_HZ, the unit of utime/stime in /proc/<pid>/stat
// (100 on every Linux ABI Go supports).
const clockTick = 10 * time.Millisecond

// binaries are the server executables built from the tree.
type binaries struct {
	dir      string
	rcaserve string
	rcagate  string
}

// buildBinaries compiles cmd/rcaserve and cmd/rcagate from the tree
// rooted at root into a fresh temp dir under tmpRoot.
func buildBinaries(ctx context.Context, root, tmpRoot string) (*binaries, error) {
	dir, err := os.MkdirTemp(tmpRoot, "bin-")
	if err != nil {
		return nil, err
	}
	b := &binaries{dir: dir, rcaserve: filepath.Join(dir, "rcaserve"), rcagate: filepath.Join(dir, "rcagate")}
	for _, target := range []struct{ out, pkg string }{{b.rcaserve, "./cmd/rcaserve"}, {b.rcagate, "./cmd/rcagate"}} {
		cmd := exec.CommandContext(ctx, "go", "build", "-o", target.out, target.pkg)
		cmd.Dir = root
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		if err := cmd.Run(); err != nil {
			os.RemoveAll(dir)
			return nil, fmt.Errorf("build %s: %w", target.pkg, err)
		}
	}
	return b, nil
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// proc is one launched server process.
type proc struct {
	log  string // stdout+stderr file
	name string // rcaserve node id or "rcagate"
	role string // "node" or "gateway"
	url  string
	cmd  *exec.Cmd
	done chan struct{} // closed once the process has been waited for
}

// procSet owns every server process of one setup; stop reaps them all.
type procSet struct {
	mu    sync.Mutex
	procs []*proc
}

// start launches bin with args on a free port and registers it.
// Children get SIGKILL if the benchmark dies without reaping them.
func (ps *procSet) start(name, role, bin string, args []string, logDir string) (*proc, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	logf, err := os.Create(filepath.Join(logDir, name+".log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.Env = serverEnv()
	p, err := ps.launch(name, role, "http://"+addr, cmd)
	if p != nil {
		p.log = logf.Name()
	}
	return p, err
}

// serverEnv is the benchmark's environment without GOMAXPROCS, so the
// servers run with the runtime default (one P per CPU).
func serverEnv() []string {
	var env []string
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, "GOMAXPROCS=") {
			env = append(env, kv)
		}
	}
	return env
}

// launch starts cmd and registers it. Children get SIGKILL if the
// benchmark dies without reaping them.
func (ps *procSet) launch(name, role, url string, cmd *exec.Cmd) (*proc, error) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL, Setpgid: true}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, role: role, url: url, cmd: cmd, done: make(chan struct{})}
	go func() {
		cmd.Wait() //nolint:errcheck // exit status is irrelevant once we decided to stop it
		close(p.done)
	}()
	ps.mu.Lock()
	ps.procs = append(ps.procs, p)
	ps.mu.Unlock()
	return p, nil
}

// stop interrupts every process, escalates to SIGKILL after a grace
// period and waits until each has exited.
func (ps *procSet) stop() {
	ps.mu.Lock()
	procs := ps.procs
	ps.procs = nil
	ps.mu.Unlock()
	for _, p := range procs {
		p.cmd.Process.Signal(os.Interrupt) //nolint:errcheck // already gone is fine
	}
	deadline := time.After(5 * time.Second)
	for _, p := range procs {
		select {
		case <-p.done:
		case <-deadline:
			for _, q := range procs {
				q.cmd.Process.Kill() //nolint:errcheck
			}
			<-p.done
		}
	}
	for _, p := range procs {
		<-p.done
	}
}

// list returns the live processes in start order.
func (ps *procSet) list() []*proc {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return append([]*proc(nil), ps.procs...)
}

// waitHealthy polls GET /healthz until it answers 200 or ctx ends; a
// process that exits first is an error.
func waitHealthy(ctx context.Context, c *http.Client, p *proc) error {
	for {
		select {
		case <-p.done:
			out, _ := os.ReadFile(p.log)
			return fmt.Errorf("%s exited during start-up: %s", p.name, bytes.TrimSpace(out[max(0, len(out)-600):]))
		default:
		}
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, p.url+"/healthz", nil)
		if resp, err := c.Do(req); err == nil {
			drain(resp)
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("%s not healthy: %w", p.name, ctx.Err())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// procUsage is one process's /proc accounting.
type procUsage struct {
	cpu    time.Duration // utime + stime
	hwmKiB int64         // VmHWM
}

// readUsage reads utime+stime and VmHWM for pid.
func readUsage(pid int) (procUsage, error) {
	var u procUsage
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return u, err
	}
	// Fields after the parenthesised comm, which may contain spaces.
	s := string(raw)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return u, errors.New("malformed /proc stat")
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return u, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64) // field 14
	st, err2 := strconv.ParseInt(f[12], 10, 64) // field 15
	if err1 != nil || err2 != nil {
		return u, errors.New("bad utime/stime")
	}
	u.cpu = time.Duration(ut+st) * clockTick

	sf, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return u, err
	}
	defer sf.Close()
	sc := bufio.NewScanner(sf)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb := strings.Fields(v)
			if len(kb) > 0 {
				u.hwmKiB, _ = strconv.ParseInt(kb[0], 10, 64)
			}
		}
	}
	return u, sc.Err()
}

// procSnapshot is the fleet's /proc accounting at one instant.
type procSnapshot struct {
	cpu    map[string]time.Duration // utime+stime summed by role ("node", "gateway")
	hwmKiB int64                    // VmHWM summed over every process
}

func (ps *procSet) usage() (procSnapshot, error) {
	s := procSnapshot{cpu: map[string]time.Duration{}}
	for _, p := range ps.list() {
		u, err := readUsage(p.cmd.Process.Pid)
		if err != nil {
			return s, fmt.Errorf("read /proc for %s: %w", p.name, err)
		}
		s.cpu[p.role] += u.cpu
		s.hwmKiB += u.hwmKiB
	}
	return s, nil
}

// drain discards and closes a response body so the connection is
// reused.
func drain(resp *http.Response) {
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // only the status matters
	resp.Body.Close()
}
