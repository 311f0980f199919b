package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"syscall"
	"time"
)

// spawnReq asks the spawner thread to start one command.
type spawnReq struct {
	cmd  *exec.Cmd
	done chan error
}

var (
	spawnOnce sync.Once
	spawnCh   = make(chan spawnReq)
)

// startLocked starts cmd from one OS thread that never exits. The kernel
// delivers Pdeathsig when the thread that forked the child exits, not the
// process, so a child forked from an ordinary goroutine could be killed
// whenever the Go runtime retires that thread.
func startLocked(cmd *exec.Cmd) error {
	spawnOnce.Do(func() {
		go func() {
			runtime.LockOSThread() // held for the life of the process
			for r := range spawnCh {
				r.done <- r.cmd.Start()
			}
		}()
	})
	done := make(chan error, 1)
	spawnCh <- spawnReq{cmd: cmd, done: done}
	return <-done
}

// reaper owns every child process and temp directory of a run, so that
// each exit path — normal, failed check, panic or signal — stops and removes
// all of them. Once closed it refuses new resources and releases them at
// once.
type reaper struct {
	mu     sync.Mutex
	closed bool
	procs  map[*proc]struct{}
	dirs   []string

	// cleaning is held for a whole cleanup, so a second caller (main
	// unwinding while the signal handler cleans up) returns only once
	// everything is stopped and removed.
	cleaning sync.Mutex
}

var reap = &reaper{procs: map[*proc]struct{}{}}

// tempDir creates a directory under parent that cleanup removes.
func (r *reaper) tempDir(parent, pattern string) (string, error) {
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return "", err
	}
	d, err := os.MkdirTemp(parent, pattern)
	if err != nil {
		return "", err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		os.RemoveAll(d)
		return "", errShutdown
	}
	r.dirs = append(r.dirs, d)
	return d, nil
}

var errShutdown = errors.New("servebench: shutting down")

// cleanup stops every live child (SIGTERM, bounded wait, SIGKILL of the
// group) and removes every temp directory. Safe to call more than once.
func (r *reaper) cleanup(grace time.Duration) {
	r.cleaning.Lock()
	defer r.cleaning.Unlock()
	r.mu.Lock()
	r.closed = true
	procs := make([]*proc, 0, len(r.procs))
	for p := range r.procs {
		procs = append(procs, p)
	}
	dirs := r.dirs
	r.dirs = nil
	r.mu.Unlock()
	var wg sync.WaitGroup
	for _, p := range procs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.stop(grace)
		}()
	}
	wg.Wait()
	for i := len(dirs) - 1; i >= 0; i-- {
		os.RemoveAll(dirs[i])
	}
}

// proc is one child process in its own process group.
type proc struct {
	cmd   *exec.Cmd
	done  chan struct{} // closed once Wait has returned
	err   error         // Wait's result, readable after done
	once  sync.Once
	start time.Time
}

// startProc starts cmd in its own process group with Pdeathsig=SIGKILL and
// hands it to the reaper.
func startProc(cmd *exec.Cmd) (*proc, error) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	p := &proc{cmd: cmd, done: make(chan struct{})}
	reap.mu.Lock()
	defer reap.mu.Unlock()
	if reap.closed {
		return nil, errShutdown
	}
	p.start = time.Now()
	if err := startLocked(cmd); err != nil {
		return nil, err
	}
	reap.procs[p] = struct{}{}
	go func() {
		p.err = cmd.Wait()
		close(p.done)
	}()
	return p, nil
}

// Pid returns the child's process id, which is also its process group id.
func (p *proc) Pid() int { return p.cmd.Process.Pid }

// stop sends SIGTERM, waits up to grace for the child to exit on its own,
// then SIGKILLs its process group, and returns once the child is reaped.
func (p *proc) stop(grace time.Duration) {
	p.once.Do(func() {
		// A reaped pid may be reused, so signal only a child not yet reaped.
		if !p.exited() {
			_ = syscall.Kill(p.Pid(), syscall.SIGTERM)
			select {
			case <-p.done:
			case <-time.After(grace):
				_ = syscall.Kill(-p.Pid(), syscall.SIGKILL)
				<-p.done
			}
		}
		reap.mu.Lock()
		delete(reap.procs, p)
		reap.mu.Unlock()
	})
}

// exited reports whether the child has ended.
func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// buildServer compiles cmd/regenserve of the tree at root into dir.
func buildServer(ctx context.Context, root, dir string) (string, error) {
	bin := filepath.Join(dir, "regenserve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/regenserve")
	cmd.Dir = root
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	p, err := startProc(cmd)
	if err != nil {
		return "", fmt.Errorf("building regenserve: %w", err)
	}
	select {
	case <-p.done:
	case <-ctx.Done():
		p.stop(0)
		return "", ctx.Err()
	}
	p.stop(0)
	if p.err != nil {
		return "", fmt.Errorf("building regenserve: %v\n%s", p.err, out.String())
	}
	return bin, nil
}

// freePort returns a loopback address with a port that was free a moment ago.
func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// server is one life of a regenserve child.
type server struct {
	*proc
	Addr string
	Args []string
	log  *tailBuffer
}

// startServer starts bin on a free loopback port.
func startServer(bin string, extra ...string) (*server, error) {
	addr, err := freePort()
	if err != nil {
		return nil, err
	}
	s := &server{Addr: addr, Args: append([]string{"-addr", addr}, extra...), log: &tailBuffer{max: 64 << 10}}
	cmd := exec.Command(bin, s.Args...)
	cmd.Stdout, cmd.Stderr = s.log, s.log
	if s.proc, err = startProc(cmd); err != nil {
		return nil, fmt.Errorf("starting regenserve: %w", err)
	}
	return s, nil
}

// waitReady polls /healthz until it answers 200 and returns the time since
// the child was exec'd.
func (s *server) waitReady(ctx context.Context, c *http.Client, limit time.Duration) (time.Duration, error) {
	deadline := time.Now().Add(limit)
	for {
		resp, err := c.Get("http://" + s.Addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return time.Since(s.start), nil
			}
		}
		if s.exited() {
			return 0, fmt.Errorf("regenserve exited during start-up:\n%s", s.log.String())
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("regenserve not ready after %v:\n%s", limit, s.log.String())
		}
		select {
		case <-ctx.Done():
			return 0, ctx.Err()
		case <-time.After(200 * time.Microsecond):
		}
	}
}

// catch turns a panic on the calling goroutine into *errp, so the run
// unwinds through main's cleanup instead of crashing past it.
func catch(errp *error) {
	if r := recover(); r != nil {
		*errp = fmt.Errorf("panic: %v\n%s", r, debug.Stack())
	}
}

// tailBuffer keeps the last max bytes written to it.
type tailBuffer struct {
	mu  sync.Mutex
	max int
	b   []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.b = append(t.b, p...)
	if len(t.b) > t.max {
		t.b = append(t.b[:0], t.b[len(t.b)-t.max:]...)
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.b)
}
