package main

import (
	"bufio"
	"errors"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestAbortMidWindow runs the benchmark binary on the sweep workload,
// interrupts it inside the timed window, and checks that nothing outlives
// it: the regenserve child is gone, its port refuses connections, and the
// run's temp directory (binary and snapshot stores) is removed.
func TestAbortMidWindow(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs regenserve")
	}
	bin := filepath.Join(t.TempDir(), "servebench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	cmd := exec.Command(bin, "-root", "..", "--workload", "sweep", "--seed", "1", "--seconds", "120", "--trace", "0")
	pr, pw := io.Pipe()
	cmd.Stdout, cmd.Stderr = pw, pw
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() {
		err := cmd.Wait()
		pw.Close()
		exited <- err
	}()
	defer cmd.Process.Kill() // no-op once it has exited

	var (
		pidRE  = regexp.MustCompile(`-addr (127\.0\.0\.1:\d+) .*\(pid (\d+)\)`)
		workRE = regexp.MustCompile(`work dir (\S+)`)
		addr   string
		pid    int
		work   string
		log    []string
	)
	sc := bufio.NewScanner(pr)
	for sc.Scan() {
		line := sc.Text()
		log = append(log, line)
		if m := pidRE.FindStringSubmatch(line); m != nil {
			addr = m[1]
			pid, _ = strconv.Atoi(m[2])
		}
		if m := workRE.FindStringSubmatch(line); m != nil {
			work = m[1]
		}
		if strings.Contains(line, "timed window open") {
			break
		}
	}
	if addr == "" || pid == 0 || work == "" {
		t.Fatalf("benchmark never opened its window:\n%q", log)
	}
	if err := syscall.Kill(pid, 0); err != nil {
		t.Fatalf("regenserve pid %d not alive inside the window: %v", pid, err)
	}
	time.Sleep(time.Second) // well inside the window
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	go io.Copy(io.Discard, pr)
	select {
	case err := <-exited:
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() == 0 {
			t.Errorf("interrupted benchmark exited with %v; want a non-zero exit", err)
		}
	case <-time.After(90 * time.Second):
		t.Fatal("benchmark did not exit within 90 s of SIGINT")
	}

	if err := syscall.Kill(pid, 0); !errors.Is(err, syscall.ESRCH) {
		t.Errorf("regenserve pid %d survived the benchmark: kill(0) = %v", pid, err)
	}
	if err := syscall.Kill(-pid, 0); !errors.Is(err, syscall.ESRCH) {
		t.Errorf("regenserve's process group %d survived the benchmark: kill(0) = %v", pid, err)
	}
	if c, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		c.Close()
		t.Errorf("port %s still accepts connections", addr)
	}
	if _, err := os.Stat(work); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("temp directory %s left behind (stat: %v)", work, err)
	}
}
