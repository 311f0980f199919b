package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// newHTTPClient returns a client keeping one connection per closed-loop
// client alive, as a real caller would.
func newHTTPClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// outcome is what one request observed. Response bytes are kept and
// checked after the timed window.
type outcome struct {
	Req     *request
	Status  int
	Latency time.Duration
	Done    time.Duration // completion, since the window opened
	Body    []byte
	Err     error
}

// post sends one pre-encoded body and reads the whole response; the latency
// runs from the send to the last response byte.
func post(ctx context.Context, c *http.Client, url string, body []byte) (status int, resp []byte, lat time.Duration, err error) {
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	hr.Header.Set("Content-Type", "application/json")
	t0 := time.Now()
	r, err := c.Do(hr)
	if err != nil {
		return 0, nil, time.Since(t0), err
	}
	resp, err = io.ReadAll(r.Body)
	lat = time.Since(t0)
	r.Body.Close()
	return r.StatusCode, resp, lat, err
}

// closedLoop runs clients closed-loop callers over reqs, in stream order,
// until the stream is used up or the window of length d has passed; a
// request in flight when the window closes completes and counts. A client
// pauses for a request's Think time before sending it. It returns
// the outcomes in completion order and the wall time from the first send to
// the last completion.
func closedLoop(ctx context.Context, c *http.Client, addr string, reqs []*request, clients int, d time.Duration) ([]outcome, time.Duration, error) {
	url := "http://" + addr + "/v1/query"
	var (
		next atomic.Int64
		mu   sync.Mutex
		outs = make([]outcome, 0, len(reqs))
		wg   sync.WaitGroup
		errs = make([]error, clients)
	)
	start := time.Now()
	deadline := start.Add(d)
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer catch(&errs[k])
			for ctx.Err() == nil && time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				if d := reqs[i].Think; d > 0 {
					select {
					case <-time.After(d):
					case <-ctx.Done():
						return
					}
				}
				st, body, lat, err := post(ctx, c, url, reqs[i].Body)
				mu.Lock()
				outs = append(outs, outcome{Req: reqs[i], Status: st, Latency: lat, Done: time.Since(start), Body: body, Err: err})
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return outs, time.Since(start), errors.Join(errs...)
}

// varz reads the server's flat counters.
func varz(c *http.Client, addr string) (map[string]float64, error) {
	return getJSON(c, "http://"+addr+"/varz")
}

// healthz reads the server's health document.
func healthz(c *http.Client, addr string) (map[string]float64, error) {
	return getJSON(c, "http://"+addr+"/healthz")
}

// getJSON fetches a flat JSON object and keeps its numeric members.
func getJSON(c *http.Client, url string) (map[string]float64, error) {
	r, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, r.Status)
	}
	var raw map[string]any
	if err := json.NewDecoder(r.Body).Decode(&raw); err != nil {
		return nil, fmt.Errorf("GET %s: %w", url, err)
	}
	out := make(map[string]float64, len(raw))
	for k, v := range raw {
		if f, ok := v.(float64); ok {
			out[k] = f
		}
	}
	return out, nil
}

// delta returns after[k] − before[k].
func delta(before, after map[string]float64, k string) float64 { return after[k] - before[k] }

// vmHWM returns the peak resident set of pid in MiB, from /proc/<pid>/status.
func vmHWM(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) < 1 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat times (100 on every
// Linux architecture Go supports).
const clockTicks = 100

// cpuTime returns utime + stime of pid from /proc/<pid>/stat.
func cpuTime(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may contain spaces; fields resume after its ')'.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat times", pid)
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// cpuModel returns the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
		}
	}
	return "unknown"
}
