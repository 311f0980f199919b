package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// config is one invocation of the benchmark.
type config struct {
	Workload string
	Seed     int64
	Seconds  int
	Trace    bool
	Root     string
}

// Closed-loop clients of a timed window: the machine has two cores, and
// regenserve's callers wait for each reply.
const clients = 2

// stopGrace bounds a server's SIGTERM drain. The sweep node flushes ~210 MB
// of snapshots while draining.
const stopGrace = 60 * time.Second

// metric is one named, united value of the final result line.
type metric struct {
	Name  string
	Value float64
	Unit  string
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.Workload, "workload", "", "workload: sweep, rebind or coldstart")
	flag.Int64Var(&cfg.Seed, "seed", 1, "seed of the generated requests")
	flag.IntVar(&cfg.Seconds, "seconds", 10, "length of the measured window")
	flag.IntVar(&trace, "trace", 0, "1 = traced run printing the per-layer metrics")
	flag.StringVar(&cfg.Root, "root", ".", "repository root holding cmd/regenserve")
	flag.Parse()
	cfg.Trace = trace == 1
	if _, ok := workloads[cfg.Workload]; !ok || (trace != 0 && trace != 1) || cfg.Seconds < 1 {
		fmt.Fprintf(os.Stderr, "servebench: need --workload sweep|rebind|coldstart, --trace 0|1, --seconds ≥ 1\n")
		os.Exit(2)
	}

	ctx, cancel := context.WithCancel(context.Background())
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		sig := <-sigc
		fmt.Fprintf(os.Stderr, "servebench: %v: stopping regenserve and removing temp directories\n", sig)
		cancel()
		reap.cleanup(5 * time.Second)
		os.Exit(128 + int(sig.(syscall.Signal)))
	}()
	defer func() {
		if r := recover(); r != nil {
			reap.cleanup(5 * time.Second)
			fmt.Fprintf(os.Stderr, "servebench: panic: %v\n", r)
			os.Exit(3)
		}
	}()

	res, err := run(ctx, cfg)
	reap.cleanup(stopGrace)
	if err != nil {
		var wa *wrongAnswer
		if errors.As(err, &wa) {
			fmt.Printf("CHECK FAILED: %v\n", err)
		}
		fmt.Fprintf(os.Stderr, "servebench: %v\n", err)
		os.Exit(1)
	}
	line := map[string]any{"correct": true, "attempted": res.attempted, "failed": res.failed}
	ms := map[string]any{}
	for _, m := range res.metrics {
		ms[m.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	line["metrics"] = ms
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(os.Stderr, "servebench: encoding result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// result is what the final line reports.
type result struct {
	attempted, failed int
	metrics           []metric
}

// deployment is a workload's server, set up and ready for its timed
// window, with the pre-encoded streams and the answer check.
type deployment struct {
	srv    *server
	setups []time.Duration
	warmup []*request
	timed  []*request
	check  func(outs []outcome) (int, error)
	// What the traced replay needs to rebuild the server's state.
	snapDir string
	ids     sweepIDs
	modelID string
}

// workloads maps each workload to its set-up.
var workloads = map[string]func(ctx context.Context, e *env) (*deployment, error){
	"sweep":     setupSweep,
	"rebind":    setupRebind,
	"coldstart": setupCold,
}

// env is what every set-up shares.
type env struct {
	cfg  config
	bin  string
	work string
	rc   *raidChains
	http *http.Client
}

func run(ctx context.Context, cfg config) (*result, error) {
	root, err := filepath.Abs(cfg.Root)
	if err != nil {
		return nil, err
	}
	cfg.Root = root
	work, err := reap.tempDir(filepath.Join(root, ".bench_build"), "run-")
	if err != nil {
		return nil, err
	}
	progress("work dir %s", work)
	bin, err := buildServer(ctx, root, work)
	if err != nil {
		return nil, err
	}
	progress("regenserve built")
	rc, err := newRAIDChains()
	if err != nil {
		return nil, err
	}
	e := &env{cfg: cfg, bin: bin, work: work, rc: rc, http: newHTTPClient(clients)}
	fmt.Printf("servebench: workload=%s seed=%d seconds=%d trace=%v\n", cfg.Workload, cfg.Seed, cfg.Seconds, cfg.Trace)
	fmt.Printf("servebench: cpu %q, %d CPUs, GOMAXPROCS %d (regenserve inherits the default)\n", cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0))
	d, err := workloads[cfg.Workload](ctx, e)
	if err != nil {
		return nil, err
	}
	progress("set up")
	fmt.Printf("servebench: regenserve %s (pid %d)\n", strings.Join(d.srv.Args, " "), d.srv.Pid())
	fmt.Printf("setup: %d lives, exec → first request servable: %s s\n", len(d.setups), fmtDurations(d.setups))
	if cfg.Trace {
		return traceRun(ctx, e, d)
	}
	return timedRun(ctx, e, d)
}

// timedRun sends the warm-up requests, measures the timed window with
// tracing off, stops the server and checks every answer.
func timedRun(ctx context.Context, e *env, d *deployment) (*result, error) {
	url := "http://" + d.srv.Addr + "/v1/query"
	vw, err := varz(e.http, d.srv.Addr)
	if err != nil {
		return nil, err
	}
	for _, r := range d.warmup {
		if _, _, _, err := post(ctx, e.http, url, r.Body); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	v0, err := varz(e.http, d.srv.Addr)
	if err != nil {
		return nil, err
	}
	fmt.Printf("warm-up: %d requests, /varz series_extensions +%g (steps saved +%g)\n",
		len(d.warmup), delta(vw, v0, "series_extensions"), delta(vw, v0, "series_extension_steps_saved"))
	hz0, err := healthz(e.http, d.srv.Addr)
	if err != nil {
		return nil, err
	}
	cpu0, err := cpuTime(d.srv.Pid())
	if err != nil {
		return nil, err
	}
	settle()
	progress("timed window open (%d s, %d closed-loop clients)", e.cfg.Seconds, clients)
	outs, wall, err := closedLoop(ctx, e.http, d.srv.Addr, d.timed, clients, time.Duration(e.cfg.Seconds)*time.Second)
	if err != nil {
		return nil, err
	}
	progress("timed window closed")
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	v1, err := varz(e.http, d.srv.Addr)
	if err != nil {
		return nil, err
	}
	hz, err := healthz(e.http, d.srv.Addr)
	if err != nil {
		return nil, err
	}
	rss, err := vmHWM(d.srv.Pid())
	if err != nil {
		return nil, err
	}
	cpu1, err := cpuTime(d.srv.Pid())
	if err != nil {
		return nil, err
	}
	d.srv.stop(stopGrace)
	progress("regenserve stopped")
	if len(outs) == len(d.timed) {
		fmt.Printf("note: the pre-encoded stream (%d requests) ran out before the window closed\n", len(d.timed))
	}

	failed, byClass, lats, points := tally(outs)
	server := int(delta(v0, v1, "shed") + delta(v0, v1, "timeouts") + delta(v0, v1, "panics"))
	failed = max(failed, server)
	fmt.Printf("window: %d requests from %d closed-loop clients in %.3f s; completions per 5 s: %v\n", len(outs), clients, wall.Seconds(), perInterval(outs, 5*time.Second))
	for _, c := range allClasses {
		if ls := byClass[c]; len(ls) > 0 {
			fmt.Printf("  class %-15s n=%-5d p50 %8.2f ms  p90 %8.2f ms\n", c, len(ls), quantile(ls, 0.5), quantile(ls, 0.9))
		}
	}
	fmt.Printf("  latency deciles (ms):")
	for q := 1; q <= 9; q++ {
		fmt.Printf(" %.1f", quantile(lats, float64(q)/10))
	}
	fmt.Println()
	fmt.Printf("failed: %d of %d (failed_frac %.4g); /varz shed +%g timeouts +%g panics +%g\n",
		failed, len(outs), float64(failed)/float64(max(len(outs), 1)), delta(v0, v1, "shed"), delta(v0, v1, "timeouts"), delta(v0, v1, "panics"))
	fmt.Printf("server: cpu %.2f s over the window, VmHWM %.1f MiB, cache %g → %g models / %.1f → %.1f MiB, series hits +%g misses +%g extensions +%g\n",
		(cpu1 - cpu0).Seconds(), rss, hz0["cached_models"], hz["cached_models"], hz0["cache_bytes"]/(1<<20), hz["cache_bytes"]/(1<<20),
		delta(v0, v1, "series_cache_hits"), delta(v0, v1, "series_cache_misses"), delta(v0, v1, "series_extensions"))
	if e.cfg.Workload == "sweep" && delta(v0, v1, "series_extensions") != 0 {
		return nil, fmt.Errorf("sweep: /varz series_extensions moved by %g; a request deepened a prebuilt chain", delta(v0, v1, "series_extensions"))
	}
	if len(outs) == 0 {
		return nil, errors.New("no request completed in the window")
	}

	n, err := d.check(outs)
	if err != nil {
		return nil, err
	}
	progress("answers checked")
	fmt.Printf("check: %d of %d successful answers checked against the independent oracle: OK\n", n, len(outs)-failed)

	// A failed request's +Inf latency is reported as the whole window.
	capped := func(ms float64) float64 { return math.Min(ms, float64(wall)/float64(time.Millisecond)) }
	vals := map[string]float64{
		"latency_p50_ms": capped(quantile(lats, 0.5)),
		"latency_p90_ms": capped(quantile(lats, 0.9)),
		"points_per_s":   float64(points) / wall.Seconds(),
		"rss_peak_mb":    rss,
		"setup_s":        median(d.setups),
	}
	res := &result{attempted: len(outs), failed: failed}
	for _, m := range endToEnd {
		res.metrics = append(res.metrics, metric{Name: m.Name, Value: vals[m.Name], Unit: m.Unit})
	}
	return res, nil
}

// endToEnd lists the metrics of a timed run (--trace 0).
var endToEnd = []metric{
	{Name: "latency_p50_ms", Unit: "ms"},
	{Name: "latency_p90_ms", Unit: "ms"},
	{Name: "points_per_s", Unit: "1/s"},
	{Name: "rss_peak_mb", Unit: "MiB"},
	{Name: "setup_s", Unit: "s"},
}

// tally counts failed requests and returns the latencies (ms) overall and
// by class, and the number of values returned by successful requests. A
// failed request counts as missing every latency limit: it enters the
// percentiles as +Inf.
func tally(outs []outcome) (failed int, byClass map[string][]float64, lats []float64, points int) {
	byClass = map[string][]float64{}
	for i := range outs {
		o := &outs[i]
		ms := float64(o.Latency) / float64(time.Millisecond)
		if _, why := failure(o); why != "" {
			failed++
			ms = math.Inf(1)
			fmt.Fprintf(os.Stderr, "servebench: request %d (%s) failed: %s\n", o.Req.Index, o.Req.Class, why)
		} else {
			points += o.Req.points()
		}
		lats = append(lats, ms)
		byClass[o.Req.Class] = append(byClass[o.Req.Class], ms)
	}
	return failed, byClass, lats, points
}

// perInterval counts completions per interval of the window, to show
// drift inside a run.
func perInterval(outs []outcome, d time.Duration) []int {
	var n []int
	for _, o := range outs {
		i := int(o.Done / d)
		for len(n) <= i {
			n = append(n, 0)
		}
		n[i]++
	}
	return n
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	// Equal neighbours (two +Inf among them) need no interpolation.
	lo, hi := s[i], s[i+1]
	if frac := pos - float64(i); frac > 0 && hi != lo {
		return lo + frac*(hi-lo)
	}
	return lo
}

// started is when the benchmark process began; progress lines carry the
// time since.
var started = time.Now()

// progress prints one progress line to standard error.
func progress(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "servebench [%6.1fs]: %s\n", time.Since(started).Seconds(), fmt.Sprintf(format, args...))
}

// settle collects the benchmark's own garbage (generated streams, set-up)
// before a window opens, so its GC does not compete with the server for
// the cores while the window measures.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}

// median returns the median of ds in seconds.
func median(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return quantile(xs, 0.5)
}

func fmtDurations(ds []time.Duration) string {
	var parts []string
	for _, d := range ds {
		parts = append(parts, fmt.Sprintf("%.4f", d.Seconds()))
	}
	return strings.Join(parts, " ") + fmt.Sprintf(" (median %.4f)", median(ds))
}
