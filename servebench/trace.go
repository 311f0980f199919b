package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"
)

// span is one timed interval of the traced run: an HTTP request, the
// engine call replayed in-process through the root API, or a layer call
// replayed through an internal package's public functions.
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent"` // -1 for a root
	Req    int                `json:"req"`    // request index; -1 for set-up spans
	Class  string             `json:"class,omitempty"`
	Name   string             `json:"name"`
	Start  float64            `json:"start_ms"` // since the trace began
	End    float64            `json:"end_ms"`
	Counts map[string]float64 `json:"counts,omitempty"`
}

func (s *span) ms() float64 { return s.End - s.Start }

// tracer keeps every span in memory until the run ends.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []*span
	off    bool // warm-up replays record nothing

	// Engine-span accounting of the benchmark's own heap (the pool layer).
	allocs, gcs uint64
	engines     int
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) now() float64 { return float64(time.Since(t.origin)) / float64(time.Millisecond) }

// begin opens a span and returns its id (-1 when tracing is off).
func (t *tracer) begin(req int, class string, parent int, name string) int {
	if t.off {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &span{ID: len(t.spans), Parent: parent, Req: req, Class: class, Name: name, Start: t.now()}
	t.spans = append(t.spans, s)
	return s.ID
}

// end closes span id and records its counts.
func (t *tracer) end(id int, counts map[string]float64) {
	if id < 0 {
		return
	}
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	t.spans[id].Counts = counts
}

// engine runs f, the root-API replay of request r, inside an engine span
// started on a collected heap, accounts its allocations and GC cycles to the
// pool metrics, and returns the span's id.
func (t *tracer) engine(r *request, parent int, f func() error) (int, error) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	id := t.begin(r.Index, r.Class, parent, "engine.query")
	err := f()
	t.end(id, nil)
	runtime.ReadMemStats(&m1)
	if !t.off {
		t.allocs += m1.TotalAlloc - m0.TotalAlloc
		t.gcs += uint64(m1.NumGC - m0.NumGC)
		t.engines++
	}
	return id, err
}

// setCounts replaces the counts of a closed span.
func (t *tracer) setCounts(id int, counts map[string]float64) {
	if id < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].Counts = counts
}

// timed runs f inside a span.
func (t *tracer) timed(req int, class string, parent int, name string, f func() (map[string]float64, error)) error {
	id := t.begin(req, class, parent, name)
	counts, err := f()
	t.end(id, counts)
	return err
}

// write stores the spans as JSON and returns the file name.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	p := filepath.Join(dir, name)
	b, err := json.Marshal(t.spans)
	if err != nil {
		return "", err
	}
	return p, os.WriteFile(p, b, 0o644)
}

// mirror replays requests in the benchmark's own process on a state built
// like the server's: once through the root API (the engine span) and once
// through the internal layers (the child spans).
type mirror interface {
	replay(ctx context.Context, tr *tracer, r *request, parent int) error
	// parSample runs the i-th extra request through the root API only.
	parSample(ctx context.Context, i int) error
}

// perLayer lists every per-layer metric in output order. Timings are
// medians over the traced requests of the per-request sum of a layer's
// spans, unless the name says otherwise.
var perLayer = func() []metric {
	ms := []metric{}
	for _, c := range allClasses {
		ms = append(ms, metric{Name: "regenserve.overhead_ms." + c, Unit: "ms"})
	}
	ms = append(ms,
		metric{Name: "regenserve.cpu_ms_per_req", Unit: "ms"},
		metric{Name: "regenserve.req_kb", Unit: "KiB"},
		metric{Name: "regenserve.resp_kb", Unit: "KiB"},
		metric{Name: "regenserve.shed", Unit: "count"},
		metric{Name: "regenserve.timeouts", Unit: "count"},
		metric{Name: "regenserve.panics", Unit: "count"},
		metric{Name: "ctmc.build_ms", Unit: "ms"},
		metric{Name: "compile.ms", Unit: "ms"},
		metric{Name: "cache.series_hit_ratio", Unit: "ratio"},
		metric{Name: "cache.entries", Unit: "count"},
		metric{Name: "cache.mb", Unit: "MiB"},
		metric{Name: "snapshot.load_ms", Unit: "ms"},
		metric{Name: "store.read_ms", Unit: "ms"},
		metric{Name: "snapshot.mb", Unit: "MiB"},
		metric{Name: "snapshot.loads", Unit: "count"},
		metric{Name: "snapshot.load_failures", Unit: "count"},
		metric{Name: "snapshot.writeback_mb", Unit: "MiB"},
		metric{Name: "regen.steps_per_req", Unit: "count"},
		metric{Name: "regen.step_ms", Unit: "ms"},
		metric{Name: "regen.ns_per_step", Unit: "ns"},
		metric{Name: "regen.replay_ms.full", Unit: "ms"},
		metric{Name: "regen.replay_ms.compact", Unit: "ms"},
		metric{Name: "regen.extension_steps_saved", Unit: "count"},
		metric{Name: "sparse.gflops_computed", Unit: "GFLOP/s"},
		metric{Name: "sparse.replay_gbps_computed", Unit: "GB/s"},
		metric{Name: "rrl.pack_ms", Unit: "ms"},
		metric{Name: "rrl.abscissae_per_s", Unit: "1/s"},
		metric{Name: "laplace.invert_ms", Unit: "ms"},
		metric{Name: "laplace.abscissae_per_point.durbin", Unit: "count"},
		metric{Name: "laplace.abscissae_per_point.euler", Unit: "count"},
		metric{Name: "par.speedup_1to2", Unit: "x"},
		metric{Name: "pool.alloc_kb_per_req", Unit: "KiB"},
		metric{Name: "pool.gc_per_kreq", Unit: "count"},
	)
	for _, c := range allClasses {
		ms = append(ms, metric{Name: "engine.query_ms." + c, Unit: "ms"})
	}
	for _, c := range allClasses {
		ms = append(ms, metric{Name: "engine.unexplained_ms." + c, Unit: "ms"})
	}
	return ms
}()

// parPairs is the number of sample pairs per GOMAXPROCS setting behind
// par.speedup_1to2.
const parPairs = 3

// traceRun is the separate traced run: one request in flight, each sent
// over HTTP and then replayed in-process, spans kept in memory and written
// out at the end. Its answers are checked like a timed run's.
func traceRun(ctx context.Context, e *env, d *deployment) (*result, error) {
	tr := newTracer()
	m, err := newMirror(ctx, e, d, tr)
	if err != nil {
		return nil, err
	}
	url := "http://" + d.srv.Addr + "/v1/query"
	tr.off = true
	for _, r := range d.warmup {
		if _, _, _, err := post(ctx, e.http, url, r.Body); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		if err := m.replay(ctx, tr, r, -1); err != nil {
			return nil, fmt.Errorf("warm-up replay: %w", err)
		}
	}
	tr.off = false

	v0, err := varz(e.http, d.srv.Addr)
	if err != nil {
		return nil, err
	}
	cpu0, err := cpuTime(d.srv.Pid())
	if err != nil {
		return nil, err
	}
	var (
		outs     []outcome
		reqBytes float64
		deadline = time.Now().Add(time.Duration(e.cfg.Seconds) * time.Second)
	)
	settle()
	progress("traced window open (%d s, one request in flight)", e.cfg.Seconds)
	for _, r := range d.timed {
		if time.Now().After(deadline) || ctx.Err() != nil {
			break
		}
		root := tr.begin(r.Index, r.Class, -1, "regenserve.request")
		st, body, lat, err := post(ctx, e.http, url, r.Body)
		tr.end(root, map[string]float64{"req_bytes": float64(len(r.Body)), "resp_bytes": float64(len(body))})
		outs = append(outs, outcome{Req: r, Status: st, Latency: lat, Body: body, Err: err})
		reqBytes += float64(len(r.Body))
		if err := m.replay(ctx, tr, r, root); err != nil {
			return nil, fmt.Errorf("replaying request %d: %w", r.Index, err)
		}
	}
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
	cpu1, err := cpuTime(d.srv.Pid())
	if err != nil {
		return nil, err
	}
	d.srv.stop(stopGrace)

	speedup, err := parSpeedup(ctx, m)
	if err != nil {
		return nil, err
	}
	wbMB := 0.0
	if e.cfg.Workload == "coldstart" {
		if wbMB, err = writebackProbe(ctx, e); err != nil {
			return nil, err
		}
	}

	if len(outs) == 0 {
		return nil, fmt.Errorf("no request traced")
	}
	failed, _, _, _ := tally(outs)
	server := int(delta(v0, v1, "shed") + delta(v0, v1, "timeouts") + delta(v0, v1, "panics"))
	failed = max(failed, server)
	n, err := d.check(outs)
	if err != nil {
		return nil, err
	}
	fmt.Printf("check: %d traced answers checked against the independent oracle: OK\n", n)

	vals := layerMetrics(tr.spans)
	k := float64(len(outs))
	vals["regenserve.cpu_ms_per_req"] = float64(cpu1-cpu0) / float64(time.Millisecond) / k
	vals["regenserve.req_kb"] = reqBytes / 1024 / k
	vals["regenserve.resp_kb"] = sumCount(tr.spans, "regenserve.request", "resp_bytes") / 1024 / k
	vals["regenserve.shed"] = delta(v0, v1, "shed")
	vals["regenserve.timeouts"] = delta(v0, v1, "timeouts")
	vals["regenserve.panics"] = delta(v0, v1, "panics")
	if hm := delta(v0, v1, "series_cache_hits") + delta(v0, v1, "series_cache_misses"); hm > 0 {
		vals["cache.series_hit_ratio"] = delta(v0, v1, "series_cache_hits") / hm
	}
	vals["cache.entries"] = hz["cached_models"]
	vals["cache.mb"] = hz["cache_bytes"] / (1 << 20)
	vals["snapshot.loads"] = v1["snapshot_loads"]
	vals["snapshot.load_failures"] = v1["snapshot_load_failures"]
	vals["snapshot.writeback_mb"] = wbMB
	vals["regen.extension_steps_saved"] = delta(v0, v1, "series_extension_steps_saved")
	for inv, per := range abscissaePerPoint(outs) {
		vals["laplace.abscissae_per_point."+inv] = per
	}
	vals["par.speedup_1to2"] = speedup
	vals["pool.alloc_kb_per_req"] = float64(tr.allocs) / 1024 / float64(tr.engines)
	vals["pool.gc_per_kreq"] = float64(tr.gcs) * 1000 / float64(tr.engines)

	p, err := tr.write(filepath.Join(e.cfg.Root, ".bench_build", "traces"), fmt.Sprintf("%s-seed%d.json", e.cfg.Workload, e.cfg.Seed))
	if err != nil {
		return nil, err
	}
	fmt.Printf("trace: %d requests, %d spans written to %s\n", len(outs), len(tr.spans), p)
	fmt.Printf("trace: total ms by span over the traced requests: %s\n", spanTotals(tr.spans))
	res := &result{attempted: len(outs), failed: failed}
	for _, pm := range perLayer {
		v := vals[pm.Name]
		res.metrics = append(res.metrics, metric{Name: pm.Name, Value: v, Unit: pm.Unit})
		fmt.Printf("  %-40s %14.4f %s\n", pm.Name, v, pm.Unit)
	}
	return res, nil
}

// layerMetrics derives the span-based per-layer metrics.
func layerMetrics(spans []*span) map[string]float64 {
	vals := map[string]float64{}
	children := map[int][]*span{}
	perReq := map[string]map[int]float64{} // layer span name → request → summed ms
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
		if perReq[s.Name] == nil {
			perReq[s.Name] = map[int]float64{}
		}
		perReq[s.Name][s.Req] += s.ms()
	}
	// medianOf is the median over the traced requests of per-request sums;
	// set-up spans (request -1) stay out.
	medianOf := func(byReq map[int]float64) float64 {
		var xs []float64
		for req, v := range byReq {
			if req >= 0 {
				xs = append(xs, v)
			}
		}
		return quantile(xs, 0.5)
	}
	medianOver := func(name string) float64 { return medianOf(perReq[name]) }
	spanMedian := func(name string) float64 {
		var xs []float64
		for _, s := range spans {
			if s.Name == name {
				xs = append(xs, s.ms())
			}
		}
		return quantile(xs, 0.5)
	}
	vals["ctmc.build_ms"] = medianOver("ctmc.build")
	vals["compile.ms"] = spanMedian("compile.basis")
	vals["snapshot.load_ms"] = spanMedian("snapshot.load")
	vals["store.read_ms"] = spanMedian("store.read")
	vals["snapshot.mb"] = sumCount(spans, "store.read", "bytes") / (1 << 20)
	vals["regen.step_ms"] = medianOver("regen.step")
	vals["rrl.pack_ms"] = medianOver("rrl.pack")
	vals["laplace.invert_ms"] = medianOver("laplace.invert")

	steps := map[int]float64{}
	var stepMS, stepSteps, flops float64
	var replayMS, replayBytes float64
	var invMS, invAbs float64
	replayByMode := map[string]map[int]float64{"full": {}, "compact": {}}
	for _, s := range spans {
		switch s.Name {
		case "regen.step":
			steps[s.Req] += s.Counts["steps"]
			stepMS += s.ms()
			stepSteps += s.Counts["steps"]
			flops += 2 * s.Counts["nnz"] * s.Counts["steps"] * s.Counts["lanes"]
		case "regen.replay":
			replayMS += s.ms()
			replayBytes += s.Counts["bytes"]
			mode := "full"
			if s.Counts["compact"] == 1 {
				mode = "compact"
			}
			replayByMode[mode][s.Req] += s.ms()
		case "laplace.invert":
			if a := s.Counts["abscissae"]; a > 0 {
				invMS += s.ms()
				invAbs += a
			}
		}
	}
	vals["regen.steps_per_req"] = medianOf(steps)
	if stepSteps > 0 {
		vals["regen.ns_per_step"] = stepMS * 1e6 / stepSteps
	}
	if stepMS > 0 {
		vals["sparse.gflops_computed"] = flops / (stepMS * 1e-3) / 1e9
	}
	if replayMS > 0 {
		vals["sparse.replay_gbps_computed"] = replayBytes / (replayMS * 1e-3) / 1e9
	}
	for mode, byReq := range replayByMode {
		vals["regen.replay_ms."+mode] = medianOf(byReq)
	}
	if invMS > 0 {
		vals["rrl.abscissae_per_s"] = invAbs / (invMS * 1e-3)
	}

	// Per class: the engine span, the HTTP overhead around it, and the
	// engine time the layer replay leaves unexplained.
	overhead := map[string][]float64{}
	engine := map[string][]float64{}
	unexplained := map[string][]float64{}
	for _, s := range spans {
		if s.Name != "regenserve.request" {
			continue
		}
		var eng *span
		inside := 0.0
		for _, c := range children[s.ID] {
			if c.Name == "engine.query" {
				eng = c
			} else {
				inside += c.ms() // ctmc.build runs in the handler, outside the engine
			}
		}
		if eng == nil {
			continue
		}
		overhead[s.Class] = append(overhead[s.Class], s.ms()-eng.ms()-inside)
		engine[s.Class] = append(engine[s.Class], eng.ms())
		unexplained[s.Class] = append(unexplained[s.Class], eng.ms()-covered(children[eng.ID]))
	}
	for _, c := range allClasses {
		vals["regenserve.overhead_ms."+c] = quantile(overhead[c], 0.5)
		vals["engine.query_ms."+c] = quantile(engine[c], 0.5)
		vals["engine.unexplained_ms."+c] = quantile(unexplained[c], 0.5)
	}
	return vals
}

// covered returns the length of the union of the spans' intervals: the
// layer replay runs its per-query work concurrently, as the engine does, so
// its busy time is measured as covered wall time.
func covered(spans []*span) float64 {
	iv := make([][2]float64, 0, len(spans))
	for _, s := range spans {
		iv = append(iv, [2]float64{s.Start, s.End})
	}
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	total, cur := 0.0, iv[0]
	for _, x := range iv[1:] {
		if x[0] > cur[1] {
			total += cur[1] - cur[0]
			cur = x
		} else {
			cur[1] = math.Max(cur[1], x[1])
		}
	}
	return total + cur[1] - cur[0]
}

// sumCount totals one count over the spans of one name.
func sumCount(spans []*span, name, count string) float64 {
	t := 0.0
	for _, s := range spans {
		if s.Name == name {
			t += s.Counts[count]
		}
	}
	return t
}

// abscissaePerPoint averages the abscissae field of the value rows of the
// successful responses, by the backend each row discloses.
func abscissaePerPoint(outs []outcome) map[string]float64 {
	sum, n := map[string]float64{}, map[string]float64{}
	for i := range outs {
		resp, why := failure(&outs[i])
		if why != "" {
			continue
		}
		for _, r := range resp.Results {
			for _, row := range r.Results {
				if row.Abscissae > 0 {
					sum[r.Inverter] += float64(row.Abscissae)
					n[r.Inverter]++
				}
			}
		}
	}
	out := map[string]float64{}
	for inv := range sum {
		out[inv] = sum[inv] / n[inv]
	}
	return out
}

// parSpeedup replays extra requests through the root API at GOMAXPROCS 1
// and 2, one in flight, in the order 1 2 2 1 1 2 2 1 … so slow drift of the
// machine cancels, and returns the ratio of the total times. Every sample is
// a fresh request, so no sample hits another's caches.
func parSpeedup(ctx context.Context, m mirror) (float64, error) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	var t [3]time.Duration
	for i := 0; i < 4*parPairs; i++ {
		procs := 1 + (i+i/2)%2
		runtime.GOMAXPROCS(procs)
		runtime.GC()
		t0 := time.Now()
		if err := m.parSample(ctx, i); err != nil {
			return 0, fmt.Errorf("par sample %d: %w", i, err)
		}
		t[procs] += time.Since(t0)
	}
	return float64(t[1]) / float64(t[2]), nil
}

// spanTotals sums the traced requests' span time by span name.
func spanTotals(spans []*span) string {
	tot := map[string]float64{}
	var names []string
	for _, s := range spans {
		if s.Req < 0 {
			continue
		}
		if _, ok := tot[s.Name]; !ok {
			names = append(names, s.Name)
		}
		tot[s.Name] += s.ms()
	}
	sort.Strings(names)
	var b []byte
	for _, n := range names {
		b = fmt.Appendf(b, "%s=%.1f ", n, tot[n])
	}
	return string(b)
}
