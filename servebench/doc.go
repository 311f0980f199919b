// Command servebench is the repository's benchmark: regenserve, end to end
// and by layer. It builds cmd/regenserve from the tree it sits in, runs it as
// a child process on loopback, drives one workload from two closed-loop
// clients, checks every answer against an independent oracle, and prints
// one JSON result line. Run it from the repository root:
//
//	bash servebench/run.sh --workload sweep --seed 1 --seconds 20 --trace 0
//
// run.sh keeps every build product (the Go build cache too) in .bench_build/
// at the repository root. The tests, including one that interrupts a run
// inside its timed window, run with `go test ./...` inside servebench/.
//
// # Clients and metrics
//
// Two closed-loop clients, because the machine has two cores and
// regenserve's callers (analysis scripts, dashboards) wait for each reply.
// With --trace 0 a run reports, with tracing off:
//
//   - setup_s: exec of the child until the workload's first timed request
//     can be served, the median over several lives per run;
//   - latency_p50_ms, latency_p90_ms: send to last response byte, over
//     every request of the window (the result line's "attempted" is the
//     sample count); a failed request enters as +Inf;
//   - points_per_s: certified values returned (rows × time points) per
//     second of window wall time;
//   - rss_peak_mb: regenserve's VmHWM at the end of the window.
//
// A request fails on a transport error, a non-200 status (429 and 503
// included) or a row carrying "error"; shed, timeout and panic deltas on
// /varz count too. The failed fraction is the result line's failed ÷
// attempted rather than a metric, because a metric must never read 0.
// latency_p99_ms is left out: no run reaches the 1000 requests it needs.
// A wrong answer is not a failed request: it fails the run, which prints
// the bad row and exits non-zero without a result line.
//
// Every run prints the regenserve flags, GOMAXPROCS, the CPU model and the
// seed, and reads /varz and /healthz before and after its window.
//
// # Workloads
//
// Each workload's requests are generated from --seed and JSON-encoded
// before the window opens; each class has a fixed share of every run, and
// responses are kept as bytes and checked after the window. Warm-up
// requests count toward neither the metrics nor the check.
//
// sweep: a node restarted over its snapshot store, serving curve traffic.
// An untimed first life compiles three G=20 RAID models with
// prebuild_horizon — the paper's availability model (ε = 1e-12, Durbin,
// full retention, to t = 1e5), the absorbing reliability model (to
// t = 1000) and a serving-grade availability model (ε = 1e-6, compact,
// Euler, to t = 1e5) — and drains them into a snapshot directory. Measured
// lives warm-start from hard-linked copies of it (the store replaces blobs
// by rename, so a life never writes into the original). Requests are
// log-spaced sweeps (16 points over [1, 1e5], or 10 up to 1000 on the
// reliability model) scaled by a continuous seeded factor in [0.5, 1), so
// no time point repeats and no horizon passes the prebuilt one. Classes per
// 20 requests: 10 curve (UA TRR plus interval-UA MRR), 5 bounds (UR TRR
// with bounds), 1 rebind-full (1–4 fresh vectors on the paper's model: both
// single-binding and grouped replay) and 4 rebind-compact (one fresh vector
// on the serving-grade model). Inversion (rrl, laplace) is the largest
// engine cost; replay over retained slabs, in both precisions, is the only
// other engine work; stepping does none. The window must leave /varz
// series_extensions unchanged and the warm start must load 3 snapshots with
// no failure, or the run fails.
//
// rebind: new reward structures against one model. Set-up uploads the G=20
// availability model without retention. Each request carries 8 fresh reward
// vectors (~600 KB of JSON) sharing the times {h/100, h/10, h/2, h}, h
// uniform in [100, 150]: the planner runs them as lanes of one multi-lane
// stepping pass (regen, sparse), and the bodies load the decoder. Replay
// never runs. Each client pauses a seeded 0–100 ms before each request:
// without pauses the two clients phase-lock for a whole run, their
// stepping passes (which fan out over both cores every step) either
// overlapping throughout or alternating, and p50 lands near 470 or near
// 290 ms depending on the run.
//
// coldstart: inline uploads of models the server has never seen, each with
// one RRL TRR query at t in [50, 100]: one in three is the G=20 RAID model
// with seeded rate perturbations, the rest are seeded 10⁴-state band models
// (ctmc.RandomBand, BFS diameter ~1250, so the ~615 steps of t = 100 stay in
// frontier growth). The load is model validation and build, compile,
// single-lane stepping and byte-budget eviction; no two requests share
// work, and peak memory is most exposed here. The node runs with
// -cache-bytes 256 MiB and no snapshot store (see the findings below).
//
// Fresh reward vectors are seeded combinations Σ cⱼ·bⱼ of a fixed basis
// (unavailability, lost capacity, spent spares, controller trouble), with
// Σ cⱼ < 1 so no vector's maximum reward exceeds 1.
//
// # The answer check
//
// References come from the classic solvers in internal/ssd (RSD, the
// irreducible models at any t) and internal/uniform (SR, the reliability
// model at t ≤ 1000 and each coldstart upload), which share no code with
// regen, rrl or laplace, at ε = 1e-13. A solver per (model, basis vector,
// measure) keeps its stepped sequence and answers all of a run's time
// points, and since TRR and MRR are linear in the rewards, a fresh vector's
// reference is the same combination of the basis references. A value passes within the answer's ε + 1e-13·Σ|cⱼ| + a few
// ulps; a bounds row must enclose the reference. Euler and Durbin answers
// are each held to their own ε, never compared with each other. Rows must
// also sit at the requested times and name the expected backend.
// coldstart needs one SR solve per upload, so it checks a seeded subset of
// 16 answers and prints the subset size.
//
// # The traced run
//
// --trace 1 keeps one request in flight. Each request goes over HTTP (span
// regenserve.request), then is replayed in the benchmark's own process on a
// state built like the server's: through the root API (span engine.query:
// QueryBatchCtx / QueryBoundsBatchCtx, plus CompileCache.CompileCtx for
// uploads) and through the public functions of the internal layers (child
// spans: ctmc.build, compile.basis, regen.step, regen.replay, regen.series,
// rrl.pack, laplace.invert; set-up spans store.read and snapshot.load).
// laplace.invert spans the evaluator's inversion calls, which include the
// rrl transform evaluations at each abscissa. Spans stay in memory and are
// written to .bench_build/traces/ when the run ends. Per class,
// engine.unexplained_ms is the engine span minus the wall time its layer
// spans cover (the layer replay runs queries concurrently, as the engine
// does), and regenserve.overhead_ms is the HTTP latency minus the engine
// span and the handler's model build. Layer timings are medians over the
// traced requests of each request's summed span time. Counts are recorded
// at the same boundaries: steps, lanes and nnz of stepping; slab bytes of
// replay; abscissae of inversion. sparse.gflops_computed (2·nnz·steps·lanes
// ÷ step time) and sparse.replay_gbps_computed (slab bytes ÷ replay time)
// are computed from those counts, not counted by hardware. Server counts
// come from /varz, /healthz and /proc/<pid>. par.speedup_1to2 replays
// fresh requests in-process at GOMAXPROCS 1 and 2; the pool metrics are the
// benchmark process's allocations and GC cycles inside engine spans. A
// layer that does no work on a workload reports 0. Spans inside the program
// itself are later work.
//
// # Process lifetime
//
// Every regenserve life runs on a free loopback port in its own process
// group, with Pdeathsig=SIGKILL set at a fork from an OS thread that never
// exits (the kernel sends it when the forking thread dies). A life stops
// with SIGTERM, a bounded wait for its drain (the sweep node flushes
// ~210 MB of snapshots), then SIGKILL to the group. The same happens, and
// every temp directory is removed, on a normal exit, a failed check, a
// panic on the main goroutine, or SIGINT/SIGTERM to the benchmark.
//
// # Findings
//
//   - coldstart needs a byte budget: with the default flags (-cache 64,
//     -cache-bytes 0) a 12 s prototype reached 4.6 GB VmHWM on an 8 GB
//     machine.
//   - Snapshot write-back: with -snapshot-dir set, the asynchronous
//     write-back after a cold compile races the first query and, with the
//     cores busy, usually serializes the chains that query just deepened; a
//     20 s cold-upload prototype wrote 7.3–8.2 GB. coldstart therefore runs
//     without a store, and its traced run reports the size as
//     snapshot.writeback_mb from an in-process CompileCache with a store
//     attached and two uploaders.
//   - RRL with Durbin inversion at ε = 1e-12 now and then misses its
//     certificate; RR on the same series stays within ε, so the inversion
//     overspends its share. Two reproducers, both deterministic:
//     sweep --seed 508, request 281 (curve): UA TRR of the paper's G=20
//     availability model at t = 17.3898063922148 answers
//     2.7484199620741696e-05 against 2.74841981358197e-05 from SR and RSD
//     at ε = 1e-15, an error of 1.49e-12 (RR: 1.3e-15); coldstart
//     --seed 105, request 29 (a band model, t = 91.8144…) answers
//     0.57010638399291813 against 0.570106383994446, an error of 1.53e-12
//     (RR: 2.8e-13), and that row's certified bounds are 2.7e-12 wide. The
//     check is left strict, so a run that draws such a point fails and
//     prints the row: one sweep run and one coldstart run in ten did.
//   - prebuild_horizon on the compact model certifies unit rewards without
//     the float32 quantization carve-out a binding's budget pays, so the
//     first request near the top of the horizon range deepens that chain by
//     a few steps. The sweep warm-up runs at the top of the range so this
//     happens before the window; the run prints the warm-up's extension
//     count.
//
// # Left out
//
// Open-loop arrival schedules and admission queueing (two clients never
// fill regenserve's 32 query slots), the AU and MS methods, horizon
// bucketing, and the object-store snapshot backend.
package main
