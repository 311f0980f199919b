// Package regenrand provides transient solvers for dependability and
// performability measures of continuous-time Markov chains (CTMCs),
// reproducing
//
//	J.A. Carrasco, "Transient Analysis of Dependability/Performability
//	Models by Regenerative Randomization with Laplace Transform Inversion",
//	IPDPS 2000 Workshops, LNCS 1800, pp. 1226–1235.
//
// The four methods of the paper's evaluation are implemented behind a
// common Solver interface:
//
//   - SR  — standard randomization (uniformization), the classical baseline;
//   - RSD — randomization with steady-state detection, for irreducible models;
//   - RR  — regenerative randomization: a truncated transformed chain V_{K,L}
//     is built from regeneration statistics and solved by SR;
//   - RRL — the paper's contribution: the transformed chain is solved in
//     closed form in the Laplace domain and inverted numerically through a
//     pluggable backend (Durbin's formula with T = 8t and epsilon-algorithm
//     acceleration by default; see "Inversion backends and error budgets").
//
// The related-work methods the paper's introduction cites (adaptive
// uniformization, multistep randomization) are not implemented; the
// independent check of RRL is the dense matrix-exponential oracle
// (OracleTRR), which shares no code with the solvers.
//
// Two measures are supported at batches of time points: the transient
// reward rate TRR(t) = E[r_{X(t)}] and the mean reward rate
// MRR(t) = (1/t)∫₀ᵗ TRR(τ)dτ. Dependability measures are special cases:
// point unavailability UA(t), unreliability UR(t), interval unavailability,
// and general performability rewards. Every solver guarantees an absolute
// error at most Options.Epsilon on each returned value (down to the
// double-precision floor of ~1e-13 relative; the paper uses ε = 1e-12).
//
// # Compile/query lifecycle
//
// The paper's central economics are that the expensive work — uniformizing
// the generator and stepping out the regenerative series that characterizes
// the transformed chain V_{K,L} — is done once, after which every measure
// and time point is cheap. The package is structured around exactly that
// split. Compile produces an immutable, goroutine-safe CompiledModel
// holding the shared artifacts: the uniformized sparse chain with its
// fused-kernel chunk plan, and (when a regenerative state is given) the
// reward-free regeneration statistics with their stepped vectors retained.
// Reward vectors are then layered on as cheap views, so one compile serves
// TRR, MRR, availability and reliability measures under many reward
// structures:
//
//	model, _ := b.Build() // a Builder-constructed CTMC
//	cm, _ := regenrand.Compile(model, regenrand.CompileOptions{
//		Options:    regenrand.DefaultOptions(),
//		RegenState: 0, // the fault-free initial state
//	})
//
//	// First rewards vector: point unavailability.
//	ua, _ := regenrand.IndicatorRewards(model.N(), downStates...)
//	resUA, _ := cm.Query(regenrand.Query{
//		Method: regenrand.MethodRRL, Measure: regenrand.MeasureTRR,
//		Rewards: ua, Times: []float64{1, 10, 100, 1000},
//	})
//
//	// Second rewards vector against the SAME compiled artifacts: only the
//	// coefficient binding and the inversion are paid, not the build.
//	perf := regenrand.RewardsFrom(model.N(), throughputOf)
//	resPerf, _ := cm.Query(regenrand.Query{
//		Method: regenrand.MethodRRL, Measure: regenrand.MeasureMRR,
//		Rewards: perf, Times: []float64{1, 10, 100, 1000},
//	})
//
// Batches go through a query planner before anything executes. QueryBatch
// (and QueryBoundsBatch, whose RRL enclosures ride the fused value+bounds
// inversion and cost barely more than the values alone) first deduplicates
// byte-identical requests — a batch that submits the same (method, measure,
// rewards, times) twice solves it once and fans the shared result out —
// and then groups RR/RRL requests by horizon class (the exact certified
// horizon, the max of a request's times). Each group's distinct reward
// vectors execute as dot lanes of ONE multi-lane stepping pass: on a
// non-retaining compiled model the group rides regen.Basis.BuildManyCtx
// (every stored matrix entry is loaded once for all lanes, so a 32-measure
// same-horizon batch costs about one series construction instead of 32 —
// measured ≥5× end-to-end throughput on the paper's G=20 model,
// BenchmarkQueryPlanner); on a retaining model the group's coefficients
// replay through the grouped multi-rewards dot kernel (the retained
// vectors stream once per eight-vector block for all measures). Grouping
// fires only when a horizon class holds at least two distinct measures —
// single queries keep the exact lazy path — and planning never changes
// results: grouped constructions are bitwise-identical to their per-query
// counterparts, so a planned batch equals a serial per-query loop bit for
// bit. Query results are a pure function of the request: N goroutines
// sharing one CompiledModel get answers bitwise-identical to a serial run,
// which is what makes the compiled artifact a sound unit of sharing for a
// server (see cmd/regenserve, an HTTP/JSON facade over exactly this API —
// one /v1/query request carrying an array of query objects is planned as
// one batch — with a CompileCache keying compiled models by generator
// content hash so repeated compiles are free).
//
// On the paper's G=20 RAID model, a second query against an already
// compiled model is ~20× faster than constructing and solving afresh
// (NewRRL, then TRR) for a new time batch and ~7× faster for a new rewards
// vector (BenchmarkCompileQueryReuse; measured numbers are in the
// committed BENCH_*.json files). Retention of the stepped vectors costs 8
// bytes per retained entry: while the reachability frontier still grows, a
// vector keeps only the rows its step could reach (the 10⁴-state band
// model retains 12.7 MiB to t = 100 instead of 48.9 MiB), and once it has
// saturated each step keeps all n rows, O(8·states·K) bytes in total. A cold
// query on such a compile steps once: its rewards ride the stepping kernels,
// and only later bindings replay the retained vectors.
// CompileOptions.DisableRetention trades the rebinding speed back for
// O(states) memory, and
// CompileOptions.CompactRetention keeps float32 roundings instead — half
// the retention memory, with the quantization error (≤ 2⁻²⁴·rmax per
// coefficient) charged against an explicit slice of the series truncation
// budget so every result stays certified within Epsilon. Compact retention
// therefore needs a loose epsilon (roughly ≥ 1e-6·rmax; queries report a
// budget error otherwise) and its RR/RRL results are deterministic but not
// bitwise-equal to a full-precision compile — the right trade for large
// models where the retained series dominates memory, not for
// paper-strength ε = 1e-12 reproduction.
//
// The classic constructors remain and are views of the same engine, with
// unchanged semantics and bitwise-identical outputs. Each compiles its model
// without retention and binds one measure: NewSR and NewRSD return that
// measure's stepping solver, and the RR/RRL solvers of NewRR, NewRRL and
// NewRRLWithConfig answer through the measure's series cache and
// evaluators, moving to a deeper series only when a call's largest time
// exceeds every horizon seen so far:
//
//	b := regenrand.NewBuilder(2)
//	b.AddTransition(0, 1, 1e-3) // failure
//	b.AddTransition(1, 0, 0.5)  // repair
//	b.SetInitial(0, 1)
//	model, _ := b.Build()
//	solver, _ := regenrand.NewRRL(model, []float64{0, 1}, 0, regenrand.DefaultOptions())
//	results, _ := solver.TRR([]float64{1, 10, 100, 1000})
//
// A Builder also records the first validation error (negative rate,
// out-of-range state, self loop) and reports it from Build, so generator
// loops that drop per-call errors still fail at construction rather than
// deep inside a solve.
//
// # Horizon bucketing and series extension
//
// Two compile-level mechanisms let near-miss traffic share series work
// across requests. First, every RR/RRL series is grown by in-place
// incremental extension: the chains stepped for a horizon are kept (in the
// retained basis, or in a per-measure incremental store on non-retaining
// compiles), and a later, longer horizon appends only the missing steps —
// querying t=200 after t=100 pays steps K(100)..K(200), not a rebuild.
// Extension is append-only and deterministic, so it is bitwise-invisible:
// a model that served t₁ answers t₂ exactly like a fresh compile asked t₂
// first, a cancelled extension leaves a valid prefix for the retry, and
// concurrent extenders all read the same published coefficients (tested
// under -race). Second, CompileOptions.HorizonBuckets opts into horizon
// bucketing: each query horizon is rounded UP to the nearest point of a
// geometric grid with HorizonBuckets points per decade, so horizons that
// differ only by a few percent collapse onto one grid point — one deeper
// series serves the whole bucket, the planner groups near-miss batches
// into one multi-lane pass (BenchmarkNearMissHorizons: a 32-query spread
// over [t, 1.5t] prices like ideal same-horizon traffic, ~6× over
// exact-bit grouping), and repeat traffic hits the series cache instead of
// building again. Bucketing rounds up only, so the bucketed series is
// truncated for a deeper horizon than requested and every answer remains
// certified within Epsilon — but answers are evaluated from a
// differently-truncated series and are therefore not bitwise-identical to
// an unbucketed compile, which is why the option is opt-in and part of the
// compile content key (bucketed and exact models never share cache
// entries). EffectiveHorizon reports the grid point a horizon is served
// at; cmd/regenserve discloses it per row as "bucketed_horizon" and
// exports the sharing counters (ReadEngineStats) as /varz variables.
//
// # Cancellation and serving robustness
//
// Every compile/query entry point has a context-taking variant —
// CompileCtx, QueryCtx, QueryBoundsCtx, QueryBatchCtx, QueryBoundsBatchCtx,
// CompileCache.CompileCtx — and the context-free forms are thin
// context.Background wrappers, so adopting deadlines changes no results.
// The engine checkpoints between units of work (each series stepping
// iteration, each planner group, each Laplace abscissa block, each worker
// fan-out item) and never inside one, so cancellation lands within a couple
// of chunk latencies and the arithmetic of completed work is untouched:
// a cancelled construction leaves a valid append-only prefix, and a retry
// resumes (or deterministically re-runs) to answers bitwise-identical to an
// uncancelled run. Cancelled calls return an error wrapping the context
// cause plus a core.CancelError carrying how many stepping iterations and
// inversion abscissae completed before the abort — the partial-work
// accounting a serving layer can log or bill. Batch variants fill every
// row: rows finished before the deadline keep their results, the rest
// carry the cancellation error.
//
// The CompileCache is safe to share under cancellation: concurrent misses
// on one key still compile once, the constructor runs detached from any
// single caller's context, and only when the last waiter abandons an
// in-flight compile is it cancelled — one client's deadline can neither
// kill a compile other clients are waiting on nor poison the cache (an
// abandoned compile is dropped, never cached). NewCompileCacheBytes adds a
// retained-bytes budget on top of the entry capacity, fed by
// CompiledModel.RetainedBytes (re-measured as chains grow with query
// horizons), evicting least-recently-used models when compiled artifacts
// outgrow memory. CompileOptions.PrebuildHorizon optionally moves chain
// extension into the compile so a deadline covers it; it is pure warmup and
// does not change the model's content key or any result.
//
// # Snapshots and warm restarts
//
// A compiled artifact is expensive state — the generator analysis plus
// every retained chain step — and all of it dies with the process. The
// snapshot layer makes it durable: CompiledModel.Snapshot serializes the
// model, the compile options, and the retained chains into a versioned,
// per-section-checksummed binary blob (internal/snapshot), and LoadSnapshot
// rebuilds a compiled model whose answers and whose further chain extension
// are bitwise-identical to the original's. Chains are stored as contiguous
// slabs at 8-aligned offsets, so a load is a checksum pass plus zero-copy
// views, not a re-stepping pass.
//
// CompileCache.SetSnapshotStore attaches a store (internal/store; the
// local-directory backend writes temp-fsync-rename atomically, so a crash
// mid-write can never leave a torn blob under a live name) and turns cache
// misses into load-throughs: hit the store, decode, verify, serve — or
// recompile and write back in the background. CompileCache.WarmStart and
// FlushSnapshots are the boot- and drain-time bulk counterparts. Nothing
// loaded is trusted: a snapshot must pass its CRCs, a content-key
// recomputation over the model it rebuilds, and chain cross-validation;
// whatever fails is quarantined and recompiled — a bad snapshot can cost a
// recompile, never a wrong answer. ReadEngineStats exposes the
// load/write/failure counters.
//
// The same Store interface has a network backend: internal/store/objstore
// speaks the S3 HTTP API (path-style, SigV4-signed, stdlib-only) so one
// node's compile becomes every node's warm start. The client performs no
// retries itself; robustness is composed from wrappers —
// store.WithHedge(...) races a second GET against a slow first,
// store.WithRetryPolicy(...) retries transient failures with full-jitter
// backoff under the caller's context deadline, and store.WithBreaker(...)
// trips after consecutive failed store conversations so a dead store costs
// nanoseconds per miss, not a timeout each. Write-back uses conditional
// PUTs (If-None-Match: *), so when many nodes compile the same content key
// concurrently exactly one object is stored; corrupt remote blobs are
// quarantined server-side (copy to *.corrupt, then delete). Every store
// call is advisory: when the store is slow, lying, or gone, the engine
// recompiles — degraded cost, never a degraded answer.
//
// Robustness is testable on purpose: internal/faultpoint exposes named
// fault-injection sites in series stepping ("regen.step"), Laplace
// inversion blocks ("laplace.block", plus the per-backend
// "laplace.block.durbin" and "laplace.block.euler" so chaos tests can fail
// one backend and assert the other is untouched), cache population
// ("cache.populate"),
// snapshot store I/O ("store.read", "store.write"), object-store network
// requests ("store.net.read", "store.net.write", "store.net.list") and
// snapshot decoding
// ("snapshot.decode") that tests arm to inject delays, errors, or panics
// (REGENRAND_FAULTPOINTS arms them from the environment, rejecting unknown
// site names at parse time). Worker-pool and cache-constructor panics are
// recovered into errors — a poisoned reward vector fails its query, not the
// process — which is what lets cmd/regenserve's tests assert that the
// server stays live under injected faults, post-fault answers are
// bitwise-identical to a quiet run, and a kill-and-restart over the
// snapshot directory resumes bitwise where the dead process stopped.
//
// # Execution layer
//
// The solvers share a fused, pooled and batch-parallel execution layer.
// The randomization step — vector–matrix product, zeroing of
// regenerative/absorbing destinations, ℓ₁ mass and reward dot-product — is
// one kernel pass (sparse.Matrix.StepFused) for SR, RSD and the RR/RRL
// series build, and SR and RSD share one stepping loop (uniform.Solver,
// which RSD runs with a stationary vector: ε/2 windows, and ρ* from the
// detection step on); rebinding reward vectors to retained step vectors replays the
// dot side of that kernel through one entry point, sparse.RewardDotMulti —
// two retained vectors per register-chain sweep for a single binding,
// eight-vector blocks for a planner group, the same per-pair arithmetic
// either way; batches of time points and batches of queries fan out over
// a persistent worker pool (internal/par); and
// per-query scratch (stepping buffers, epsilon-acceleration diagonals) comes from per-size-class pools
// (internal/pool), so steady-state query traffic runs allocation-free on
// the hot path. Parallel execution is deterministic: kernel reductions use
// fixed chunk boundaries with ordered compensated partials, so every
// result is bitwise-identical for every GOMAXPROCS setting. Each method has
// one implementation: SR and RSD the stepping loop, RR and RRL one
// evaluator each (regen.VEvaluator, rrl.Evaluator), which the engine and
// the classic constructors share. The classic Solver objects remain
// single-caller (see core.Solver's concurrency contract); CompiledModel is
// the concurrent entry point.
//
// The series construction — the K (+L) full-model DTMC steps of the
// paper's Tables 1–2, the dominant cost of a cold construct-and-solve —
// runs on a frontier-restricted stepping layer. u_0 = e_r, so u_k is
// supported only on states reachable in ≤ k steps: a per-matrix BFS
// (sparse.Matrix.FrontierFor, sourced at the regenerative state plus the
// initial distribution's support) lays the rows out in level order with a
// chunk plan whose prefixes cover the level sets, and early steps sweep
// only the active prefix instead of all n rows (sparse.Frontier). Once the
// frontier saturates, stepping switches to the full-sweep kernels: a
// quad-row lockstep gather (four independent per-row accumulator chains;
// per-row sums bitwise-identical to the scalar reference), four-block
// splits for very-long rows, four position-interleaved Kahan chains for
// the mass/dot reductions, and a straight-line single-chunk path for
// matrices below ~32k stored entries that skips the pool/partials
// machinery entirely. When α_r < 1 the main and primed chains step in
// lockstep through one matrix traversal (sparse.Frontier.StepFusedMulti /
// sparse.Matrix.StepFusedMulti — each stored entry loaded once for all
// lanes), and regen.BuildManyWithDTMCCtx runs any number of reward vectors as
// extra dot lanes of one construction (row-interleaved rewards layout, a
// register-chain dot replay for the saturated single-chunk phase, and
// lane-group parallelism on multicore keep the per-lane marginal cost a
// small fraction of a standalone build). During the frontier growth phase
// the level-permuted rows are re-bucketed by length into quad-row groups
// (sparse.Frontier's gorder), so the growth sweep retires entries at the
// same four-chain rate as the saturated kernels; per-row sums are
// bitwise-unchanged. The multi-lane accumulator scratch is a flat pooled
// vector (internal/pool size classes), so lockstep stepping is
// allocation-free at steady state. Retained step vectors come from slab
// arenas — float64 or, under CompileOptions.CompactRetention, float32 at
// half the memory — so the compile phase's reward-rebinding sweeps stream
// contiguous memory; a vector made during the frontier growth phase is
// packed to its active prefix in the gorder visitation order, the order its
// replay kernel reads (snapshots scatter it back to row-major slabs). Every
// path is deterministic per step index, and the
// reward-replay kernels reproduce the exact association of whichever
// kernel ran each step — so compiled-measure bindings remain
// bitwise-identical to fused builds (compact retention replays the same
// association over the rounded vectors).
//
// The Laplace side — the cost that dominates a steady-state RRL query —
// runs on blocked transform kernels: the inverter (internal/laplace)
// requests abscissae in speculative blocks of eight, and the transform
// evaluator (internal/rrl) sweeps its packed coefficient array once per
// block, updating all eight abscissae per coefficient load. Eight
// independent power recurrences hide the floating-point latency that
// serializes a one-abscissa sweep, and coefficient memory traffic falls
// 8×. On top of the blocking, each abscissa stops its ascending sweep at
// the degree where the geometric tail bound suffix[d]·|z|^d (suffix sums of
// coefficient magnitudes, precomputed once per transform) falls below a
// tail tolerance chosen so the discarded mass stays below the sweep's own
// rounding noise and the accumulated truncation stays a small fraction of
// the inversion's stopping tolerance (≈2^-9 for typical runs, ≤5% even at
// the term cap; see internal/rrl for the budget derivation); since
// |z| = Λ/|s+Λ| shrinks as the Durbin index grows, late abscissae truncate
// after a small fraction of the degree-K array. Certified bounds
// share the machinery: one two-output joint inversion evaluates the value
// and truncation-mass transforms at shared abscissae and shared sweeps,
// with each output frozen by its own stopping rule so values are
// bit-identical to a plain query. A scalar full-sweep
// reference kernel is retained and the blocked/truncated/fused paths are
// equivalence-tested against it at the ulp level.
//
// # Inversion backends and error budgets
//
// The numerical inversion behind RRL is pluggable. A backend
// (internal/laplace.Inverter) consumes the same block-of-8 transform
// evaluator, the same fused value+bounds path, and the same cancellation
// accounting; what it chooses is the sampling contour and the convergence
// acceleration. Two backends ship:
//
//   - "durbin" (the default, DurbinInverter) is the paper's configuration:
//     the trapezoidal discretization at period T = 8t with Wynn's
//     epsilon-algorithm accelerating the partial sums. Results are
//     bitwise-identical to every release since the package existed.
//   - "euler" (EulerInverter) is the Abate–Whitt Euler method: the same
//     discretization taken at T = t, where consecutive terms rotate by
//     exactly (−1)^k, accelerated by binomial (Euler) averaging of the last
//     twelve partial sums with per-output Kahan-compensated weights. The
//     alternating series converges in far fewer terms, so a typical query
//     spends ~35% fewer transform evaluations per time point
//     (BenchmarkRRLInverter) — the abscissae count that dominates
//     steady-state RRL cost.
//
// The backends differ in how the error budget is spent, not in how much of
// it there is: both charge discretization against the same ε carve-out and
// stop by the same certified rules, so either answer is within
// Options.Epsilon. The trade is the roundoff floor. Euler's shorter period
// needs a larger damping e^{a·t}, which amplifies machine rounding of the
// summed transform values; the backend computes that floor a priori
// (e^{a·t}·2⁻⁵⁰·f̃max against the stopping tolerance) and REJECTS the
// request with a budget error when the configuration cannot be certified —
// with the TRR damping rule the floor admits ε down to ≈ 3e-9·rmax, so the
// paper-strength ε = 1e-12 stays on Durbin while loose serving tolerances
// (ε = 1e-6) take the cheaper contour. A rejection is an error, never a
// silently degraded answer.
//
// Selection is plumbed through every sharing layer: RRLConfig.Inverter picks
// the compile-wide backend and is part of the compile content key (durbin
// and euler compiles of one model are distinct cache entries and distinct
// snapshot blobs, and the choice survives a snapshot round trip);
// Query.Inverter overrides it per request (RRL only — methods that never
// invert reject the field); the query planner fingerprints the backend and
// never groups queries with different effective backends into one lane
// pass; and cmd/regenserve exposes the compile-level field and the
// per-query override on the wire, disclosing the effective backend on every
// RRL result row. The backends stand as oracles for each other: a standing
// test inverts the paper's Fig 3/4 models and a 10⁴-state band through
// both and requires agreement within the combined certified budgets.
//
// Performance is tracked PR-over-PR with cmd/benchjson, which runs the
// Benchmark* suite and emits a BENCH_<date>.json trajectory file;
// `benchjson -diff old.json new.json` prints per-benchmark deltas and
// flags regressions beyond 10%. The committed BENCH_*.json files hold the
// measured numbers. The end-to-end serving benchmark (regenserve under
// sweep, rebind and coldstart traffic) is declared in BENCHMARK.json and
// runs with `bash servebench/run.sh`.
//
// The package also ships the paper's evaluation workload: parametric
// dependability models of a level-5 RAID array (BuildRAID), and a harness
// (cmd/paperrepro) that regenerates every table and figure of the paper's
// evaluation section.
package regenrand
