// Command regenserve is a small HTTP/JSON service over the compile/query
// split: clients upload CTMC models once, the service compiles them into
// immutable shared artifacts (LRU-cached by content hash), and many
// concurrent clients then evaluate batches of {method, measure, rewards,
// times} queries against one compiled model — the serving pattern the
// paper's one-time-construction/many-cheap-queries structure was built for.
//
// API (all request/response bodies are JSON):
//
//	POST /v1/compile   {"model": {...}, "regen_state": 0, "epsilon": 1e-12}
//	                   ("compact": true selects float32 series retention —
//	                   half the compile-phase memory, needs a loose epsilon;
//	                   "prebuild_horizon": t eagerly extends the chains to
//	                   certify horizon t; "horizon_buckets": k rounds each
//	                   query horizon UP to a geometric grid with k points
//	                   per decade so near-miss horizons share one series —
//	                   answers are evaluated at the requested times but the
//	                   series is certified at the bucketed horizon, so they
//	                   can differ from the unbucketed ones within epsilon;
//	                   the option is part of the model id;
//	                   "inverter": "durbin" (default) or "euler" selects the
//	                   Laplace inversion backend for RRL queries — part of
//	                   the model id; euler rejects epsilons tighter than its
//	                   certified roundoff floor with 400;
//	                   "timeout_ms" caps the request)
//	                   → {"model_id": "...", "states": n, "transitions": nnz,
//	                     "retained_bytes": b}
//	POST /v1/query     {"model_id": "...", "queries": [{"method": "RRL",
//	                    "measure": "TRR", "rewards": [...], "times": [...]}]}
//	                   or with an inline "model" instead of "model_id"
//	                   → {"results": [{"results": [...], "error": ""}]}
//	                   a query with "bounds": true returns certified
//	                   enclosures (rows carry "lower"/"upper"; RR/RRL only,
//	                   served by the fused value+bounds inversion)
//	                   a query with "inverter": "euler" (or "durbin")
//	                   overrides the compile's inversion backend for that
//	                   row (RRL only; other methods reject it per-row);
//	                   queries on different backends are never grouped into
//	                   one lane pass, and every RRL result row discloses
//	                   the backend that served it as "inverter"
//	                   batches are planned before execution: byte-identical
//	                   queries are solved once, and same-horizon RR/RRL
//	                   queries share one multi-lane series construction —
//	                   send one array of query objects per request to get
//	                   grouped pricing; responses are bitwise-identical to
//	                   one-query-per-request traffic
//	                   "timeout_ms" caps this request's processing time;
//	                   rows that miss the deadline carry a per-row "error"
//	                   while finished rows keep their results. "degrade":
//	                   "allow" opts into certified degraded answers: a
//	                   deadline-missed row is retried once at the server's
//	                   -degrade-epsilon under a short grace budget and comes
//	                   back flagged {"degraded": true, "epsilon": 1e-6} —
//	                   still a certified bound, just a wider one. On a model
//	                   compiled with "horizon_buckets" (settable inline here
//	                   too), every row served at a rounded-up horizon carries
//	                   "bucketed_horizon" disclosing the grid point its
//	                   series was certified at
//	GET  /healthz      → {"ok": true, "draining": false, "cached_models": k,
//	                     "cache_bytes": b, "uptime_s": s} (503 while
//	                     draining — load balancers stop routing here)
//	GET  /varz         → flat JSON counters: requests, in-flight and queued
//	                     compiles/queries, shed, timeouts, degraded, panics,
//	                     cache entries/bytes, uptime, and the engine's
//	                     work-sharing counters — series_cache_hits/misses,
//	                     series_extensions, series_extension_steps_saved
//	                     (how often a query reused or grew an existing
//	                     series instead of rebuilding it) — and the snapshot
//	                     counters snapshot_loads, snapshot_load_failures,
//	                     snapshot_writes, snapshot_write_failures,
//	                     snapshot_bytes_written, snapshot_quarantines, plus
//	                     the store robustness counters store_retries,
//	                     store_hedged_won, store_hedged_lost,
//	                     store_breaker_opens, store_breaker_probes
//
// The model encoding is {"states": n, "transitions": [[from, to, rate],
// ...], "initial": [[state, probability], ...]}. A model_id is the content
// key of the compile (model fingerprint + options), so re-uploading the
// same model is free and ids are stable across restarts. The wire model is
// fully validated at the trust boundary — non-finite or negative rates,
// fractional or out-of-range indices, and non-normalized initial
// distributions answer 400 with the offending field named; they never reach
// the engine. A request field the server does not know answers 400 naming
// it, so a misspelled or retired option is never served as if absent. A
// member whose value is null still counts as absent, and keys match the
// field names case-insensitively. Bodies are decoded in one pass (wire.go)
// that also answers 400, naming the field or the byte offset, for a null
// inside an array (a null rate or reward is never read as 0), a duplicate
// key, anything but whitespace after the top-level object, and a string
// holding an escape sequence, a control byte or a non-ASCII byte.
//
// # Serving lifecycle
//
// Every request passes a hardening pipeline before any engine work:
//
//  1. Drain check — after SIGTERM/SIGINT the server stops admitting
//     compiles and queries (503 + Retry-After) while in-flight requests
//     finish, then exits; /healthz answers 503 with "draining": true and
//     /varz stays scrapable meanwhile.
//  2. Admission — compiles and queries hold separate concurrency slots
//     (-compiles/-queries) with a bounded wait queue (-queue, -queue-wait);
//     overflow is shed immediately with 429 + Retry-After instead of
//     stacking goroutines behind a saturated pool.
//  3. Body cap — requests larger than -max-body answer 413; models beyond
//     -max-states/-max-transitions answer 400.
//  4. Deadline — each request runs under a context deadline (client
//     "timeout_ms", else -timeout, both capped by -max-timeout) anchored on
//     the connection, so a disconnected client cancels its own work. The
//     engine checkpoints between stepping chunks and inversion blocks, so
//     cancellation lands within a couple of chunk latencies and never
//     poisons the shared cache: an abandoned single-flight compile keeps
//     running for its other waiters, and a retry resumes the append-only
//     series exactly where it stopped, bitwise-identical.
//  5. Panic barrier — a panicking handler answers 500 and the server keeps
//     serving; engine worker panics are already converted to errors before
//     they reach the handler.
//
// # Snapshots and warm restarts
//
// With -snapshot-dir (local directory) or -snapshot-url (S3-compatible
// object store) set, compiled artifacts survive the process: every compile
// is written back in the background as a versioned, checksummed snapshot
// (model + options + the retained regeneration chains; see
// internal/snapshot), written atomically so a crash mid-write can never
// leave a torn blob under a live name. At boot the server warm-starts the
// cache from the store (several blobs in flight at once against a network
// store), and at drain it re-snapshots every cached model so the chains
// deepened by the traffic just served are captured. A restart therefore
// resumes at its former depth and answers bitwise-identically to the
// process that died — without re-uploading, recompiling, or re-stepping.
//
// Nothing in the store is trusted: a snapshot must pass per-section CRCs, a
// content-key recomputation over the rebuilt model, and chain
// cross-validation before it is served; anything that fails — truncated,
// bit-flipped, version-mismatched, or misfiled — is logged, moved aside to
// *.corrupt for inspection (a rename locally, copy+delete in the object
// store), and silently replaced by a recompile. A bad snapshot can cost a
// recompile, never a wrong answer and never a refusal to boot. Snapshots
// from a different format version are rejected the same way, so rolling the
// binary forward (or back) across a format change is always safe.
//
// # Object-store robustness
//
// The -snapshot-url backend (internal/store/objstore) speaks plain S3 HTTP
// — AWS S3, MinIO, Ceph RGW — with SigV4 credentials taken from
// REGENRAND_S3_ACCESS_KEY / REGENRAND_S3_SECRET_KEY (unsigned requests when
// unset, for anonymous or test endpoints). Store I/O runs behind a
// composed robustness stack:
//
//   - Hedged reads: a read that has not answered within the hedge delay
//     launches a second request and takes whichever finishes first, so one
//     slow replica costs one slow blob, not a slow boot.
//   - Deadline-aware retries: transient failures (5xx, connection resets,
//     truncated bodies) retry with full-jitter exponential backoff, capped
//     per sleep and in total; permanent failures (404, other 4xx,
//     validation rejects) short-circuit immediately.
//   - Circuit breaker: after enough consecutive transient failures the
//     breaker opens and store calls fail fast — cache misses go straight to
//     recompile instead of adding store timeouts to every cold query. After
//     a cooldown one probe is admitted; success closes the circuit. Every
//     transition is logged ("store breaker: open …", "… half-open probe",
//     "… closed"), and the open/probe counts are on /varz.
//
// The degrade-to-recompile contract: a flaky or dead object store NEVER
// fails a request and never changes an answer — it only costs latency
// (recompiles instead of warm loads). Snapshot write-back uses conditional
// writes (If-None-Match: *), so many nodes sharing one bucket compile a
// given model once: the first write-back stores the blob, every other node
// observes it already exists and skips the upload.
//
// # Flags
//
//	-addr             listen address (default :8347)
//	-cache            compiled-model LRU entry capacity (default 64)
//	-cache-bytes      retained-bytes budget across cached models; LRU
//	                  eviction above it, 0 = entries-only (default 0)
//	-compiles         max concurrent compile requests (default 4)
//	-queries          max concurrent query requests (default 32)
//	-queue            admission queue depth per class before shedding
//	                  (default 64)
//	-queue-wait       max time a request waits for an admission slot
//	                  (default 2s)
//	-timeout          default per-request deadline when the client sends no
//	                  timeout_ms (default 30s)
//	-max-timeout      cap on client-requested timeout_ms (default 2m)
//	-max-body         request body byte cap (default 8 MiB)
//	-max-states       wire-model state cap (default 1e6)
//	-max-transitions  wire-model transition cap (default 1e7)
//	-degrade-epsilon  epsilon served to "degrade":"allow" rows that missed
//	                  their deadline (default 1e-6)
//	-degrade-grace    extra budget for the one degraded retry (default 2s)
//	-drain            shutdown grace for in-flight requests after
//	                  SIGTERM/SIGINT (default 30s)
//	-snapshot-dir     directory for durable compiled-model snapshots; warm
//	                  start at boot, background write-back per compile,
//	                  flush at drain (empty = disabled)
//	-snapshot-url     S3-compatible object store for snapshots,
//	                  http[s]://host[:port]/bucket[/prefix]; same lifecycle
//	                  as -snapshot-dir behind the hedge/retry/breaker stack;
//	                  mutually exclusive with -snapshot-dir (empty =
//	                  disabled)
//
// # Tests
//
// go test ./cmd/regenserve drives the HTTP surface end to end over
// httptest servers: compile and query answers against SR, validation,
// /healthz, /varz and drain, injected engine faults, admission shedding,
// snapshot kill-and-restart and corruption, and object-store faults through
// the breaker's open, probe and close. FuzzWireRequest holds the body
// decoder to encoding/json (go test -fuzz '^FuzzWireRequest$' for a live
// run), and BenchmarkDecodeRequest times the two against each other.
package main

import (
	"context"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"regenrand"
	"regenrand/internal/store"
	"regenrand/internal/store/objstore"
)

func main() {
	addr := flag.String("addr", ":8347", "listen address")
	cacheSize := flag.Int("cache", 64, "compiled-model LRU capacity (entries)")
	cacheBytes := flag.Int64("cache-bytes", 0, "retained-bytes budget across cached models (0 = entries-only)")
	compiles := flag.Int("compiles", 4, "max concurrent compile requests")
	queries := flag.Int("queries", 32, "max concurrent query requests")
	queueDepth := flag.Int("queue", 64, "admission queue depth per request class before shedding")
	queueWait := flag.Duration("queue-wait", 2*time.Second, "max wait for an admission slot")
	timeout := flag.Duration("timeout", 30*time.Second, "default per-request deadline")
	maxTimeout := flag.Duration("max-timeout", 2*time.Minute, "cap on client-requested timeout_ms")
	maxBody := flag.Int64("max-body", 8<<20, "request body byte cap")
	maxStates := flag.Int("max-states", 1_000_000, "wire-model state cap")
	maxTransitions := flag.Int("max-transitions", 10_000_000, "wire-model transition cap")
	degradeEpsilon := flag.Float64("degrade-epsilon", 1e-6, "epsilon of certified degraded answers")
	degradeGrace := flag.Duration("degrade-grace", 2*time.Second, "extra budget for one degraded retry")
	drain := flag.Duration("drain", 30*time.Second, "shutdown grace for in-flight requests")
	snapshotDir := flag.String("snapshot-dir", "", "directory for durable compiled-model snapshots (empty = disabled)")
	snapshotURL := flag.String("snapshot-url", "", "S3-compatible object store for snapshots, http[s]://host[:port]/bucket[/prefix] (empty = disabled; credentials via REGENRAND_S3_ACCESS_KEY/SECRET_KEY)")
	flag.Parse()

	srv := newServer(serverConfig{
		CacheEntries: *cacheSize,
		CacheBytes:   *cacheBytes,
		Compiles:     *compiles,
		Queries:      *queries,
		QueueDepth:   *queueDepth,
		QueueWait:    *queueWait,
		Limits: serverLimits{
			DefaultTimeout: *timeout,
			MaxTimeout:     *maxTimeout,
			MaxBody:        *maxBody,
			MaxStates:      *maxStates,
			MaxTransitions: *maxTransitions,
			DegradeEpsilon: *degradeEpsilon,
			DegradeGrace:   *degradeGrace,
		},
	})

	if *snapshotDir != "" && *snapshotURL != "" {
		log.Fatalf("regenserve: -snapshot-dir and -snapshot-url are mutually exclusive")
	}
	if *snapshotDir != "" {
		if err := attachSnapshots(srv, *snapshotDir); err != nil {
			log.Fatalf("regenserve: snapshot store: %v", err)
		}
	}
	if *snapshotURL != "" {
		if err := attachSnapshotURL(srv, *snapshotURL); err != nil {
			log.Fatalf("regenserve: snapshot object store: %v", err)
		}
	}

	hs := &http.Server{Addr: *addr, Handler: newMux(srv)}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	log.Printf("regenserve: listening on %s (cache %d entries / %d bytes, %d compile + %d query slots)",
		*addr, *cacheSize, *cacheBytes, *compiles, *queries)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-errc:
		log.Fatal(err)
	case sig := <-sigc:
		// Stop admitting (healthz flips to 503 so balancers route away),
		// then drain in-flight requests for up to -drain before exiting.
		srv.draining.Store(true)
		log.Printf("regenserve: %v; draining for up to %v", sig, *drain)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			log.Printf("regenserve: drain incomplete: %v", err)
			os.Exit(1)
		}
		if *snapshotDir != "" || *snapshotURL != "" {
			// Flush captures the chains as deepened by the traffic served
			// since compile, so the next boot warm-starts at full depth.
			written, failed := srv.cache.FlushSnapshots()
			log.Printf("regenserve: snapshot flush: %d written, %d failed", written, failed)
		}
		log.Printf("regenserve: drained, exiting")
	}
}

// attachSnapshots connects a local-directory snapshot store (with retrying
// I/O) to the compile cache and warm-starts the cache from it: every stored
// snapshot that passes decode + checksum + content-key verification is
// loaded; corrupt ones are quarantined, logged, and recompiled on demand.
func attachSnapshots(srv *server, dir string) error {
	st, err := store.NewDir(dir)
	if err != nil {
		return err
	}
	srv.cache.SetSnapshotStore(store.WithRetryPolicy(st, store.RetryPolicy{Attempts: 3, Backoff: 25 * time.Millisecond}), log.Printf)
	warmStart(srv, dir)
	return nil
}

// attachSnapshotURL connects an S3-compatible object store behind the full
// robustness stack — hedged reads inside deadline-aware full-jitter retries
// inside a circuit breaker — and warm-starts from it with bounded
// concurrency. Credentials come from REGENRAND_S3_ACCESS_KEY /
// REGENRAND_S3_SECRET_KEY (unsigned requests when unset). A dead or flaky
// store never takes the server down: reads degrade to recompiles, the
// breaker's open/closed transitions land in the log, and the breaker probes
// the store back into service when it recovers.
func attachSnapshotURL(srv *server, rawURL string) error {
	st, err := newObjstoreStack(rawURL)
	if err != nil {
		return err
	}
	srv.cache.SetSnapshotStore(st, log.Printf)
	warmStart(srv, rawURL)
	return nil
}

// newObjstoreStack builds the production wrapper composition over an
// object-store URL: breaker(retry(hedge(client))). Hedge innermost so each
// retry attempt gets its own tail-latency hedge; breaker outermost so one
// logical operation counts as one verdict after its retries exhaust.
func newObjstoreStack(rawURL string) (store.Store, error) {
	cfg, err := objstore.ParseURL(rawURL)
	if err != nil {
		return nil, err
	}
	cfg.AccessKey = os.Getenv("REGENRAND_S3_ACCESS_KEY")
	cfg.SecretKey = os.Getenv("REGENRAND_S3_SECRET_KEY")
	client, err := objstore.New(cfg)
	if err != nil {
		return nil, err
	}
	return store.WithBreaker(
		store.WithRetryPolicy(
			store.WithHedge(client, 75*time.Millisecond),
			store.RetryPolicy{Attempts: 3, Backoff: 50 * time.Millisecond, MaxElapsed: 5 * time.Second},
		),
		store.BreakerOptions{Failures: 5, Cooldown: 5 * time.Second, Logf: log.Printf},
	), nil
}

// warmStart loads every verifiable snapshot from the attached store. A store
// that cannot even list (down at boot) is logged, not fatal: the server
// boots cold and the breaker re-probes as traffic arrives.
func warmStart(srv *server, from string) {
	loaded, failed, err := srv.cache.WarmStart(context.Background())
	if err != nil {
		log.Printf("regenserve: warm start from %s unavailable (booting cold): %v", from, err)
		return
	}
	log.Printf("regenserve: warm start from %s: %d snapshot(s) loaded, %d failed", from, loaded, failed)
}

// newServer wires the cache, admission classes, and limits together.
type serverConfig struct {
	CacheEntries int
	CacheBytes   int64
	Compiles     int
	Queries      int
	QueueDepth   int
	QueueWait    time.Duration
	Limits       serverLimits
}

func newServer(cfg serverConfig) *server {
	// A zero byte budget disables byte eviction but still installs the
	// size function, so /varz reports retained bytes either way.
	return &server{
		cache:    regenrand.NewCompileCacheBytes(cfg.CacheEntries, cfg.CacheBytes),
		limits:   cfg.Limits,
		compiles: newAdmission(cfg.Compiles, cfg.QueueDepth, cfg.QueueWait),
		queries:  newAdmission(cfg.Queries, cfg.QueueDepth, cfg.QueueWait),
		start:    time.Now(),
	}
}
