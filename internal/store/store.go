// Package store abstracts the blob storage compiled-artifact snapshots live
// in. The interface is deliberately tiny — named blobs, atomic replacement,
// quarantine, list — so backends beyond the local directory (the
// S3-compatible objstore sub-package for scale-out) only have to map six
// verbs.
//
// The contract every backend must honor is crash-safety of Write: a reader
// observes either the previous blob or the new one in full, never a torn
// mixture. The local-dir backend gets this from the classic temp-file +
// fsync + rename sequence; an object-store backend gets it from single-PUT
// atomicity.
//
// Every verb takes a context: network backends are cancellable mid-request,
// and the retry/breaker/hedge wrappers (WithRetryPolicy, WithBreaker,
// WithHedge) stop sleeping the moment the caller gives up. Errors divide
// into transient (worth retrying) and permanent (retrying cannot help); see
// Permanent and IsPermanent. ErrNotFound, name-validation failures, and an
// open circuit breaker are always permanent.
package store

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"time"

	"regenrand/internal/faultpoint"
)

// Fault-injection sites of the store layer: chaos tests arm them to fail
// snapshot reads (load falls back to recompile) and writes (a write-back
// dies without leaving a torn blob behind). The network backend has its own
// sites (store.net.*, see objstore).
const (
	FaultRead  = "store.read"
	FaultWrite = "store.write"
)

// ErrNotFound is returned by Read for a name with no stored blob. It is the
// one error callers branch on (miss → compile), so wrappers must preserve it
// with %w. It is permanent: a miss does not change on retry.
var ErrNotFound = errors.New("store: not found")

// Store is a named-blob store. Names are flat (no directories); see
// CheckName for the accepted alphabet. Implementations must be safe for
// concurrent use and must observe ctx cancellation (at minimum between
// attempts; network backends cancel in-flight requests).
type Store interface {
	// Read returns the blob stored under name, or ErrNotFound.
	Read(ctx context.Context, name string) ([]byte, error)
	// Write atomically replaces the blob stored under name. A crash or
	// error mid-write leaves the previous blob (or no blob) intact.
	Write(ctx context.Context, name string, data []byte) error
	// WriteIfAbsent stores the blob only when no blob exists under name,
	// reporting whether this call created it. It is the conditional write
	// that keeps concurrent write-back from several nodes to one shared
	// store from duplicating work or racing: exactly one writer creates the
	// object, the rest observe created == false with a nil error. (The
	// object-store backend maps this onto PUT + If-None-Match: *.)
	WriteIfAbsent(ctx context.Context, name string, data []byte) (created bool, err error)
	// Delete removes the blob (nil if absent).
	Delete(ctx context.Context, name string) error
	// Quarantine moves the blob aside so subsequent Reads miss, keeping the
	// bytes for forensics. Corrupt snapshots are quarantined, not deleted:
	// a recurring corruption is a bug worth diagnosing. Nil if absent.
	Quarantine(ctx context.Context, name string) error
	// List returns the stored (non-quarantined) blob names.
	List(ctx context.Context) ([]string, error)
}

// quarantineSuffix marks blobs set aside by Quarantine. They are invisible
// to Read and List under their original name.
const quarantineSuffix = ".corrupt"

// QuarantineSuffix returns the suffix Quarantine files blobs under, for
// backends and tests that need to recognize quarantined keys.
func QuarantineSuffix() string { return quarantineSuffix }

// CheckName validates a blob name: non-empty, no path separators or
// traversal, no leading dot (temp files), and no quarantine suffix. The
// returned errors are permanent — a bad name does not get better on retry.
func CheckName(name string) error {
	switch {
	case name == "":
		return Permanent(fmt.Errorf("store: empty blob name"))
	case strings.ContainsAny(name, "/\\") || name == "." || name == "..":
		return Permanent(fmt.Errorf("store: blob name %q contains a path separator", name))
	case strings.HasPrefix(name, "."):
		return Permanent(fmt.Errorf("store: blob name %q starts with a dot", name))
	case strings.HasSuffix(name, quarantineSuffix):
		return Permanent(fmt.Errorf("store: blob name %q uses the quarantine suffix", name))
	}
	return nil
}

// permanentError marks an error as not worth retrying.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// Permanent wraps err so IsPermanent reports true: retrying the operation
// cannot change the outcome (validation failures, HTTP 4xx, auth errors).
// A nil err stays nil.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &permanentError{err: err}
}

// IsPermanent classifies err for the retry policy: true for ErrNotFound,
// Permanent-wrapped errors, an open circuit breaker, and context
// cancellation/expiry (the caller is gone — more attempts serve no one).
// Everything else is presumed transient.
func IsPermanent(err error) bool {
	if err == nil {
		return false
	}
	var pe *permanentError
	return errors.Is(err, ErrNotFound) ||
		errors.Is(err, ErrUnavailable) ||
		errors.As(err, &pe) ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded)
}

// Dir is the local-directory backend: one file per blob, atomic replacement
// via temp file + fsync + rename (+ best-effort directory fsync), quarantine
// via rename to name + ".corrupt". It is the regenserve -snapshot-dir
// backend. Contexts are observed at call entry; local I/O is not
// interruptible mid-syscall.
type Dir struct {
	path string
}

// NewDir opens (creating if needed) the directory at path.
func NewDir(path string) (*Dir, error) {
	if err := os.MkdirAll(path, 0o755); err != nil {
		return nil, fmt.Errorf("store: open dir: %w", err)
	}
	return &Dir{path: path}, nil
}

// Path returns the backing directory.
func (d *Dir) Path() string { return d.path }

// Read returns the blob stored under name, or ErrNotFound.
func (d *Dir) Read(ctx context.Context, name string) ([]byte, error) {
	if err := checkCall(ctx, name); err != nil {
		return nil, err
	}
	if err := faultpoint.Hit(FaultRead); err != nil {
		return nil, err
	}
	b, err := os.ReadFile(filepath.Join(d.path, name))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	if err != nil {
		return nil, fmt.Errorf("store: read %s: %w", name, err)
	}
	return b, nil
}

// checkCall bundles the per-verb entry validation: a dead context and a bad
// name both fail fast, permanently.
func checkCall(ctx context.Context, name string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return CheckName(name)
}

// writeTemp lands data in a durable dot-prefixed temp file (invisible to
// List and Read) and returns its path; the caller publishes it by rename or
// link. Covers the shared fault site and cleans up after itself on error.
func (d *Dir) writeTemp(name string, data []byte) (string, error) {
	if err := faultpoint.Hit(FaultWrite); err != nil {
		return "", err
	}
	f, err := os.CreateTemp(d.path, ".wr-*")
	if err != nil {
		return "", fmt.Errorf("store: write %s: %w", name, err)
	}
	tmp := f.Name()
	cleanup := func(err error) (string, error) {
		f.Close()
		os.Remove(tmp)
		return "", fmt.Errorf("store: write %s: %w", name, err)
	}
	if _, err := f.Write(data); err != nil {
		return cleanup(err)
	}
	if err := f.Sync(); err != nil {
		return cleanup(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return "", fmt.Errorf("store: write %s: %w", name, err)
	}
	// A second shot at the fault site between the durable temp file and the
	// publishing rename — the window a crash-mid-write-back test cares
	// about. Failing here must leave no trace under the final name.
	if err := faultpoint.Hit(FaultWrite); err != nil {
		os.Remove(tmp)
		return "", err
	}
	return tmp, nil
}

// Write atomically replaces the blob stored under name: the bytes land in a
// dot-prefixed temp file first, are fsynced, and only then renamed over
// the final name — a crash at any point leaves the previous blob or no
// blob, never a torn one. The containing directory is fsynced after the
// rename so the replacement itself is durable.
func (d *Dir) Write(ctx context.Context, name string, data []byte) error {
	if err := checkCall(ctx, name); err != nil {
		return err
	}
	tmp, err := d.writeTemp(name, data)
	if err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(d.path, name)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: write %s: %w", name, err)
	}
	d.syncDir()
	return nil
}

// WriteIfAbsent creates the blob only when name is free, using link(2) —
// which fails with EEXIST instead of replacing — as the atomic
// create-if-absent primitive. An existing blob answers (false, nil).
func (d *Dir) WriteIfAbsent(ctx context.Context, name string, data []byte) (bool, error) {
	if err := checkCall(ctx, name); err != nil {
		return false, err
	}
	// Cheap pre-check: skip serializing data the store already has.
	if _, err := os.Stat(filepath.Join(d.path, name)); err == nil {
		return false, nil
	}
	tmp, err := d.writeTemp(name, data)
	if err != nil {
		return false, err
	}
	defer os.Remove(tmp)
	if err := os.Link(tmp, filepath.Join(d.path, name)); err != nil {
		if errors.Is(err, fs.ErrExist) {
			return false, nil // lost the race: someone else created it
		}
		return false, fmt.Errorf("store: write-if-absent %s: %w", name, err)
	}
	d.syncDir()
	return true, nil
}

// syncDir fsyncs the directory so a completed rename survives power loss.
// Best-effort: some filesystems reject directory fsync, and the rename's
// atomicity does not depend on it.
func (d *Dir) syncDir() {
	if dir, err := os.Open(d.path); err == nil {
		_ = dir.Sync()
		dir.Close()
	}
}

// Delete removes the blob (nil if absent).
func (d *Dir) Delete(ctx context.Context, name string) error {
	if err := checkCall(ctx, name); err != nil {
		return err
	}
	err := os.Remove(filepath.Join(d.path, name))
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("store: delete %s: %w", name, err)
	}
	return nil
}

// Quarantine renames the blob to name + ".corrupt" (replacing any earlier
// quarantined copy), so subsequent Reads miss and recompile while the bytes
// stay on disk for diagnosis. Nil if the blob is absent (a concurrent loader
// may have quarantined it first).
func (d *Dir) Quarantine(ctx context.Context, name string) error {
	if err := checkCall(ctx, name); err != nil {
		return err
	}
	p := filepath.Join(d.path, name)
	err := os.Rename(p, p+quarantineSuffix)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("store: quarantine %s: %w", name, err)
	}
	d.syncDir()
	return nil
}

// List returns the stored blob names, excluding temp files and quarantined
// blobs.
func (d *Dir) List(ctx context.Context) ([]string, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ents, err := os.ReadDir(d.path)
	if err != nil {
		return nil, fmt.Errorf("store: list: %w", err)
	}
	var names []string
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || CheckName(name) != nil {
			continue
		}
		names = append(names, name)
	}
	return names, nil
}

// RetryPolicy configures WithRetryPolicy.
type RetryPolicy struct {
	// Attempts is the maximum tries per call (min 1).
	Attempts int
	// Backoff is the base delay; attempt i sleeps a full-jitter duration
	// drawn uniformly from [0, min(Backoff·2^i, MaxBackoff)). Full jitter
	// decorrelates a fleet of nodes hammering one recovering store.
	Backoff time.Duration
	// MaxBackoff caps a single sleep (0 = 32·Backoff).
	MaxBackoff time.Duration
	// MaxElapsed caps the total time a call may spend across attempts and
	// sleeps (0 = no cap). With a deadline-bearing ctx the earlier of the
	// two wins: a retry never starts when its backoff would overrun either
	// budget.
	MaxElapsed time.Duration
}

func (p RetryPolicy) normalize() RetryPolicy {
	if p.Attempts < 1 {
		p.Attempts = 1
	}
	if p.Backoff <= 0 {
		p.Backoff = 25 * time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 32 * p.Backoff
	}
	return p
}

// WithRetryPolicy wraps s so transient failures are retried with
// full-jitter exponential backoff: up to p.Attempts tries per call with
// sleeps drawn from [0, min(Backoff·2^i, MaxBackoff)), within the total
// attempt-time budget MaxElapsed so a call against a dying store has
// bounded worst-case latency regardless of attempt count. Permanent errors
// (see IsPermanent) — ErrNotFound, name-validation failures, 4xx-class
// object-store rejections, an open circuit breaker, and context
// cancellation — short-circuit: they do not change on retry. It is the
// wrapper to put around flaky network-backed stores; the snapshot layer
// treats a still-failing call as a miss and recompiles, so retries trade
// latency for fewer cold compiles, never correctness.
func WithRetryPolicy(s Store, p RetryPolicy) Store {
	return &retrying{s: s, p: p.normalize()}
}

type retrying struct {
	s Store
	p RetryPolicy
}

// retry runs f until success, a permanent error, attempt exhaustion, or
// budget exhaustion (ctx deadline or MaxElapsed). The sleep between attempts
// is cancellable.
func (r *retrying) retry(ctx context.Context, f func() error) error {
	var deadline time.Time
	if r.p.MaxElapsed > 0 {
		deadline = time.Now().Add(r.p.MaxElapsed)
	}
	backoff := r.p.Backoff
	var err error
	for i := 0; ; i++ {
		if err = f(); err == nil || IsPermanent(err) {
			return err
		}
		if i+1 >= r.p.Attempts || ctx.Err() != nil {
			return err
		}
		sleep := rand.N(min(backoff, r.p.MaxBackoff) + 1)
		if !deadline.IsZero() && time.Now().Add(sleep).After(deadline) {
			return err // the budget is spent; surface the last real error
		}
		if d, ok := ctx.Deadline(); ok && time.Now().Add(sleep).After(d) {
			return err
		}
		retries.Add(1)
		t := time.NewTimer(sleep)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return err
		}
		backoff *= 2
	}
}

func (r *retrying) Read(ctx context.Context, name string) (b []byte, err error) {
	err = r.retry(ctx, func() (e error) { b, e = r.s.Read(ctx, name); return e })
	return b, err
}

func (r *retrying) Write(ctx context.Context, name string, data []byte) error {
	return r.retry(ctx, func() error { return r.s.Write(ctx, name, data) })
}

func (r *retrying) WriteIfAbsent(ctx context.Context, name string, data []byte) (created bool, err error) {
	err = r.retry(ctx, func() (e error) { created, e = r.s.WriteIfAbsent(ctx, name, data); return e })
	return created, err
}

func (r *retrying) Delete(ctx context.Context, name string) error {
	return r.retry(ctx, func() error { return r.s.Delete(ctx, name) })
}

func (r *retrying) Quarantine(ctx context.Context, name string) error {
	return r.retry(ctx, func() error { return r.s.Quarantine(ctx, name) })
}

func (r *retrying) List(ctx context.Context) (names []string, err error) {
	err = r.retry(ctx, func() (e error) { names, e = r.s.List(ctx); return e })
	return names, err
}
