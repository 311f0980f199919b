package store

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"regenrand/internal/faultpoint"
)

var ctx = context.Background()

func newTestDir(t *testing.T) *Dir {
	t.Helper()
	d, err := NewDir(t.TempDir())
	if err != nil {
		t.Fatalf("NewDir: %v", err)
	}
	return d
}

func TestDirRoundTrip(t *testing.T) {
	d := newTestDir(t)
	if _, err := d.Read(ctx, "k"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Read on empty dir = %v, want ErrNotFound", err)
	}
	blob := []byte("hello snapshot")
	if err := d.Write(ctx, "k", blob); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := d.Read(ctx, "k")
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !bytes.Equal(got, blob) {
		t.Fatalf("Read = %q, want %q", got, blob)
	}
	// Overwrite replaces atomically.
	if err := d.Write(ctx, "k", []byte("v2")); err != nil {
		t.Fatalf("overwrite: %v", err)
	}
	if got, _ := d.Read(ctx, "k"); string(got) != "v2" {
		t.Fatalf("Read after overwrite = %q", got)
	}
	if err := d.Delete(ctx, "k"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, err := d.Read(ctx, "k"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Read after Delete = %v, want ErrNotFound", err)
	}
	if err := d.Delete(ctx, "k"); err != nil {
		t.Fatalf("Delete of absent blob = %v, want nil", err)
	}
}

func TestDirWriteIfAbsent(t *testing.T) {
	d := newTestDir(t)
	created, err := d.WriteIfAbsent(ctx, "k", []byte("first"))
	if err != nil || !created {
		t.Fatalf("WriteIfAbsent on empty = (%v, %v), want (true, nil)", created, err)
	}
	created, err = d.WriteIfAbsent(ctx, "k", []byte("second"))
	if err != nil || created {
		t.Fatalf("WriteIfAbsent on existing = (%v, %v), want (false, nil)", created, err)
	}
	got, err := d.Read(ctx, "k")
	if err != nil || string(got) != "first" {
		t.Fatalf("Read = %q, %v; the losing write must not replace the blob", got, err)
	}
	// No temp litter from the losing attempt.
	ents, _ := os.ReadDir(d.Path())
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), ".wr-") {
			t.Fatalf("WriteIfAbsent left temp file %s", e.Name())
		}
	}
}

func TestDirListSkipsTempAndQuarantined(t *testing.T) {
	d := newTestDir(t)
	for _, name := range []string{"b1", "b2"} {
		if err := d.Write(ctx, name, []byte(name)); err != nil {
			t.Fatalf("Write %s: %v", name, err)
		}
	}
	// Simulate a crashed write (orphan temp file) and a quarantined blob.
	if err := os.WriteFile(filepath.Join(d.Path(), ".wr-orphan"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := d.Quarantine(ctx, "b2"); err != nil {
		t.Fatalf("Quarantine: %v", err)
	}
	names, err := d.List(ctx)
	if err != nil {
		t.Fatalf("List: %v", err)
	}
	if len(names) != 1 || names[0] != "b1" {
		t.Fatalf("List = %v, want [b1]", names)
	}
	if _, err := d.Read(ctx, "b2"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Read of quarantined blob = %v, want ErrNotFound", err)
	}
	// The bytes survive for forensics under the quarantine name.
	kept, err := os.ReadFile(filepath.Join(d.Path(), "b2.corrupt"))
	if err != nil || string(kept) != "b2" {
		t.Fatalf("quarantined bytes = %q, %v", kept, err)
	}
	// Quarantining again (already gone) is not an error.
	if err := d.Quarantine(ctx, "b2"); err != nil {
		t.Fatalf("second Quarantine = %v, want nil", err)
	}
}

// Quarantining a blob when an earlier quarantined copy already sits under
// name + ".corrupt" must replace it — the newest corruption is the one worth
// diagnosing, and a stuck old copy must never block the quarantine (which
// would leave the corrupt blob live).
func TestDirQuarantineOntoExistingCorruptName(t *testing.T) {
	d := newTestDir(t)
	if err := d.Write(ctx, "k", []byte("corruption-one")); err != nil {
		t.Fatal(err)
	}
	if err := d.Quarantine(ctx, "k"); err != nil {
		t.Fatalf("first Quarantine: %v", err)
	}
	if err := d.Write(ctx, "k", []byte("corruption-two")); err != nil {
		t.Fatal(err)
	}
	if err := d.Quarantine(ctx, "k"); err != nil {
		t.Fatalf("Quarantine onto existing .corrupt name: %v", err)
	}
	if _, err := d.Read(ctx, "k"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Read after second quarantine = %v, want ErrNotFound", err)
	}
	kept, err := os.ReadFile(filepath.Join(d.Path(), "k.corrupt"))
	if err != nil || string(kept) != "corruption-two" {
		t.Fatalf("quarantined bytes = %q, %v; want the newest corruption", kept, err)
	}
}

// List racing concurrent Writes must never surface a temp file: the write
// path keeps in-progress bytes under dot-prefixed names, which List's name
// filter excludes, so a reader sweeping the store mid-write sees only whole
// blobs. Run with -race.
func TestDirListRacingWriteTempSweep(t *testing.T) {
	d := newTestDir(t)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		blob := bytes.Repeat([]byte("x"), 1<<12)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			_ = d.Write(ctx, "churn", blob)
			if i%3 == 0 {
				_, _ = d.WriteIfAbsent(ctx, "churn2", blob)
				_ = d.Delete(ctx, "churn2")
			}
		}
	}()
	deadline := time.Now().Add(200 * time.Millisecond)
	for time.Now().Before(deadline) {
		names, err := d.List(ctx)
		if err != nil {
			t.Errorf("List during writes: %v", err)
			break
		}
		for _, n := range names {
			if strings.HasPrefix(n, ".") || strings.HasSuffix(n, quarantineSuffix) {
				t.Errorf("List surfaced %q during concurrent writes", n)
			}
		}
	}
	close(stop)
	wg.Wait()
}

func TestCheckNameRejectsUnsafeNames(t *testing.T) {
	d := newTestDir(t)
	for _, bad := range []string{
		"", ".", "..", "a/b", `a\b`, "../escape", ".hidden", "x.corrupt",
	} {
		if err := CheckName(bad); err == nil {
			t.Errorf("CheckName(%q) accepted", bad)
		} else if !IsPermanent(err) {
			t.Errorf("CheckName(%q) error is not permanent", bad)
		}
		if err := d.Write(ctx, bad, []byte("x")); err == nil {
			t.Errorf("Write(%q) accepted", bad)
		}
		if _, err := d.Read(ctx, bad); err == nil || errors.Is(err, ErrNotFound) {
			t.Errorf("Read(%q) = %v, want validation error", bad, err)
		}
	}
	if err := CheckName("a1b2c3deadbeef-42"); err != nil {
		t.Errorf("CheckName rejected a safe name: %v", err)
	}
}

// A write that fails at the fault site after the temp file is durable but
// before the rename must leave nothing under the final name — the previous
// blob (or absence) stays intact.
func TestDirWriteFaultLeavesNoTornBlob(t *testing.T) {
	faultpoint.Reset()
	defer faultpoint.Reset()
	d := newTestDir(t)
	if err := d.Write(ctx, "k", []byte("old")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	// The write path hits FaultWrite twice (entry + pre-rename); fail the
	// second hit so the temp file already exists when the fault fires.
	faultpoint.Enable(FaultWrite, faultpoint.Spec{Mode: faultpoint.ModeError, After: 1, Times: 1})
	if err := d.Write(ctx, "k", []byte("new")); !errors.Is(err, faultpoint.ErrInjected) {
		t.Fatalf("faulted Write = %v, want ErrInjected", err)
	}
	got, err := d.Read(ctx, "k")
	if err != nil || string(got) != "old" {
		t.Fatalf("after faulted write Read = %q, %v; want the old blob intact", got, err)
	}
	ents, _ := os.ReadDir(d.Path())
	for _, e := range ents {
		if e.Name() != "k" {
			t.Fatalf("faulted write left %q behind", e.Name())
		}
	}
}

func TestFaultSitesAreRegistered(t *testing.T) {
	for _, name := range []string{FaultRead, FaultWrite} {
		if !faultpoint.Known(name) {
			t.Errorf("fault site %q is not in faultpoint's known-site registry", name)
		}
	}
}

// countingStore fails the first n calls of each verb, then delegates.
type countingStore struct {
	*Dir
	mu        sync.Mutex
	failFirst int
	failWith  error // defaults to a transient error
	calls     map[string]int
}

func (c *countingStore) bump(verb string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.calls[verb]++
	if c.calls[verb] <= c.failFirst {
		if c.failWith != nil {
			return c.failWith
		}
		return errors.New("transient")
	}
	return nil
}

func (c *countingStore) count(verb string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.calls[verb]
}

func (c *countingStore) Read(ctx context.Context, name string) ([]byte, error) {
	if err := c.bump("read"); err != nil {
		return nil, err
	}
	return c.Dir.Read(ctx, name)
}

func (c *countingStore) Write(ctx context.Context, name string, data []byte) error {
	if err := c.bump("write"); err != nil {
		return err
	}
	return c.Dir.Write(ctx, name, data)
}

func (c *countingStore) List(ctx context.Context) ([]string, error) {
	if err := c.bump("list"); err != nil {
		return nil, err
	}
	return c.Dir.List(ctx)
}

func TestWithRetryRecoversTransientFailures(t *testing.T) {
	base := &countingStore{Dir: newTestDir(t), failFirst: 2, calls: map[string]int{}}
	s := WithRetryPolicy(base, RetryPolicy{Attempts: 3, Backoff: time.Millisecond})
	before := ReadStats().Retries
	if err := s.Write(ctx, "k", []byte("v")); err != nil {
		t.Fatalf("Write through retry = %v", err)
	}
	if got := base.count("write"); got != 3 {
		t.Fatalf("write attempted %d times, want 3", got)
	}
	if d := ReadStats().Retries - before; d != 2 {
		t.Fatalf("retry counter moved by %d, want 2", d)
	}
	got, err := s.Read(ctx, "k")
	if err != nil || string(got) != "v" {
		t.Fatalf("Read through retry = %q, %v", got, err)
	}
}

func TestWithRetryDoesNotRetryPermanentErrors(t *testing.T) {
	// ErrNotFound: a miss does not change on retry.
	base := &countingStore{Dir: newTestDir(t), failFirst: 0, calls: map[string]int{}}
	s := WithRetryPolicy(base, RetryPolicy{Attempts: 5, Backoff: time.Millisecond})
	if _, err := s.Read(ctx, "missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Read = %v, want ErrNotFound", err)
	}
	if got := base.count("read"); got != 1 {
		t.Fatalf("ErrNotFound retried: %d attempts", got)
	}
	// An explicitly permanent failure (the 4xx class) short-circuits too.
	perm := &countingStore{Dir: newTestDir(t), failFirst: 100,
		failWith: Permanent(errors.New("403 forbidden")), calls: map[string]int{}}
	s = WithRetryPolicy(perm, RetryPolicy{Attempts: 5, Backoff: time.Millisecond})
	if err := s.Write(ctx, "k", []byte("v")); err == nil || !IsPermanent(err) {
		t.Fatalf("permanent Write = %v, want a permanent error", err)
	}
	if got := perm.count("write"); got != 1 {
		t.Fatalf("permanent error retried: %d attempts", got)
	}
	// Name validation never reaches the backend at all.
	if err := s.Write(ctx, "../escape", []byte("v")); err == nil {
		t.Fatal("bad name accepted")
	}
	if got := perm.count("write"); got != 2 {
		t.Fatalf("bad name attempts = %d, want 2 (no retries)", got)
	}
}

func TestWithRetryExhaustsAttempts(t *testing.T) {
	base := &countingStore{Dir: newTestDir(t), failFirst: 100, calls: map[string]int{}}
	s := WithRetryPolicy(base, RetryPolicy{Attempts: 3, Backoff: time.Microsecond})
	if err := s.Write(ctx, "k", []byte("v")); err == nil {
		t.Fatal("Write through exhausted retry succeeded")
	}
	if got := base.count("write"); got != 3 {
		t.Fatalf("write attempted %d times, want 3", got)
	}
}

// A cancelled context stops the backoff loop promptly: no further attempts,
// and the call returns well before the attempt budget would run out.
func TestWithRetryStopsOnCancelledContext(t *testing.T) {
	base := &countingStore{Dir: newTestDir(t), failFirst: 100, calls: map[string]int{}}
	s := WithRetryPolicy(base, RetryPolicy{Attempts: 50, Backoff: 50 * time.Millisecond})
	cctx, cancel := context.WithCancel(ctx)
	go func() { time.Sleep(10 * time.Millisecond); cancel() }()
	start := time.Now()
	err := s.Write(cctx, "k", []byte("v"))
	if err == nil {
		t.Fatal("Write succeeded under a cancelled ctx and failing store")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("cancelled retry took %v, want prompt exit", elapsed)
	}
	if got := base.count("write"); got > 3 {
		t.Fatalf("cancelled retry kept attempting: %d calls", got)
	}
}

// MaxElapsed bounds the total attempt time even with a generous attempt
// count.
func TestWithRetryMaxElapsed(t *testing.T) {
	base := &countingStore{Dir: newTestDir(t), failFirst: 100, calls: map[string]int{}}
	s := WithRetryPolicy(base, RetryPolicy{
		Attempts: 1000, Backoff: 20 * time.Millisecond,
		MaxBackoff: 20 * time.Millisecond, MaxElapsed: 60 * time.Millisecond,
	})
	start := time.Now()
	if err := s.Write(ctx, "k", []byte("v")); err == nil {
		t.Fatal("Write succeeded against an always-failing store")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("MaxElapsed-bounded retry took %v", elapsed)
	}
	if got := base.count("write"); got >= 100 {
		t.Fatalf("MaxElapsed did not bound attempts: %d calls", got)
	}
}

func TestBreakerOpensAndRecovers(t *testing.T) {
	base := &countingStore{Dir: newTestDir(t), failFirst: 3, calls: map[string]int{}}
	var lines []string
	var mu sync.Mutex
	logf := func(format string, args ...any) {
		mu.Lock()
		lines = append(lines, format)
		mu.Unlock()
	}
	before := ReadStats()
	b := WithBreaker(base, BreakerOptions{Failures: 3, Cooldown: 20 * time.Millisecond, Logf: logf})

	// Three consecutive transient failures open the circuit.
	for i := 0; i < 3; i++ {
		if err := b.Write(ctx, "k", []byte("v")); err == nil {
			t.Fatalf("Write %d succeeded, want transient failure", i)
		}
	}
	// Open: calls fail fast with ErrUnavailable, without touching the store.
	calls := base.count("write")
	err := b.Write(ctx, "k", []byte("v"))
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("Write through open breaker = %v, want ErrUnavailable", err)
	}
	if !IsPermanent(err) {
		t.Fatal("ErrUnavailable must classify as permanent (retry must not grind on an open circuit)")
	}
	if got := base.count("write"); got != calls {
		t.Fatalf("open breaker touched the store: %d calls, want %d", got, calls)
	}
	// After the cooldown a single probe is admitted; the store has recovered
	// (failFirst exhausted), so the probe closes the circuit.
	time.Sleep(25 * time.Millisecond)
	if err := b.Write(ctx, "k", []byte("v")); err != nil {
		t.Fatalf("probe Write = %v, want success", err)
	}
	if err := b.Write(ctx, "k", []byte("v")); err != nil {
		t.Fatalf("Write after recovery = %v", err)
	}
	after := ReadStats()
	if d := after.BreakerOpens - before.BreakerOpens; d != 1 {
		t.Errorf("BreakerOpens moved by %d, want 1", d)
	}
	if d := after.BreakerProbes - before.BreakerProbes; d != 1 {
		t.Errorf("BreakerProbes moved by %d, want 1", d)
	}
	mu.Lock()
	joined := strings.Join(lines, "\n")
	mu.Unlock()
	for _, want := range []string{"open after", "half-open probe", "closed after successful probe"} {
		if !strings.Contains(joined, want) {
			t.Errorf("breaker log lines missing %q:\n%s", want, joined)
		}
	}
}

// ErrNotFound proves the store answered, so it must reset the failure streak
// and never trip the breaker.
func TestBreakerTreatsNotFoundAsContact(t *testing.T) {
	d := newTestDir(t)
	b := WithBreaker(d, BreakerOptions{Failures: 2, Cooldown: time.Hour})
	for i := 0; i < 10; i++ {
		if _, err := b.Read(ctx, "missing"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("Read %d = %v, want ErrNotFound (breaker must stay closed)", i, err)
		}
	}
}

// slowStore delays the next read by the configured amount, once.
type slowStore struct {
	*Dir
	mu    sync.Mutex
	delay time.Duration
}

func (s *slowStore) takeDelay() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	d := s.delay
	s.delay = 0 // only the first (primary) read is slow
	return d
}

func (s *slowStore) setDelay(d time.Duration) {
	s.mu.Lock()
	s.delay = d
	s.mu.Unlock()
}

func (s *slowStore) Read(ctx context.Context, name string) ([]byte, error) {
	if d := s.takeDelay(); d > 0 {
		select {
		case <-time.After(d):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return s.Dir.Read(ctx, name)
}

// A slow primary read must lose to the hedge; counters move accordingly.
func TestHedgedReadBeatsSlowPrimary(t *testing.T) {
	base := &slowStore{Dir: newTestDir(t)}
	if err := base.Dir.Write(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	before := ReadStats()
	h := WithHedge(base, 10*time.Millisecond)
	base.setDelay(300 * time.Millisecond)
	start := time.Now()
	got, err := h.Read(ctx, "k")
	if err != nil || string(got) != "v" {
		t.Fatalf("hedged Read = %q, %v", got, err)
	}
	if elapsed := time.Since(start); elapsed > 200*time.Millisecond {
		t.Fatalf("hedged read took %v; the hedge should have won long before the slow primary", elapsed)
	}
	if d := ReadStats().HedgedReadsWon - before.HedgedReadsWon; d != 1 {
		t.Errorf("HedgedReadsWon moved by %d, want 1", d)
	}
	// A fast primary never launches the hedge.
	before = ReadStats()
	if _, err := h.Read(ctx, "k"); err != nil {
		t.Fatal(err)
	}
	after := ReadStats()
	if after.HedgedReadsWon != before.HedgedReadsWon || after.HedgedReadsLost != before.HedgedReadsLost {
		t.Error("fast read moved hedge counters")
	}
}
