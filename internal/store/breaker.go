package store

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrUnavailable is returned without touching the backend while a circuit
// breaker is open: the store has failed enough consecutive calls that more
// traffic would only add latency to every cache miss. It is permanent for
// the retry policy (retrying an open breaker is exactly the taxing the
// breaker exists to stop); the snapshot layer treats it as a miss and goes
// straight to recompile.
var ErrUnavailable = errors.New("store: unavailable (circuit open)")

// BreakerOptions configures WithBreaker.
type BreakerOptions struct {
	// Failures is the consecutive-failure count that opens the circuit
	// (min 1, default 5). ErrNotFound and other permanent errors count as
	// contact — the store answered — so they reset the streak.
	Failures int
	// Cooldown is how long the circuit stays open before admitting one
	// half-open probe (default 5s).
	Cooldown time.Duration
	// Logf, when non-nil, receives one line per state transition
	// ("store breaker: open …", "store breaker: half-open probe",
	// "store breaker: closed …") — the operator-visible trace that the
	// store died and recovered.
	Logf func(format string, args ...any)
}

func (o BreakerOptions) normalize() BreakerOptions {
	if o.Failures < 1 {
		o.Failures = 5
	}
	if o.Cooldown <= 0 {
		o.Cooldown = 5 * time.Second
	}
	return o
}

// WithBreaker wraps s in a circuit breaker: after Failures consecutive
// transient failures every call fails fast with ErrUnavailable until
// Cooldown has passed, then a single probe call is admitted — success closes
// the circuit, failure re-opens it. Wrap it OUTSIDE WithRetryPolicy
// (WithBreaker(WithRetryPolicy(backend, …), …)) so one logical operation
// counts as one breaker verdict after its retries are exhausted.
func WithBreaker(s Store, o BreakerOptions) Store {
	return &breaker{s: s, o: o.normalize()}
}

type breakerState uint8

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

type breaker struct {
	s Store
	o BreakerOptions

	mu       sync.Mutex
	state    breakerState
	failures int       // consecutive transient failures while closed
	openedAt time.Time // when the circuit last opened
}

func (b *breaker) logf(format string, args ...any) {
	if b.o.Logf != nil {
		b.o.Logf(format, args...)
	}
}

// admit decides whether a call may proceed. probe is true when this call is
// the single half-open trial.
func (b *breaker) admit() (proceed, probe bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true, false
	case breakerOpen:
		if time.Since(b.openedAt) < b.o.Cooldown {
			return false, false
		}
		b.state = breakerHalfOpen
		breakerProbes.Add(1)
		b.logf("store breaker: half-open probe after %v cooldown", b.o.Cooldown)
		return true, true
	default: // half-open: a probe is already in flight
		return false, false
	}
}

// settle records the outcome of an admitted call. Permanent errors (a 404, a
// validation reject) prove the store answered, so they count as success for
// the breaker's purposes.
func (b *breaker) settle(probe bool, err error) {
	transientFailure := err != nil && !IsPermanent(err)
	b.mu.Lock()
	defer b.mu.Unlock()
	if probe {
		if transientFailure {
			b.state = breakerOpen
			b.openedAt = time.Now()
			b.logf("store breaker: probe failed, re-opening: %v", err)
		} else {
			b.state = breakerClosed
			b.failures = 0
			b.logf("store breaker: closed after successful probe")
		}
		return
	}
	if b.state != breakerClosed {
		return // a late call from before the state change; ignore
	}
	if !transientFailure {
		b.failures = 0
		return
	}
	b.failures++
	if b.failures >= b.o.Failures {
		b.state = breakerOpen
		b.openedAt = time.Now()
		breakerOpens.Add(1)
		b.logf("store breaker: open after %d consecutive failures (last: %v); cooling down %v",
			b.failures, err, b.o.Cooldown)
	}
}

// do runs f under the breaker protocol.
func (b *breaker) do(op string, f func() error) error {
	proceed, probe := b.admit()
	if !proceed {
		return fmt.Errorf("%w: %s", ErrUnavailable, op)
	}
	err := f()
	b.settle(probe, err)
	return err
}

func (b *breaker) Read(ctx context.Context, name string) (data []byte, err error) {
	err = b.do("read", func() (e error) { data, e = b.s.Read(ctx, name); return e })
	return data, err
}

func (b *breaker) Write(ctx context.Context, name string, data []byte) error {
	return b.do("write", func() error { return b.s.Write(ctx, name, data) })
}

func (b *breaker) WriteIfAbsent(ctx context.Context, name string, data []byte) (created bool, err error) {
	err = b.do("write-if-absent", func() (e error) { created, e = b.s.WriteIfAbsent(ctx, name, data); return e })
	return created, err
}

func (b *breaker) Delete(ctx context.Context, name string) error {
	return b.do("delete", func() error { return b.s.Delete(ctx, name) })
}

func (b *breaker) Quarantine(ctx context.Context, name string) error {
	return b.do("quarantine", func() error { return b.s.Quarantine(ctx, name) })
}

func (b *breaker) List(ctx context.Context) (names []string, err error) {
	err = b.do("list", func() (e error) { names, e = b.s.List(ctx); return e })
	return names, err
}
