package store

import (
	"context"
	"time"
)

// WithHedge wraps s so a Read that has not answered within delay launches a
// second, identical request and returns whichever finishes first — the
// classic tail-latency hedge for warm starts over a network store, where one
// slow replica should cost one slow blob, not a slow boot. Only Read is
// hedged: writes are not idempotent in latency (two racing PUTs double
// upload bandwidth) and the conditional-write path must see exactly one
// winner. The loser's request is cancelled, not abandoned.
//
// Wrap it INSIDE WithRetryPolicy (WithRetryPolicy(WithHedge(backend, …),
// …)) so each retry attempt gets its own hedge, and the hedge never re-runs
// a request that failed fast.
func WithHedge(s Store, delay time.Duration) Store {
	if delay <= 0 {
		delay = 50 * time.Millisecond
	}
	return &hedged{Store: s, delay: delay}
}

type hedged struct {
	Store // every verb but Read passes straight through
	delay time.Duration
}

type readResult struct {
	data  []byte
	err   error
	hedge bool // true when produced by the hedge request
}

func (h *hedged) Read(ctx context.Context, name string) ([]byte, error) {
	rctx, cancel := context.WithCancel(ctx)
	defer cancel() // aborts the in-flight loser
	ch := make(chan readResult, 2)
	launch := func(hedge bool) {
		go func() {
			data, err := h.Store.Read(rctx, name)
			ch <- readResult{data: data, err: err, hedge: hedge}
		}()
	}
	launch(false)
	t := time.NewTimer(h.delay)
	defer t.Stop()
	launched := 1
	var hedging bool
	var firstErr error
	for {
		select {
		case <-t.C:
			if !hedging {
				hedging = true
				launched++
				launch(true)
			}
		case r := <-ch:
			launched--
			if r.err == nil {
				if hedging {
					if r.hedge {
						hedgedWon.Add(1)
					} else {
						hedgedLost.Add(1)
					}
				}
				return r.data, nil
			}
			if firstErr == nil {
				firstErr = r.err
			}
			// With no arm left running there is nothing to wait for; with
			// the hedge not yet launched the failed arm was the only one —
			// fail fast rather than wait out the timer (an erroring store
			// is the retry wrapper's job, not ours). Otherwise one arm is
			// still in flight; wait for it.
			if launched == 0 || !hedging {
				return nil, firstErr
			}
		}
	}
}
