package store

import "sync/atomic"

// Process-wide store robustness telemetry, fed by the retry/breaker/hedge
// wrappers. Monotone counters; the engine merges them into ReadEngineStats
// and the serving layer exports them on /varz, so a fleet operator can see a
// flaky store from the outside: retries climbing (transient faults), hedges
// winning (tail latency), the breaker opening (the store is down and the
// compile path has stopped waiting on it).
var (
	retries       atomic.Int64
	breakerOpens  atomic.Int64
	breakerProbes atomic.Int64
	hedgedWon     atomic.Int64
	hedgedLost    atomic.Int64
)

// Stats is a snapshot of the wrapper counters.
type Stats struct {
	// Retries counts backoff retries performed by WithRetryPolicy wrappers
	// (the first attempt of a call is not a retry).
	Retries int64
	// BreakerOpens counts closed→open transitions of WithBreaker wrappers.
	BreakerOpens int64
	// BreakerProbes counts half-open probe attempts (each cooldown expiry
	// admits one).
	BreakerProbes int64
	// HedgedReadsWon counts hedged reads where the hedge request finished
	// first; HedgedReadsLost counts launched hedges beaten by the primary.
	// Their sum is the number of hedges actually launched.
	HedgedReadsWon  int64
	HedgedReadsLost int64
}

// ReadStats returns the current wrapper counter values.
func ReadStats() Stats {
	return Stats{
		Retries:         retries.Load(),
		BreakerOpens:    breakerOpens.Load(),
		BreakerProbes:   breakerProbes.Load(),
		HedgedReadsWon:  hedgedWon.Load(),
		HedgedReadsLost: hedgedLost.Load(),
	}
}
