//go:build race

package regenrand_test

// raceEnabled reports that the race detector is active; allocation
// assertions are meaningless under its instrumentation (sync.Pool drops
// items at random).
const raceEnabled = true
