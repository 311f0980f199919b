//go:build !race

package regenrand_test

const raceEnabled = false
