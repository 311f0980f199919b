package regenrand

import (
	"strings"
	"testing"
)

// A request the engine cannot serve is rejected before the measure lookup,
// so it never creates — and caches, possibly evicting a useful view — a
// CompiledMeasure. Every entry point, the batch planner included, names the
// offending value in its error and leaves the measure cache as it found it;
// "AU" and "MS" are methods the engine no longer implements, which the wire
// passes through as unknown.
func TestUnservableRequestRejectedBeforeMeasureLookup(t *testing.T) {
	rm, err := BuildRAID(DefaultRAIDParams(1), false)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := Compile(rm.Chain, CompileOptions{Options: DefaultOptions(), RegenState: rm.Pristine})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cm.Query(Query{Rewards: rm.UnavailabilityRewards(), Times: []float64{1}}); err != nil {
		t.Fatal(err)
	}
	before := cm.measures.Len()
	fresh := func(salt int) []float64 {
		return RewardsFrom(rm.Chain.N(), func(i int) float64 { return float64((i+salt)%3) / 2 })
	}
	for _, tc := range []struct {
		bad string
		q   Query
	}{
		{"XX", Query{Method: "XX"}},
		{"AU", Query{Method: "AU"}},
		{"MS", Query{Method: "MS"}},
		{"XX", Query{Method: MethodRRL, Measure: "XX"}},
		{"euler", Query{Method: MethodRR, Inverter: EulerInverter}},
	} {
		// Two distinct reward vectors at one horizon form a planner group.
		a, b := tc.q, tc.q
		a.Rewards, a.Times = fresh(1), []float64{1, 10}
		b.Rewards, b.Times = fresh(2), []float64{1, 10}
		check := func(entry string, err error) {
			t.Helper()
			if err == nil || !strings.Contains(err.Error(), tc.bad) {
				t.Errorf("%s %+v: error %v does not name %q", entry, tc.q, err, tc.bad)
			}
			if n := cm.measures.Len(); n != before {
				t.Errorf("%s %+v: measure cache grew from %d to %d views", entry, tc.q, before, n)
			}
		}
		_, err := cm.Query(a)
		check("Query", err)
		for _, r := range cm.QueryBatch([]Query{a, b}) {
			check("QueryBatch", r.Err)
		}
		_, err = cm.QueryBounds(a)
		check("QueryBounds", err)
		for _, r := range cm.QueryBoundsBatch([]Query{a, b}) {
			check("QueryBoundsBatch", r.Err)
		}
	}
}

// A measure view over a regenerative compile keeps one copy of its rewards:
// the binding's.
func TestMeasureSharesBindingRewards(t *testing.T) {
	rm, err := BuildRAID(DefaultRAIDParams(1), false)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := Compile(rm.Chain, CompileOptions{Options: DefaultOptions(), RegenState: rm.Pristine})
	if err != nil {
		t.Fatal(err)
	}
	rewards := rm.UnavailabilityRewards()
	m, err := cm.Measure(rewards)
	if err != nil {
		t.Fatal(err)
	}
	if &m.Rewards()[0] != &m.binding.Rewards()[0] {
		t.Error("measure view and binding hold separate copies of the rewards")
	}
	if &m.Rewards()[0] == &rewards[0] {
		t.Error("measure view aliases the caller's rewards slice")
	}
}
