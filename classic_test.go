package regenrand_test

import (
	"math"
	"testing"

	"regenrand"
)

// The classic RR and RRL solvers keep their reuse rule: a call whose times
// stay within the deepest horizon seen so far reads that horizon's series,
// so TRR([10]) after TRR([1000]) answers like t = 10 in a query whose
// horizon is 1000, and builds nothing.
func TestClassicSolverReusesDeeperSeries(t *testing.T) {
	m, err := regenrand.BuildRAID(regenrand.DefaultRAIDParams(2), false)
	if err != nil {
		t.Fatal(err)
	}
	rewards := m.UnavailabilityRewards()
	opts := regenrand.DefaultOptions()
	cm, err := regenrand.Compile(m.Chain, regenrand.CompileOptions{Options: opts, RegenState: m.Pristine, DisableRetention: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		method regenrand.Method
		new    func() (regenrand.Solver, error)
	}{
		{regenrand.MethodRR, func() (regenrand.Solver, error) { return regenrand.NewRR(m.Chain, rewards, m.Pristine, opts) }},
		{regenrand.MethodRRL, func() (regenrand.Solver, error) { return regenrand.NewRRL(m.Chain, rewards, m.Pristine, opts) }},
	} {
		s, err := c.new()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.TRR([]float64{1000}); err != nil {
			t.Fatal(err)
		}
		steps := s.Stats().BuildSteps
		got, err := s.TRR([]float64{10})
		if err != nil {
			t.Fatal(err)
		}
		if s.Stats().BuildSteps != steps {
			t.Errorf("%s: BuildSteps %d → %d on a call inside the horizon", c.method, steps, s.Stats().BuildSteps)
		}
		want, err := cm.Query(regenrand.Query{Method: c.method, Rewards: rewards, Times: []float64{10, 1000}})
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got[0].Value) != math.Float64bits(want[0].Value) ||
			got[0].Steps != want[0].Steps || got[0].Abscissae != want[0].Abscissae {
			t.Errorf("%s: TRR(10) after TRR(1000) = %+v, query row = %+v", c.method, got[0], want[0])
		}
	}
}

// Bounds rows count the abscissae of their joint inversion (none for RR),
// and a classic bounds call adds the rows' sum to Stats().Abscissae, the
// count BenchmarkRRLBoundsBatch reports.
func TestBoundsAbscissae(t *testing.T) {
	m, err := regenrand.BuildRAID(regenrand.DefaultRAIDParams(2), true)
	if err != nil {
		t.Fatal(err)
	}
	rewards := m.UnreliabilityRewards()
	opts := regenrand.DefaultOptions()
	ts := []float64{1, 10, 100}
	for _, c := range []struct {
		method regenrand.Method
		new    func() (regenrand.Solver, error)
	}{
		{regenrand.MethodRR, func() (regenrand.Solver, error) { return regenrand.NewRR(m.Chain, rewards, m.Pristine, opts) }},
		{regenrand.MethodRRL, func() (regenrand.Solver, error) { return regenrand.NewRRL(m.Chain, rewards, m.Pristine, opts) }},
	} {
		s, err := c.new()
		if err != nil {
			t.Fatal(err)
		}
		bs := s.(regenrand.BoundingSolver)
		for _, mrr := range []bool{false, true} {
			before := s.Stats().Abscissae
			var rows []regenrand.Bounds
			if mrr {
				rows, err = bs.MRRBounds(ts)
			} else {
				rows, err = bs.TRRBounds(ts)
			}
			if err != nil {
				t.Fatal(err)
			}
			sum := 0
			for _, b := range rows {
				if c.method == regenrand.MethodRRL && b.Abscissae <= 0 || c.method == regenrand.MethodRR && b.Abscissae != 0 {
					t.Errorf("%s mrr=%v t=%v: %d abscissae", c.method, mrr, b.T, b.Abscissae)
				}
				sum += b.Abscissae
			}
			if got := s.Stats().Abscissae - before; got != sum {
				t.Errorf("%s mrr=%v: Stats().Abscissae rose by %d, the rows sum to %d", c.method, mrr, got, sum)
			}
		}
	}
}
