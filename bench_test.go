// Benchmarks regenerating the paper's evaluation artifacts, one family per
// table and figure (§3). Step counts are attached to the benchmark output
// as custom metrics ("steps"), so the tables can be read off `go test
// -bench` output directly; wall-clock times per operation reproduce the
// CPU-time figures.
//
// By default the sweeps stop at t = 1000 h for the methods whose cost grows
// linearly with t (SR, and RR's V-solution), exactly where the paper's
// crossovers become visible, keeping the default run to a few minutes. Set
// REPRO_FULL=1 to run the complete sweep to t = 10⁵ h for both G = 20 and
// G = 40 (tens of minutes, dominated by SR at Λt ≈ 4.4·10⁶ steps).
package regenrand_test

import (
	"fmt"
	"math/rand"
	"os"
	"sync"
	"testing"

	"regenrand"
	"regenrand/internal/core"
	"regenrand/internal/ctmc"
	"regenrand/internal/raid"
	"regenrand/internal/regen"
)

var full = os.Getenv("REPRO_FULL") == "1"

func sweepTimes(expensive bool) []float64 {
	if full {
		return []float64{1, 10, 100, 1000, 1e4, 1e5}
	}
	if expensive {
		return []float64{1, 10, 100, 1000}
	}
	return []float64{1, 10, 100, 1000, 1e4, 1e5}
}

func gValues() []int {
	if full {
		return []int{20, 40}
	}
	return []int{20}
}

// Cached models so benchmark setup does not re-run the BFS generator.
var (
	modelMu    sync.Mutex
	modelCache = map[[2]int]*raid.Model{}
)

func raidModel(b *testing.B, g int, absorbing bool) *raid.Model {
	b.Helper()
	modelMu.Lock()
	defer modelMu.Unlock()
	key := [2]int{g, boolToInt(absorbing)}
	if m, ok := modelCache[key]; ok {
		return m
	}
	m, err := raid.Build(raid.DefaultParams(g), absorbing)
	if err != nil {
		b.Fatal(err)
	}
	modelCache[key] = m
	return m
}

func boolToInt(v bool) int {
	if v {
		return 1
	}
	return 0
}

// BenchmarkTable1StepsUA regenerates the RR/RRL column of Table 1: the
// series-construction cost for the UA measure, with the per-t step count
// reported as the "steps" metric.
func BenchmarkTable1StepsUA(b *testing.B) {
	for _, g := range gValues() {
		m := raidModel(b, g, false)
		rewards := m.UnavailabilityRewards()
		for _, t := range sweepTimes(false) {
			b.Run(fmt.Sprintf("G=%d/t=%g", g, t), func(b *testing.B) {
				var steps int
				for i := 0; i < b.N; i++ {
					series, err := regen.Build(m.Chain, rewards, m.Pristine, core.DefaultOptions(), t)
					if err != nil {
						b.Fatal(err)
					}
					steps = series.Steps()
				}
				b.ReportMetric(float64(steps), "steps")
			})
		}
	}
}

// BenchmarkTable1StepsUARSD regenerates the RSD column of Table 1: the
// detection-limited stepping cost for UA.
func BenchmarkTable1StepsUARSD(b *testing.B) {
	for _, g := range gValues() {
		m := raidModel(b, g, false)
		rewards := m.UnavailabilityRewards()
		for _, t := range sweepTimes(false) {
			b.Run(fmt.Sprintf("G=%d/t=%g", g, t), func(b *testing.B) {
				var steps int
				for i := 0; i < b.N; i++ {
					s, err := regenrand.NewRSD(m.Chain, rewards, regenrand.DefaultOptions())
					if err != nil {
						b.Fatal(err)
					}
					res, err := s.TRR([]float64{t})
					if err != nil {
						b.Fatal(err)
					}
					steps = res[0].Steps
				}
				b.ReportMetric(float64(steps), "steps")
			})
		}
	}
}

// BenchmarkFig3UA regenerates Figure 3: per-(method, t) solution times for
// the UA measure (RRL vs RR vs RSD).
func BenchmarkFig3UA(b *testing.B) {
	for _, g := range gValues() {
		m := raidModel(b, g, false)
		rewards := m.UnavailabilityRewards()
		for _, method := range []string{"RRL", "RR", "RSD"} {
			expensive := method == "RR"
			for _, t := range sweepTimes(expensive) {
				b.Run(fmt.Sprintf("G=%d/%s/t=%g", g, method, t), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						s := newSolverBench(b, method, m, rewards)
						if _, err := s.TRR([]float64{t}); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

// BenchmarkTable2StepsUR regenerates the RR/RRL column of Table 2 (UR
// measure on the absorbing model).
func BenchmarkTable2StepsUR(b *testing.B) {
	for _, g := range gValues() {
		m := raidModel(b, g, true)
		rewards := m.UnreliabilityRewards()
		for _, t := range sweepTimes(false) {
			b.Run(fmt.Sprintf("G=%d/t=%g", g, t), func(b *testing.B) {
				var steps int
				for i := 0; i < b.N; i++ {
					series, err := regen.Build(m.Chain, rewards, m.Pristine, core.DefaultOptions(), t)
					if err != nil {
						b.Fatal(err)
					}
					steps = series.Steps()
				}
				b.ReportMetric(float64(steps), "steps")
			})
		}
	}
}

// BenchmarkFig4UR regenerates Figure 4: per-(method, t) solution times for
// the UR measure (RRL vs RR vs SR).
func BenchmarkFig4UR(b *testing.B) {
	for _, g := range gValues() {
		m := raidModel(b, g, true)
		rewards := m.UnreliabilityRewards()
		for _, method := range []string{"RRL", "RR", "SR"} {
			expensive := method == "RR" || method == "SR"
			for _, t := range sweepTimes(expensive) {
				b.Run(fmt.Sprintf("G=%d/%s/t=%g", g, method, t), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						s := newSolverBench(b, method, m, rewards)
						if _, err := s.TRR([]float64{t}); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

func newSolverBench(b *testing.B, method string, m *raid.Model, rewards []float64) regenrand.Solver {
	b.Helper()
	var s regenrand.Solver
	var err error
	switch method {
	case "SR":
		s, err = regenrand.NewSR(m.Chain, rewards, regenrand.DefaultOptions())
	case "RSD":
		s, err = regenrand.NewRSD(m.Chain, rewards, regenrand.DefaultOptions())
	case "RR":
		s, err = regenrand.NewRR(m.Chain, rewards, m.Pristine, regenrand.DefaultOptions())
	case "RRL":
		s, err = regenrand.NewRRL(m.Chain, rewards, m.Pristine, regenrand.DefaultOptions())
	default:
		b.Fatalf("unknown method %s", method)
	}
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkAblationTFactor regenerates the §2.2 design study: inversion
// cost as the period factor κ (T = κt) sweeps from Crump's 1 to Piessens'
// 16, with the abscissa count as a metric.
func BenchmarkAblationTFactor(b *testing.B) {
	m := raidModel(b, 20, true)
	rewards := m.UnreliabilityRewards()
	for _, kappa := range []float64{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("kappa=%g", kappa), func(b *testing.B) {
			var absc int
			for i := 0; i < b.N; i++ {
				s, err := regenrand.NewRRLWithConfig(m.Chain, rewards, m.Pristine,
					regenrand.DefaultOptions(), regenrand.RRLConfig{TFactor: kappa})
				if err != nil {
					b.Fatal(err)
				}
				res, err := s.TRR([]float64{1000})
				if err != nil {
					b.Fatal(err)
				}
				absc = res[0].Abscissae
			}
			b.ReportMetric(float64(absc), "abscissae")
		})
	}
}

// BenchmarkAblationAcceleration measures the epsilon-algorithm ablation at
// a tolerance where the raw series still converges (the paper-strength
// ε=1e-12 setting does not converge at all without acceleration, which is
// the stronger statement made by TestAccelerationAblation).
func BenchmarkAblationAcceleration(b *testing.B) {
	m := raidModel(b, 20, true)
	rewards := m.UnreliabilityRewards()
	opts := regenrand.DefaultOptions()
	opts.Epsilon = 1e-6
	for _, accel := range []bool{true, false} {
		b.Run(fmt.Sprintf("accelerate=%v", accel), func(b *testing.B) {
			var absc int
			for i := 0; i < b.N; i++ {
				s, err := regenrand.NewRRLWithConfig(m.Chain, rewards, m.Pristine, opts,
					regenrand.RRLConfig{DisableAcceleration: !accel})
				if err != nil {
					b.Fatal(err)
				}
				res, err := s.TRR([]float64{1000})
				if err != nil {
					b.Skip("raw series did not converge (expected at tight tolerances):", err)
				}
				absc = res[0].Abscissae
			}
			b.ReportMetric(float64(absc), "abscissae")
		})
	}
}

// rrlBatchTimes is the 16-point sweep of the RRL batch benchmarks.
var rrlBatchTimes = []float64{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 1e4, 2e4, 5e4, 1e5}

// reportAbscissae attaches the per-op abscissa count, the per-time-point
// average (the stopping-rule efficiency a backend buys — fewer transform
// evaluations per inverted point), and the abscissae-per-second throughput
// (the transform-evaluation rate the blocked kernels are optimized for) to
// the benchmark output.
func reportAbscissae(b *testing.B, perOp, points int) {
	b.Helper()
	b.ReportMetric(float64(perOp), "abscissae")
	if points > 0 {
		b.ReportMetric(float64(perOp)/float64(points), "abscissae/timepoint")
	}
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(perOp)*float64(b.N)/sec, "abscissae/s")
	}
}

// BenchmarkRRLBatch measures a multi-time-point RRL sweep on one solver:
// the series is built once for the largest horizon and the independent
// per-t inversions fan out over the worker pool, so this row is the one
// that scales with cores (each t is an independent Durbin series).
func BenchmarkRRLBatch(b *testing.B) {
	m := raidModel(b, 20, false)
	rewards := m.UnavailabilityRewards()
	ts := rrlBatchTimes
	for _, measure := range []string{"TRR", "MRR"} {
		b.Run(measure, func(b *testing.B) {
			s, err := regenrand.NewRRL(m.Chain, rewards, m.Pristine, regenrand.DefaultOptions())
			if err != nil {
				b.Fatal(err)
			}
			// Build the series outside the timed loop: the batch fan-out is
			// what this benchmark isolates.
			if _, err := s.TRR(ts[len(ts)-1:]); err != nil {
				b.Fatal(err)
			}
			var absc int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var res []regenrand.Result
				var err error
				if measure == "TRR" {
					res, err = s.TRR(ts)
				} else {
					res, err = s.MRR(ts)
				}
				if err != nil {
					b.Fatal(err)
				}
				absc = 0
				for _, r := range res {
					absc += r.Abscissae
				}
			}
			reportAbscissae(b, absc, len(ts))
		})
	}
}

// BenchmarkRRLBoundsBatch measures the certified-bounds sweep over the same
// 16 time points: the fused path inverts the value and truncation-mass
// transforms jointly at shared abscissae, so this row should cost barely
// more than the corresponding BenchmarkRRLBatch row (it was ~2× before the
// fusion, one full inversion per transform).
func BenchmarkRRLBoundsBatch(b *testing.B) {
	m := raidModel(b, 20, false)
	rewards := m.UnavailabilityRewards()
	ts := rrlBatchTimes
	for _, measure := range []string{"TRR", "MRR"} {
		b.Run(measure, func(b *testing.B) {
			s, err := regenrand.NewRRL(m.Chain, rewards, m.Pristine, regenrand.DefaultOptions())
			if err != nil {
				b.Fatal(err)
			}
			bs, ok := s.(regenrand.BoundingSolver)
			if !ok {
				b.Fatal("RRL solver does not produce bounds")
			}
			stats, ok := s.(interface{ Stats() regenrand.Stats })
			if !ok {
				b.Fatal("RRL solver does not report stats")
			}
			if _, err := s.TRR(ts[len(ts)-1:]); err != nil {
				b.Fatal(err)
			}
			before := stats.Stats().Abscissae
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				if measure == "TRR" {
					_, err = bs.TRRBounds(ts)
				} else {
					_, err = bs.MRRBounds(ts)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
			reportAbscissae(b, (stats.Stats().Abscissae-before)/b.N, len(ts))
		})
	}
}

// BenchmarkRRLInverter compares the Laplace inversion backends on the
// BenchmarkRRLBoundsBatch workload at ε=1e-6, the loosest common budget
// (euler's certified roundoff floor rejects the paper's 1e-12): a 16-point
// certified-bounds sweep per op, with the per-op abscissa count, the
// per-time-point average, and the evaluation rate as metrics. Euler's
// fixed-order binomial averaging over the exactly-alternating T=t series
// needs fewer trailing terms than the ε-algorithm's streak rule on the
// κ=8 discretization, so the euler rows should show lower
// abscissae/timepoint at equal certification.
func BenchmarkRRLInverter(b *testing.B) {
	m := raidModel(b, 20, false)
	rewards := m.UnavailabilityRewards()
	opts := regenrand.DefaultOptions()
	opts.Epsilon = 1e-6
	ts := rrlBatchTimes
	for _, inv := range []string{"durbin", "euler"} {
		for _, measure := range []string{"TRR", "MRR"} {
			b.Run(fmt.Sprintf("inverter=%s/%s", inv, measure), func(b *testing.B) {
				s, err := regenrand.NewRRLWithConfig(m.Chain, rewards, m.Pristine, opts,
					regenrand.RRLConfig{Inverter: inv})
				if err != nil {
					b.Fatal(err)
				}
				bs, ok := s.(regenrand.BoundingSolver)
				if !ok {
					b.Fatal("RRL solver does not produce bounds")
				}
				stats, ok := s.(interface{ Stats() regenrand.Stats })
				if !ok {
					b.Fatal("RRL solver does not report stats")
				}
				if _, err := s.TRR(ts[len(ts)-1:]); err != nil {
					b.Fatal(err)
				}
				before := stats.Stats().Abscissae
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					var err error
					if measure == "TRR" {
						_, err = bs.TRRBounds(ts)
					} else {
						_, err = bs.MRRBounds(ts)
					}
					if err != nil {
						b.Fatal(err)
					}
				}
				reportAbscissae(b, (stats.Stats().Abscissae-before)/b.N, len(ts))
			})
		}
	}
}

// BenchmarkCompileQueryReuse quantifies the compile/query split on the
// G=20 RAID availability model: the classic construct-and-solve path pays
// the uniformization and the full series stepping per solver, while a
// second query against an already-compiled model pays only coefficient
// binding (new rewards) or transform inversion (new time batch). The
// acceptance target is ≥5× for the compiled second query over the classic
// path.
func BenchmarkCompileQueryReuse(b *testing.B) {
	m := raidModel(b, 20, false)
	rewards := m.UnavailabilityRewards()
	opts := regenrand.DefaultOptions()
	ts := []float64{1, 10, 100, 1000}

	// freshRewards returns a distinct performability-style vector per call,
	// so the rebinding benchmarks never hit the measure cache. The maximum
	// reward is pinned at 1 so every binding certifies the same truncation
	// level — the steady state of a server rotating reward structures of one
	// scale — rather than re-extending the shared series every iteration.
	iter := 0
	freshRewards := func() []float64 {
		iter++
		salt := iter
		return regenrand.RewardsFrom(m.Chain.N(), func(i int) float64 {
			return float64((i*31+salt)%8) / 7
		})
	}

	b.Run("classic-construct-and-solve", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s, err := regenrand.NewRRL(m.Chain, rewards, m.Pristine, opts)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := s.TRR(ts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("compiled-new-time-batch", func(b *testing.B) {
		cm, err := regenrand.Compile(m.Chain, regenrand.CompileOptions{Options: opts, RegenState: m.Pristine})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := cm.Query(regenrand.Query{Rewards: rewards, Times: ts}); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tsi := []float64{0.5 + float64(i%7), 40 + float64(i%13), 1000}
			if _, err := cm.Query(regenrand.Query{Rewards: rewards, Times: tsi}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("compiled-new-rewards", func(b *testing.B) {
		cm, err := regenrand.Compile(m.Chain, regenrand.CompileOptions{Options: opts, RegenState: m.Pristine})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := cm.Query(regenrand.Query{Rewards: freshRewards(), Times: ts}); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := cm.Query(regenrand.Query{Rewards: freshRewards(), Times: ts}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("classic-new-rewards", func(b *testing.B) {
		// The old path for a new rewards vector: a fresh solver and a fresh
		// series build every time.
		for i := 0; i < b.N; i++ {
			s, err := regenrand.NewRRL(m.Chain, freshRewards(), m.Pristine, opts)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := s.TRR(ts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCompileColdStart measures the construct-and-solve path end to
// end — the first query against a model nobody compiled before — on the
// paper's G=20 and G=40 RAID instances and on a ~10⁴-state random banded
// model (deep BFS diameter, the regime reachability-frontier pruning is
// built for). The "steps/s" metric is the full-model DTMC stepping
// throughput of the series construction, the quantity Tables 1–2 count;
// "steps" is the per-build step count. The frontier-pruning ablation of the
// banded model's construction is regen's BenchmarkBuildBandFrontier.
func BenchmarkCompileColdStart(b *testing.B) {
	type scenario struct {
		name    string
		model   *regenrand.CTMC
		rewards []float64
		regen   int
		t       float64
	}
	var scenarios []scenario
	for _, g := range []int{20, 40} {
		m := raidModel(b, g, false)
		scenarios = append(scenarios, scenario{
			name:    fmt.Sprintf("model=G%d/t=1000", g),
			model:   m.Chain,
			rewards: m.UnavailabilityRewards(),
			regen:   m.Pristine,
			t:       1000,
		})
	}
	band, err := ctmc.RandomBand(rand.New(rand.NewSource(42)), ctmc.BandOptions{States: 10000, Bandwidth: 8, Degree: 3, Absorbing: 2})
	if err != nil {
		b.Fatal(err)
	}
	bandRewards := ctmc.RandomRewards(rand.New(rand.NewSource(43)), band, 1, false)
	// Two horizons: t=5 stays inside the frontier growth phase (K ≪ BFS
	// diameter ≈ 1250), t=100 runs well past saturation.
	scenarios = append(scenarios,
		scenario{name: "model=band1e4/t=5", model: band, rewards: bandRewards, regen: 0, t: 5},
		scenario{name: "model=band1e4/t=100", model: band, rewards: bandRewards, regen: 0, t: 100},
	)
	run := func(b *testing.B, sc scenario) {
		var steps int
		for i := 0; i < b.N; i++ {
			s, err := regenrand.NewRRL(sc.model, sc.rewards, sc.regen, regenrand.DefaultOptions())
			if err != nil {
				b.Fatal(err)
			}
			if _, err := s.TRR([]float64{sc.t}); err != nil {
				b.Fatal(err)
			}
			steps = s.(interface{ Stats() regenrand.Stats }).Stats().BuildSteps
		}
		b.ReportMetric(float64(steps), "steps")
		if sec := b.Elapsed().Seconds(); sec > 0 {
			b.ReportMetric(float64(steps)*float64(b.N)/sec, "steps/s")
		}
	}
	for _, sc := range scenarios {
		b.Run(sc.name, func(b *testing.B) { run(b, sc) })
	}
}

// BenchmarkQueryPlanner measures the query planner's grouped multi-lane
// serving path on a non-retaining G=20 compiled model: R distinct
// same-horizon RRL measures per batch, evaluated grouped (QueryBatch plans
// them onto one multi-lane stepping pass) versus ungrouped (the per-query
// serial loop, which re-steps the series once per measure — the PR 4
// serving economics). Fresh reward vectors every iteration keep the series
// caches cold, so each op pays the construction its variant actually needs.
// "lanes/s" is measures solved per second — the batch-serving throughput
// the planner exists for.
func BenchmarkQueryPlanner(b *testing.B) {
	m := raidModel(b, 20, false)
	n := m.Chain.N()
	opts := regenrand.DefaultOptions()
	ts := []float64{1, 10, 100, 1000}
	// Every batch gets genuinely fresh reward vectors (a multiplicative hash
	// of a monotone salt: no two salts below 2^20 repeat a vector), so
	// neither variant ever hits a warm measure or series cache; values stay
	// in [0, 1], keeping every binding at the same truncation scale.
	salt := 0
	freshBatch := func(measures int) []regenrand.Query {
		qs := make([]regenrand.Query, measures)
		for k := range qs {
			salt++
			s := salt
			qs[k] = regenrand.Query{
				Method: regenrand.MethodRRL,
				Rewards: regenrand.RewardsFrom(n, func(j int) float64 {
					return float64(((j+s)*2654435761)%(1<<20)) / float64(1<<20-1)
				}),
				Times: ts,
			}
		}
		return qs
	}
	for _, measures := range []int{1, 8, 32} {
		for _, variant := range []string{"grouped", "ungrouped"} {
			b.Run(fmt.Sprintf("measures=%d/%s", measures, variant), func(b *testing.B) {
				cm, err := regenrand.Compile(m.Chain, regenrand.CompileOptions{
					Options: opts, RegenState: m.Pristine, DisableRetention: true,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					qs := freshBatch(measures)
					if variant == "grouped" {
						for _, qr := range cm.QueryBatch(qs) {
							if qr.Err != nil {
								b.Fatal(qr.Err)
							}
						}
					} else {
						for _, q := range qs {
							if _, err := cm.Query(q); err != nil {
								b.Fatal(err)
							}
						}
					}
				}
				b.ReportMetric(float64(measures), "lanes")
				if sec := b.Elapsed().Seconds(); sec > 0 {
					b.ReportMetric(float64(measures)*float64(b.N)/sec, "lanes/s")
				}
			})
		}
	}
}

// BenchmarkNearMissHorizons measures horizon bucketing's serving win: 32
// distinct-measure RRL queries whose horizons are uniform in [t, 1.5t] —
// realistic traffic that never repeats a horizon bit-for-bit. Exact-bit
// grouping (the PR 5 planner without bucketing) sees 32 singleton horizon
// classes and runs 32 separate series constructions; with HorizonBuckets=4
// the whole spread collapses onto one geometric grid point and rides one
// 32-lane stepping pass. The samehorizon variant (every query at exactly
// 1.5t) is the ideal-traffic reference: bucketed near-miss traffic should
// price like it. Fresh reward vectors per iteration keep every cache cold,
// so each op pays the construction its grouping actually achieves.
// "lanes/s" is measures solved per second; acceptance is bucketed ≥ 3×
// exact.
func BenchmarkNearMissHorizons(b *testing.B) {
	m := raidModel(b, 20, false)
	n := m.Chain.N()
	opts := regenrand.DefaultOptions()
	const queries = 32
	const t0 = 100.0
	// Deterministic pseudo-uniform horizons in [t0, 1.5·t0]: a multiplicative
	// hash gives 32 distinct fractions, so no two queries share horizon bits.
	horizons := make([]float64, queries)
	for k := range horizons {
		frac := float64(((k+1)*2654435761)%(1<<20)) / float64(1<<20)
		horizons[k] = t0 * (1 + 0.5*frac)
	}
	salt := 0
	freshBatch := func(sameHorizon bool) []regenrand.Query {
		qs := make([]regenrand.Query, queries)
		for k := range qs {
			salt++
			s := salt
			tq := horizons[k]
			if sameHorizon {
				tq = 1.5 * t0
			}
			qs[k] = regenrand.Query{
				Method: regenrand.MethodRRL,
				Rewards: regenrand.RewardsFrom(n, func(j int) float64 {
					return float64(((j+s)*2654435761)%(1<<20)) / float64(1<<20-1)
				}),
				Times: []float64{tq},
			}
		}
		return qs
	}
	for _, variant := range []struct {
		name    string
		buckets int
		same    bool
	}{
		{"grouping=exact", 0, false},
		{"grouping=bucketed", 4, false},
		{"grouping=samehorizon", 0, true},
	} {
		b.Run(variant.name, func(b *testing.B) {
			cm, err := regenrand.Compile(m.Chain, regenrand.CompileOptions{
				Options: opts, RegenState: m.Pristine,
				DisableRetention: true, HorizonBuckets: variant.buckets,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				qs := freshBatch(variant.same)
				for _, qr := range cm.QueryBatch(qs) {
					if qr.Err != nil {
						b.Fatal(qr.Err)
					}
				}
			}
			b.ReportMetric(float64(queries), "lanes")
			if sec := b.Elapsed().Seconds(); sec > 0 {
				b.ReportMetric(float64(queries)*float64(b.N)/sec, "lanes/s")
			}
		})
	}
}

// BenchmarkCompileRetention isolates the compile-phase retention cost on
// the G=20 model: a full compile plus one t=1000 RRL query, with the
// retained series as the dominant allocation. The compact (float32) mode
// should halve B/op versus full retention; ε = 1e-6 gives the quantization
// carve-out room to certify (compact retention rejects the paper's 1e-12).
func BenchmarkCompileRetention(b *testing.B) {
	m := raidModel(b, 20, false)
	rewards := m.UnavailabilityRewards()
	opts := regenrand.DefaultOptions()
	opts.Epsilon = 1e-6
	for _, mode := range []string{"full", "compact"} {
		b.Run("mode="+mode, func(b *testing.B) {
			var steps int
			for i := 0; i < b.N; i++ {
				cm, err := regenrand.Compile(m.Chain, regenrand.CompileOptions{
					Options: opts, RegenState: m.Pristine, CompactRetention: mode == "compact",
				})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := cm.Query(regenrand.Query{Rewards: rewards, Times: []float64{1000}}); err != nil {
					b.Fatal(err)
				}
				steps = cm.BuildSteps()
			}
			b.ReportMetric(float64(steps), "steps")
		})
	}
}

// BenchmarkKernelStepFused measures the fused stepping kernel (product +
// ℓ₁ mass + reward dot in one pass) against the three-pass composition it
// replaced; compare with BenchmarkKernelVecMat, which is the product alone.
// The stochastic step conserves mass, so the iterated vector stays in the
// normal floating-point range (no zeroing here — a zeroed regenerative
// state would decay the vector into denormals and poison the timing).
func BenchmarkKernelStepFused(b *testing.B) {
	m := raidModel(b, 20, false)
	d, err := m.Chain.Uniformize(1)
	if err != nil {
		b.Fatal(err)
	}
	rewards := m.UnavailabilityRewards()
	src := m.Chain.Initial()
	dst := make([]float64, m.Chain.N())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.StepFused(dst, src, rewards, nil, nil)
		src, dst = dst, src
	}
	b.ReportMetric(float64(m.Chain.NumTransitions()), "nnz")
}

// BenchmarkKernelVecMat measures the hot sparse kernel on the G=20 RAID
// DTMC, the operation whose count the paper's step tables tally.
func BenchmarkKernelVecMat(b *testing.B) {
	m := raidModel(b, 20, false)
	d, err := m.Chain.Uniformize(1)
	if err != nil {
		b.Fatal(err)
	}
	src := m.Chain.Initial()
	dst := make([]float64, m.Chain.N())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Step(dst, src)
		src, dst = dst, src
	}
	b.ReportMetric(float64(m.Chain.NumTransitions()), "nnz")
}

// BenchmarkSnapshotLoad measures warm-restart economics. Both arms end in
// the same ready-to-serve state — a compiled model whose retained chains
// certify the scenario horizon: the /load arm gets there by LoadSnapshot
// over snapshot bytes (decode + per-section checksums + content-key
// recompute over the rebuilt model + chain cross-validation + aligned
// zero-copy slab restore); the /recompile arm by a cold Compile with
// PrebuildHorizon (generator analysis + the full series re-stepping the
// snapshot carries). Their ratio is the restart win durable snapshots buy.
//
// The two models bracket the regimes: the 10⁴-state band model is the
// verification-bound worst case (shallow chains over a wide state space —
// loading must stream the whole slab from memory while recompiling re-steps
// a sparse ~3n-nonzero operator per row), and the paper's G=20 RAID
// instance at t=1000 is the stepping-bound regime real dependability models
// live in (deep chains, compute-heavy steps). compact halves the slab via
// float32 retention, roughly doubling the load-side win at equal stepping
// cost. "bytes" on the /load arms is the snapshot blob size.
func BenchmarkSnapshotLoad(b *testing.B) {
	band, err := ctmc.RandomBand(rand.New(rand.NewSource(42)), ctmc.BandOptions{States: 10000, Bandwidth: 8, Degree: 3, Absorbing: 2})
	if err != nil {
		b.Fatal(err)
	}
	raid := raidModel(b, 20, false)
	type scenario struct {
		name    string
		model   *regenrand.CTMC
		regen   int
		horizon float64
		compact bool
	}
	scenarios := []scenario{
		{"model=band1e4/t=100/retain=full", band, 0, 100, false},
		{"model=band1e4/t=100/retain=compact", band, 0, 100, true},
		{"model=G20/t=1000/retain=full", raid.Chain, raid.Pristine, 1000, false},
		{"model=G20/t=1000/retain=compact", raid.Chain, raid.Pristine, 1000, true},
	}
	for _, sc := range scenarios {
		opts := regenrand.DefaultOptions()
		if sc.compact {
			// float32 retention needs a truncation budget above the f32
			// round-off floor.
			opts.Epsilon = 1e-6
		}
		copts := regenrand.CompileOptions{
			Options:          opts,
			RegenState:       sc.regen,
			CompactRetention: sc.compact,
			PrebuildHorizon:  sc.horizon,
		}
		seed, err := regenrand.Compile(sc.model, copts)
		if err != nil {
			b.Fatal(err)
		}
		data, err := seed.Snapshot()
		if err != nil {
			b.Fatal(err)
		}
		b.Run(sc.name+"/load", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := regenrand.LoadSnapshot(data); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(data)), "bytes")
		})
		b.Run(sc.name+"/recompile", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := regenrand.Compile(sc.model, copts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
