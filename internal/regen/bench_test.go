package regen

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"regenrand/internal/core"
	"regenrand/internal/ctmc"
	"regenrand/internal/sparse"
)

// BenchmarkBuildBandFrontier is the frontier-pruning ablation of the series
// construction on the ~10⁴-state banded model of the root package's
// BenchmarkCompileColdStart: each horizon builds once through the frontier
// kernels and once through full sweeps (nofrontier), and the early-step
// pruning win is their ratio. t=5 stays inside the frontier growth phase
// (K ≪ BFS diameter ≈ 1250), t=100 runs well past saturation. "steps/s" is
// the full-model DTMC stepping throughput.
func BenchmarkBuildBandFrontier(b *testing.B) {
	band, err := ctmc.RandomBand(rand.New(rand.NewSource(42)), ctmc.BandOptions{States: 10000, Bandwidth: 8, Degree: 3, Absorbing: 2})
	if err != nil {
		b.Fatal(err)
	}
	rewards := ctmc.RandomRewards(rand.New(rand.NewSource(43)), band, 1, false)
	opts := core.DefaultOptions()
	d, err := band.Uniformize(opts.UniformizationFactor)
	if err != nil {
		b.Fatal(err)
	}
	for _, t := range []float64{5, 100} {
		for _, arm := range []string{"frontier", "nofrontier"} {
			b.Run(fmt.Sprintf("t=%g/%s", t, arm), func(b *testing.B) {
				var fr *sparse.Frontier
				if arm == "frontier" {
					fr = frontierFor(band, d, 0)
				}
				var steps int
				for i := 0; i < b.N; i++ {
					series, err := newBasis(band, d, 0, opts, RetainNone, fr).BuildManyCtx(context.Background(), [][]float64{rewards}, t)
					if err != nil {
						b.Fatal(err)
					}
					steps = series[0].Steps()
				}
				b.ReportMetric(float64(steps), "steps")
				if sec := b.Elapsed().Seconds(); sec > 0 {
					b.ReportMetric(float64(steps)*float64(b.N)/sec, "steps/s")
				}
			})
		}
	}
}
