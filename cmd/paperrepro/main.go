// Command paperrepro regenerates every table and figure of the paper's
// evaluation section (§3):
//
//	Table 1 — steps of RR/RRL vs RSD for UA(t), G ∈ {20, 40}
//	Fig. 3  — CPU times of RRL, RR, RSD for UA(t)
//	Table 2 — steps of RR/RRL vs SR for UR(t)
//	Fig. 4  — CPU times of RRL, RR, SR for UR(t)
//	headline — UR(1e5), abscissa counts, Laplace share of RRL time
//	ablation — T = κt sweep (κ ∈ {1,2,4,8,16}) and epsilon-acceleration on/off
//	bounds   — certified RRL enclosures of UA(t), G = 20
//	regenchoice — truncation level K for different regenerative states
//	render   — text plots of Figs. 3 and 4 from the fig3/fig4 CSV files
//
// Step counts are exact reproductions (hardware-independent); CPU times are
// measured on the host and compared to the paper in shape (crossovers),
// not in absolute value. By default the time-consuming SR and RR runs are
// capped at t ≤ 1000 h; pass -full for the complete sweep up to 10⁵ h
// (several minutes). Results are printed and also written as CSV files
// under -out.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"regenrand"
	"regenrand/internal/asciiplot"
	"regenrand/internal/core"
	"regenrand/internal/raid"
	"regenrand/internal/regen"
	"regenrand/internal/ssd"
	"regenrand/internal/uniform"
)

var (
	flagExperiment = flag.String("experiment", "all", "table1|fig3|table2|fig4|headline|ablation|bounds|regenchoice|render|all")
	flagFull       = flag.Bool("full", false, "run the complete t sweep for SR and RR (minutes)")
	flagOut        = flag.String("out", "results", "directory for CSV output")
	flagEps        = flag.Float64("eps", 1e-12, "error bound ε")
)

// sweep is the paper's mission-time grid in hours.
var sweep = []float64{1, 10, 100, 1000, 1e4, 1e5}

// Paper-reported step counts (Tables 1 and 2).
var (
	paperT1RR  = map[int][]int{20: {56, 323, 2234, 2708, 2938, 3157}, 40: {86, 554, 4187, 5123, 5549, 5957}}
	paperT1RSD = map[int][]int{20: {66, 355, 2612, 2612, 2612, 2612}, 40: {99, 594, 4823, 4823, 4823, 4823}}
	paperT2RR  = map[int][]int{20: {56, 323, 2233, 2708, 2937, 3157}, 40: {86, 554, 4186, 5122, 5547, 5955}}
	paperT2SR  = map[int][]int{20: {65, 354, 2726, 24844, 240958, 2386068}, 40: {98, 593, 4849, 45234, 442203, 4390141}}
	paperUR1e5 = map[int]float64{20: 0.50480, 40: 0.74750}
)

func main() {
	flag.Parse()
	if err := os.MkdirAll(*flagOut, 0o755); err != nil {
		fatal(err)
	}
	run := func(name string, f func() error) {
		if *flagExperiment != "all" && *flagExperiment != name {
			return
		}
		fmt.Printf("\n================ %s ================\n", name)
		if err := f(); err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
	}
	run("table1", table1)
	run("fig3", fig3)
	run("table2", table2)
	run("fig4", fig4)
	run("headline", headline)
	run("ablation", ablation)
	run("bounds", boundsExt)
	run("regenchoice", regenChoiceExt)
	run("render", renderFigures)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "paperrepro:", err)
	os.Exit(1)
}

func opts() core.Options {
	return core.Options{Epsilon: *flagEps, UniformizationFactor: 1}
}

// table1 reproduces "Number of steps required by RR, RRL and RSD for the
// measure UA(t)".
func table1() error {
	var csv strings.Builder
	csv.WriteString("G,t,RR_RRL,RR_RRL_paper,RSD,RSD_paper\n")
	fmt.Printf("%-6s %-10s %12s %12s %12s %12s\n", "G", "t(h)", "RR/RRL", "paper", "RSD", "paper")
	for _, g := range []int{20, 40} {
		m, err := raid.Build(raid.DefaultParams(g), false)
		if err != nil {
			return err
		}
		rewards := m.UnavailabilityRewards()
		series, err := regen.Build(m.Chain, rewards, m.Pristine, opts(), sweep[len(sweep)-1])
		if err != nil {
			return err
		}
		rsd, err := ssd.New(m.Chain, rewards, opts())
		if err != nil {
			return err
		}
		rsdRes, err := rsd.TRR(sweep)
		if err != nil {
			return err
		}
		for i, t := range sweep {
			rr := series.StepsFor(t)
			fmt.Printf("%-6d %-10.0f %12d %12d %12d %12d\n",
				g, t, rr, paperT1RR[g][i], rsdRes[i].Steps, paperT1RSD[g][i])
			fmt.Fprintf(&csv, "%d,%g,%d,%d,%d,%d\n", g, t, rr, paperT1RR[g][i], rsdRes[i].Steps, paperT1RSD[g][i])
		}
	}
	return writeCSV("table1.csv", csv.String())
}

// table2 reproduces "Number of steps required by RR, RRL and SR for the
// measure UR(t)".
func table2() error {
	var csv strings.Builder
	csv.WriteString("G,t,RR_RRL,RR_RRL_paper,SR,SR_paper\n")
	fmt.Printf("%-6s %-10s %12s %12s %12s %12s\n", "G", "t(h)", "RR/RRL", "paper", "SR", "paper")
	for _, g := range []int{20, 40} {
		m, err := raid.Build(raid.DefaultParams(g), true)
		if err != nil {
			return err
		}
		rewards := m.UnreliabilityRewards()
		series, err := regen.Build(m.Chain, rewards, m.Pristine, opts(), sweep[len(sweep)-1])
		if err != nil {
			return err
		}
		sr, err := uniform.New(m.Chain, rewards, opts())
		if err != nil {
			return err
		}
		for i, t := range sweep {
			rr := series.StepsFor(t)
			// SR's step count is its Poisson right-truncation point, which
			// is known without stepping the model.
			srSteps, err := srTruncationPoint(sr, t)
			if err != nil {
				return err
			}
			fmt.Printf("%-6d %-10.0f %12d %12d %12d %12d\n",
				g, t, rr, paperT2RR[g][i], srSteps, paperT2SR[g][i])
			fmt.Fprintf(&csv, "%d,%g,%d,%d,%d,%d\n", g, t, rr, paperT2RR[g][i], srSteps, paperT2SR[g][i])
		}
	}
	return writeCSV("table2.csv", csv.String())
}

// srTruncationPoint returns SR's per-t step count without executing the
// stepping pass (the windowing is deterministic).
func srTruncationPoint(s *uniform.Solver, t float64) (int, error) {
	w, err := s.TruncationWindow(t)
	if err != nil {
		return 0, err
	}
	return w.Right, nil
}

// fig3 reproduces the CPU-time comparison for UA(t) (RRL, RR, RSD).
func fig3() error {
	return cpuTimes("fig3.csv", false, []string{"RRL", "RR", "RSD"})
}

// fig4 reproduces the CPU-time comparison for UR(t) (RRL, RR, SR).
func fig4() error {
	return cpuTimes("fig4.csv", true, []string{"RRL", "RR", "SR"})
}

// cpuTimes measures wall-clock solution time per (G, method, t) with a
// fresh solver per point, mirroring the per-t runs behind Figures 3 and 4.
// Each solver is constructed (and its model uniformized) before the clock
// starts, so the time covers the solve — series construction included for
// RR and RRL.
func cpuTimes(file string, absorbing bool, methods []string) error {
	limited := map[string]bool{"SR": true, "RR": true}
	capT := 1000.0
	if *flagFull {
		capT = sweep[len(sweep)-1]
	}
	var csv strings.Builder
	csv.WriteString("G,method,t,seconds\n")
	fmt.Printf("%-6s %-7s %-10s %14s\n", "G", "method", "t(h)", "seconds")
	for _, g := range []int{20, 40} {
		m, err := raid.Build(raid.DefaultParams(g), absorbing)
		if err != nil {
			return err
		}
		var rewards []float64
		if absorbing {
			rewards = m.UnreliabilityRewards()
		} else {
			rewards = m.UnavailabilityRewards()
		}
		for _, method := range methods {
			for _, t := range sweep {
				if limited[method] && t > capT {
					fmt.Printf("%-6d %-7s %-10.0f %14s\n", g, method, t, "(skipped; -full)")
					continue
				}
				solver, err := newSolver(method, m, rewards)
				if err != nil {
					return err
				}
				start := time.Now()
				if _, err := solver.TRR([]float64{t}); err != nil {
					return err
				}
				secs := time.Since(start).Seconds()
				fmt.Printf("%-6d %-7s %-10.0f %14.4f\n", g, method, t, secs)
				fmt.Fprintf(&csv, "%d,%s,%g,%.6f\n", g, method, t, secs)
			}
		}
	}
	return writeCSV(file, csv.String())
}

func newSolver(method string, m *raid.Model, rewards []float64) (regenrand.Solver, error) {
	switch method {
	case "SR":
		return regenrand.NewSR(m.Chain, rewards, opts())
	case "RSD":
		return regenrand.NewRSD(m.Chain, rewards, opts())
	case "RR":
		return regenrand.NewRR(m.Chain, rewards, m.Pristine, opts())
	case "RRL":
		return regenrand.NewRRL(m.Chain, rewards, m.Pristine, opts())
	}
	return nil, fmt.Errorf("unknown method %q", method)
}

// headline reproduces the §3 scalar claims: UR(1e5) values, the abscissa
// range, and the share of RRL time spent in the Laplace inversion.
func headline() error {
	var out strings.Builder
	for _, g := range []int{20, 40} {
		m, err := raid.Build(raid.DefaultParams(g), true)
		if err != nil {
			return err
		}
		s, err := regenrand.NewRRL(m.Chain, m.UnreliabilityRewards(), m.Pristine, opts())
		if err != nil {
			return err
		}
		res, err := s.TRR(sweep)
		if err != nil {
			return err
		}
		minA, maxA := res[0].Abscissae, res[0].Abscissae
		for _, r := range res {
			if r.Abscissae < minA {
				minA = r.Abscissae
			}
			if r.Abscissae > maxA {
				maxA = r.Abscissae
			}
		}
		st := s.Stats()
		share := float64(st.Solve) / float64(st.Setup+st.Solve) * 100
		fmt.Fprintf(&out, "G=%d: UR(1e5) = %.5f (paper %.5f); abscissae %d–%d (paper 105–329); "+
			"Laplace inversion %.1f%% of RRL time (paper ~1–2%%); steps %d (paper %d)\n",
			g, res[len(res)-1].Value, paperUR1e5[g], minA, maxA, share,
			res[len(res)-1].Steps, paperT2RR[g][len(sweep)-1])
	}
	fmt.Print(out.String())
	return writeCSV("headline.txt", out.String())
}

// ablation reproduces the §2.2 design exploration: the period factor κ
// (T = κt) from Crump's κ=1 to Piessens' κ=16, and the effect of disabling
// the epsilon algorithm, on the G=20 unreliability model at t=1000 h.
func ablation() error {
	m, err := raid.Build(raid.DefaultParams(20), true)
	if err != nil {
		return err
	}
	rewards := m.UnreliabilityRewards()
	t := 1000.0
	// Reference value from SR at the same ε.
	sr, err := uniform.New(m.Chain, rewards, opts())
	if err != nil {
		return err
	}
	ref, err := sr.TRR([]float64{t})
	if err != nil {
		return err
	}
	var csv strings.Builder
	csv.WriteString("kappa,accelerate,value,err_vs_SR,abscissae,seconds,converged\n")
	fmt.Printf("%-7s %-7s %14s %12s %10s %10s\n", "kappa", "accel", "UR(1000)", "err vs SR", "abscissae", "seconds")
	for _, kappa := range []float64{1, 2, 4, 8, 16} {
		for _, accel := range []bool{true, false} {
			s, err := regenrand.NewRRLWithConfig(m.Chain, rewards, m.Pristine, opts(),
				regenrand.RRLConfig{TFactor: kappa, DisableAcceleration: !accel})
			if err != nil {
				return err
			}
			start := time.Now()
			res, err := s.TRR([]float64{t})
			secs := time.Since(start).Seconds()
			if err != nil {
				fmt.Printf("%-7.0f %-7v %14s %12s %10s %10.3f  (%v)\n", kappa, accel, "-", "-", "-", secs, errShort(err))
				fmt.Fprintf(&csv, "%g,%v,,,,%f,false\n", kappa, accel, secs)
				continue
			}
			diff := res[0].Value - ref[0].Value
			fmt.Printf("%-7.0f %-7v %14.10f %12.2e %10d %10.3f\n", kappa, accel, res[0].Value, diff, res[0].Abscissae, secs)
			fmt.Fprintf(&csv, "%g,%v,%.12f,%e,%d,%f,true\n", kappa, accel, res[0].Value, diff, res[0].Abscissae, secs)
		}
	}
	return writeCSV("ablation.csv", csv.String())
}

// boundsExt demonstrates the certified two-sided bounds of the companion
// report: RRL enclosures of UA(t) on the G=20 model.
func boundsExt() error {
	m, err := raid.Build(raid.DefaultParams(20), false)
	if err != nil {
		return err
	}
	s, err := regenrand.NewRRL(m.Chain, m.UnavailabilityRewards(), m.Pristine, opts())
	if err != nil {
		return err
	}
	bounds, err := s.(regenrand.BoundingSolver).TRRBounds(sweep)
	if err != nil {
		return err
	}
	var csv strings.Builder
	csv.WriteString("t,lower,upper,width\n")
	fmt.Printf("%-10s %22s %22s %12s\n", "t(h)", "UA lower", "UA upper", "width")
	for _, b := range bounds {
		fmt.Printf("%-10g %22.15e %22.15e %12.3e\n", b.T, b.Lower, b.Upper, b.Upper-b.Lower)
		fmt.Fprintf(&csv, "%g,%e,%e,%e\n", b.T, b.Lower, b.Upper, b.Upper-b.Lower)
	}
	return writeCSV("bounds.csv", csv.String())
}

// regenChoiceExt quantifies the paper's §2 remark that regenerative
// randomization "will be good when r is visited often in the DTMC": the
// truncation level K at t=10⁴ h for different regenerative-state choices on
// the G=20 availability model. The pristine state (the paper's choice) is
// the most frequently revisited; worse choices inflate K.
func regenChoiceExt() error {
	m, err := raid.Build(raid.DefaultParams(20), false)
	if err != nil {
		return err
	}
	rewards := m.UnavailabilityRewards()
	// Candidate regenerative states: pristine, a one-failed-disk state, a
	// deep degraded state, and the failed state’s repair target ordering.
	candidates := []struct {
		name string
		idx  int
	}{{"pristine (paper)", m.Pristine}}
	oneDown, deep := -1, -1
	for i, st := range m.States {
		if st.Failed {
			continue
		}
		if oneDown < 0 && st.NFD == 1 && st.NDR == 0 && st.NFC == 0 && st.NSD == m.Params.DH && st.NSC == m.Params.CH {
			oneDown = i
		}
		if deep < 0 && st.NDR >= 3 && st.NFC == 0 {
			deep = i
		}
	}
	if oneDown >= 0 {
		candidates = append(candidates, struct {
			name string
			idx  int
		}{"one disk failed", oneDown})
	}
	if deep >= 0 {
		candidates = append(candidates, struct {
			name string
			idx  int
		}{"3 disks reconstructing", deep})
	}
	var csv strings.Builder
	csv.WriteString("state,index,K,seconds\n")
	fmt.Printf("%-26s %8s %10s %10s\n", "regenerative state", "index", "K(t=1e4)", "seconds")
	for _, c := range candidates {
		start := time.Now()
		series, err := regen.Build(m.Chain, rewards, c.idx, opts(), 1e4)
		if err != nil {
			return err
		}
		secs := time.Since(start).Seconds()
		fmt.Printf("%-26s %8d %10d %10.3f\n", c.name, c.idx, series.Steps(), secs)
		fmt.Fprintf(&csv, "%q,%d,%d,%f\n", c.name, c.idx, series.Steps(), secs)
	}
	return writeCSV("regenchoice.csv", csv.String())
}

// renderFigures draws Figures 3 and 4 as log–log text plots from the CSV
// data collected by the fig3/fig4 experiments (it does not re-measure, so
// it can render a previous -full run's data).
func renderFigures() error {
	for _, fig := range []struct {
		csv, txt, title string
	}{
		{"fig3.csv", "fig3.txt", "Figure 3: CPU times, UA(t) — RRL vs RR vs RSD"},
		{"fig4.csv", "fig4.txt", "Figure 4: CPU times, UR(t) — RRL vs RR vs SR"},
	} {
		data, err := os.ReadFile(filepath.Join(*flagOut, fig.csv))
		if err != nil {
			fmt.Printf("-- skipping %s (%v); run the fig experiments first\n", fig.txt, err)
			continue
		}
		var rendered strings.Builder
		for _, g := range []string{"20", "40"} {
			plot := asciiplot.New(fmt.Sprintf("%s, G=%s", fig.title, g), "t (h)", "seconds")
			for _, line := range strings.Split(string(data), "\n")[1:] {
				f := strings.Split(strings.TrimSpace(line), ",")
				if len(f) != 4 || f[0] != g {
					continue
				}
				t, err1 := strconv.ParseFloat(f[2], 64)
				sec, err2 := strconv.ParseFloat(f[3], 64)
				if err1 != nil || err2 != nil {
					continue
				}
				plot.Add(f[1], asciiplot.Point{X: t, Y: sec})
			}
			rendered.WriteString(plot.Render(72, 20))
			rendered.WriteString("\n")
		}
		if err := writeCSV(fig.txt, rendered.String()); err != nil {
			return err
		}
	}
	return nil
}

func errShort(err error) string {
	s := err.Error()
	if len(s) > 60 {
		return s[:60] + "…"
	}
	return s
}

func writeCSV(name, content string) error {
	path := filepath.Join(*flagOut, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		return err
	}
	fmt.Printf("-- wrote %s\n", path)
	return nil
}
