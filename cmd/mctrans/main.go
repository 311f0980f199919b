// Command mctrans solves transient dependability/performability measures of
// an arbitrary CTMC stored in the mcio text format, with any of the four
// implemented methods (sr, rsd, rr, rrl). It can also export the built-in
// RAID benchmark model so external tools (or curious users) can inspect it.
//
// Examples:
//
//	mctrans -model system.ctmc -method rrl -t 1,10,100,1000
//	mctrans -model system.ctmc -method rrl -measure mrr -t 100
//	mctrans -model system.ctmc -method rrl -bounds -t 100
//	mctrans -export-raid 20 > raid20.ctmc            (UA model + rewards)
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"regenrand"
	"regenrand/internal/mcio"
)

func main() {
	var (
		modelPath  = flag.String("model", "", "path to a model in mcio format")
		method     = flag.String("method", "rrl", "sr|rsd|rr|rrl")
		measure    = flag.String("measure", "trr", "trr|mrr")
		tlist      = flag.String("t", "1,10,100", "comma-separated times")
		eps        = flag.Float64("eps", 1e-12, "error bound ε")
		regenState = flag.Int("regen", 0, "regenerative state for rr/rrl")
		bounds     = flag.Bool("bounds", false, "print certified bounds (rr/rrl)")
		exportRAID = flag.Int("export-raid", 0, "export the RAID UA model for G groups to stdout and exit")
		validate   = flag.Bool("validate", true, "run the model-class structural validation")
	)
	flag.Parse()

	if *exportRAID > 0 {
		m, err := regenrand.BuildRAID(regenrand.DefaultRAIDParams(*exportRAID), false)
		if err != nil {
			fail(err)
		}
		if err := mcio.Write(os.Stdout, m.Chain, m.UnavailabilityRewards()); err != nil {
			fail(err)
		}
		return
	}
	if *modelPath == "" {
		fail(fmt.Errorf("no -model given (and no -export-raid)"))
	}
	f, err := os.Open(*modelPath)
	if err != nil {
		fail(err)
	}
	model, rewards, err := mcio.Read(f)
	f.Close()
	if err != nil {
		fail(err)
	}
	if *validate {
		if err := regenrand.CheckModelClass(model); err != nil {
			fail(fmt.Errorf("model validation failed (pass -validate=false to skip): %w", err))
		}
	}
	ts, err := parseTimes(*tlist)
	if err != nil {
		fail(err)
	}

	opts := regenrand.Options{Epsilon: *eps, UniformizationFactor: 1}
	var solver regenrand.Solver
	switch *method {
	case "sr":
		solver, err = regenrand.NewSR(model, rewards, opts)
	case "rsd":
		solver, err = regenrand.NewRSD(model, rewards, opts)
	case "rr":
		solver, err = regenrand.NewRR(model, rewards, *regenState, opts)
	case "rrl":
		solver, err = regenrand.NewRRL(model, rewards, *regenState, opts)
	default:
		err = fmt.Errorf("unknown method %q", *method)
	}
	if err != nil {
		fail(err)
	}

	fmt.Printf("model: %d states, %d transitions, Λ=%g — method=%s measure=%s ε=%g\n\n",
		model.N(), model.NumTransitions(), model.MaxOutRate(), solver.Name(), *measure, *eps)

	start := time.Now()
	if *bounds {
		bs, ok := solver.(regenrand.BoundingSolver)
		if !ok {
			fail(fmt.Errorf("method %s does not provide bounds (use rr or rrl)", solver.Name()))
		}
		var res []regenrand.Bounds
		if *measure == "mrr" {
			res, err = bs.MRRBounds(ts)
		} else {
			res, err = bs.TRRBounds(ts)
		}
		if err != nil {
			fail(err)
		}
		fmt.Printf("%-12s %-24s %-24s %-12s\n", "t", "lower", "upper", "width")
		for _, r := range res {
			fmt.Printf("%-12g %-24.15e %-24.15e %-12.3e\n", r.T, r.Lower, r.Upper, r.Upper-r.Lower)
		}
	} else {
		var res []regenrand.Result
		if *measure == "mrr" {
			res, err = solver.MRR(ts)
		} else {
			res, err = solver.TRR(ts)
		}
		if err != nil {
			fail(err)
		}
		fmt.Printf("%-12s %-24s %-10s %-10s\n", "t", "value", "steps", "abscissae")
		for _, r := range res {
			fmt.Printf("%-12g %-24.15e %-10d %-10d\n", r.T, r.Value, r.Steps, r.Abscissae)
		}
	}
	fmt.Printf("\nwall time %v\n", time.Since(start))
}

func parseTimes(list string) ([]float64, error) {
	var ts []float64
	for _, tok := range strings.Split(list, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		v, err := strconv.ParseFloat(tok, 64)
		if err != nil {
			return nil, fmt.Errorf("bad time %q: %w", tok, err)
		}
		ts = append(ts, v)
	}
	if len(ts) == 0 {
		return nil, fmt.Errorf("no times given")
	}
	return ts, nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "mctrans:", err)
	os.Exit(1)
}
