// Package raid generates the level-5 RAID dependability models used in the
// paper's evaluation (§3): G parity groups of N disks, N controllers each
// serving a "string" of G disks (one disk of every group), C_H hot-spare
// controllers and D_H hot-spare disks, with the aggregate ("pessimistic
// approximated") state description
//
//	(NFD, NDR, NWD, NSD, AL, NFC, NSC, F)
//
// NFD — failed disks awaiting physical replacement,
// NDR — disks under reconstruction,
// NWD — replaced disks waiting for reconstruction (controller down),
// NSD/NSC — remaining hot-spare disks/controllers,
// AL  — whether all unavailable disks lie on one string,
// NFC — failed controllers (0 or 1 in operational states),
// F   — system failed (a single lumped state with global repair).
//
// The system is operational iff every parity group has at least N−1
// available disks; a failed controller removes one disk from every group,
// so any unavailable disk off the failed string (or any two unavailable
// disks sharing a group) fails the system. The stated approximation of the
// paper is kept verbatim: when an unavailable disk of an unaligned set
// becomes available and ≥ 2 remain, the set is still considered unaligned.
//
// Reconstruction of the model from the paper is validated by exact state
// counts: G(G+4)(D_H+1)(C_H+1) + 1, giving 3,841 states for
// (G=20, C_H=1, D_H=3) and 14,081 for (G=40, C_H=1, D_H=3) — both exactly
// the numbers reported in §3. The reconstruction-success probability P_R is
// not given in the paper; the default 0.9934 is calibrated against the
// reported UR(10⁵) values. With it the unreliability models give
// UR(10⁵) = 0.50339 (G=20) and 0.75306 (G=40), against the paper's 0.50480
// and 0.74750 (`paperrepro -experiment headline` prints both).
package raid

import (
	"fmt"

	"regenrand/internal/ctmc"
)

// Params holds the model parameters. All rates are per hour, matching §3.
type Params struct {
	G  int // parity groups (each of size N)
	N  int // disks per group = number of controllers/strings
	CH int // hot-spare controllers
	DH int // hot-spare disks

	LambdaD float64 // failure rate of a non-overloaded disk (1e-5)
	LambdaS float64 // failure rate of an overloaded disk (2e-5)
	LambdaC float64 // controller failure rate (5e-5)
	MuDRC   float64 // reconstruction rate (1)
	MuDRP   float64 // disk spare-swap rate, single repairman (4)
	MuCRP   float64 // controller spare-swap rate, priority (4)
	MuSR    float64 // no-spare replacement & spare replenishment rate (0.25)
	MuG     float64 // global repair rate (0.25)
	PR      float64 // reconstruction success probability (0.9934, calibrated)
}

// DefaultParams returns the paper's parameterization for a given G with
// C_H = 1 and D_H = 3 (the two instances use G = 20 and G = 40).
func DefaultParams(g int) Params {
	return Params{
		G: g, N: 5, CH: 1, DH: 3,
		LambdaD: 1e-5, LambdaS: 2e-5, LambdaC: 5e-5,
		MuDRC: 1, MuDRP: 4, MuCRP: 4, MuSR: 0.25, MuG: 0.25,
		PR: 0.9934,
	}
}

// Validate rejects unusable parameter sets.
func (p Params) Validate() error {
	if p.G < 1 || p.N < 2 {
		return fmt.Errorf("raid: need G ≥ 1 and N ≥ 2, got G=%d N=%d", p.G, p.N)
	}
	if p.CH < 0 || p.DH < 0 {
		return fmt.Errorf("raid: negative spare counts")
	}
	for _, r := range []float64{p.LambdaD, p.LambdaS, p.LambdaC, p.MuDRC, p.MuDRP, p.MuCRP, p.MuSR, p.MuG} {
		if r <= 0 {
			return fmt.Errorf("raid: all rates must be positive")
		}
	}
	if p.PR <= 0 || p.PR > 1 {
		return fmt.Errorf("raid: P_R=%v out of (0,1]", p.PR)
	}
	return nil
}

// State is the aggregate model state.
type State struct {
	NFD, NDR, NWD int
	NSD, NSC      int
	NFC           int
	AL            bool
	Failed        bool
}

// String renders the state compactly for diagnostics.
func (s State) String() string {
	if s.Failed {
		return "F"
	}
	al := "N"
	if s.AL {
		al = "Y"
	}
	return fmt.Sprintf("fd%d dr%d wd%d sd%d sc%d fc%d al%s",
		s.NFD, s.NDR, s.NWD, s.NSD, s.NSC, s.NFC, al)
}

// Model is a generated RAID CTMC with its measure-relevant state indices.
type Model struct {
	Chain *ctmc.CTMC
	// Pristine is the index of the fully operational state with all spares
	// available: the initial state and the natural regenerative state.
	Pristine int
	// Failed is the index of the lumped system-failed state.
	Failed int
	// States decodes indices back to aggregate states.
	States []State
	// Absorbing records whether the failed state was made absorbing
	// (the unreliability variant).
	Absorbing bool
	Params    Params
}

// Build generates the RAID model by breadth-first exploration from the
// pristine state. With absorbing = false the failed state is repaired at
// rate MuG back to pristine (the irreducible availability model); with
// absorbing = true that single transition is removed (the unreliability
// model: same state count, one transition fewer).
func Build(p Params, absorbing bool) (*Model, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	pristine := State{NSD: p.DH, NSC: p.CH, AL: true}
	index := map[State]int{pristine: 0}
	states := []State{pristine}
	type edge struct {
		from, to int
		rate     float64
	}
	var edges []edge
	intern := func(s State) int {
		if i, ok := index[s]; ok {
			return i
		}
		index[s] = len(states)
		states = append(states, s)
		return len(states) - 1
	}
	for from := 0; from < len(states); from++ {
		s := states[from]
		for _, tr := range p.transitions(s) {
			if tr.rate <= 0 {
				continue
			}
			edges = append(edges, edge{from, intern(tr.to), tr.rate})
		}
	}

	failed, ok := index[State{Failed: true}]
	if !ok {
		return nil, fmt.Errorf("raid: failed state unreachable (degenerate parameters)")
	}
	b := ctmc.NewBuilder(len(states))
	for _, e := range edges {
		if absorbing && e.from == failed {
			continue
		}
		if err := b.AddTransition(e.from, e.to, e.rate); err != nil {
			return nil, err
		}
	}
	if err := b.SetInitial(0, 1); err != nil {
		return nil, err
	}
	names := make([]string, len(states))
	for i, s := range states {
		names[i] = s.String()
	}
	if err := b.SetNames(names); err != nil {
		return nil, err
	}
	chain, err := b.Build()
	if err != nil {
		return nil, err
	}
	return &Model{
		Chain:     chain,
		Pristine:  0,
		Failed:    failed,
		States:    states,
		Absorbing: absorbing,
		Params:    p,
	}, nil
}

type transition struct {
	to   State
	rate float64
}

// transitions enumerates the outgoing transitions of s under the
// reconstructed dynamics (see the package comment).
func (p Params) transitions(s State) []transition {
	if s.Failed {
		return []transition{{State{NSD: p.DH, NSC: p.CH, AL: true}, p.MuG}}
	}
	var out []transition
	add := func(to State, rate float64) {
		to = canonical(to)
		out = append(out, transition{to, rate})
	}
	fail := State{Failed: true}
	g := float64(p.G)
	n := float64(p.N)

	if s.NFC == 0 {
		u := s.NFD + s.NDR
		uf := float64(u)
		// Disk failures in clean parity groups.
		if u == 0 {
			add(State{NFD: 1, NSD: s.NSD, NSC: s.NSC, AL: true}, g*n*p.LambdaD)
		} else if u < p.G {
			next := s
			next.NFD++
			if s.AL {
				nextY := next
				nextY.AL = true
				add(nextY, (g-uf)*p.LambdaD)
				nextN := next
				nextN.AL = false
				add(nextN, (g-uf)*(n-1)*p.LambdaD)
			} else {
				next.AL = false
				add(next, (g-uf)*n*p.LambdaD)
			}
		}
		// Disk failures in degraded groups: a second unavailable disk in a
		// group loses data. The N−1 mates of each reconstructing disk are
		// overloaded.
		if fr := float64(s.NFD)*(n-1)*p.LambdaD + float64(s.NDR)*(n-1)*p.LambdaS; fr > 0 {
			add(fail, fr)
		}
		// Reconstruction completion.
		if s.NDR > 0 {
			done := s
			done.NDR--
			// The paper's pessimistic alignment approximation: an unaligned
			// set stays unaligned while ≥ 2 disks remain unavailable.
			if done.NFD+done.NDR <= 1 {
				done.AL = true
			}
			add(done, float64(s.NDR)*p.MuDRC*p.PR)
			if p.PR < 1 {
				add(fail, float64(s.NDR)*p.MuDRC*(1-p.PR))
			}
		}
		// Disk replacement: spare swap by the (free) repairman, or
		// unlimited repairmen at MuSR when the spare pool is empty.
		if s.NFD > 0 {
			repl := s
			repl.NFD--
			repl.NDR++
			if s.NSD > 0 {
				repl.NSD--
				add(repl, p.MuDRP)
			} else {
				add(repl, float64(s.NFD)*p.MuSR)
			}
		}
		// Controller failures.
		if u == 0 {
			add(State{NFC: 1, NSD: s.NSD, NSC: s.NSC, AL: true}, n*p.LambdaC)
		} else if s.AL {
			// The aligned string's own controller: survivable; all
			// unavailable disks become waiting.
			add(State{NFC: 1, NWD: u, NSD: s.NSD, NSC: s.NSC, AL: true}, p.LambdaC)
			add(fail, (n-1)*p.LambdaC)
		} else {
			add(fail, n*p.LambdaC)
		}
	} else {
		// NFC = 1: one string down; every group is already degraded.
		add(fail, g*(n-1)*p.LambdaD) // any live-disk failure
		add(fail, (n-1)*p.LambdaC)   // second controller failure
		// Controller replacement: all waiting disks start reconstruction.
		rep := State{NDR: s.NWD, NSD: s.NSD, NSC: s.NSC, AL: true}
		if s.NSC > 0 {
			rep.NSC--
			add(rep, p.MuCRP)
		} else {
			add(rep, p.MuSR)
		}
	}
	// Spare replenishment (unlimited repairmen, one per missing unit).
	if s.NSD < p.DH {
		next := s
		next.NSD++
		add(next, float64(p.DH-s.NSD)*p.MuSR)
	}
	if s.NSC < p.CH {
		next := s
		next.NSC++
		add(next, float64(p.CH-s.NSC)*p.MuSR)
	}
	return out
}

// canonical normalizes redundant encodings: up to one unavailable disk is
// always "aligned", and the alignment flag is forced true while a
// controller is down (all unavailable disks lie on the failed string).
func canonical(s State) State {
	if s.Failed {
		return State{Failed: true}
	}
	if s.NFC == 1 || s.NFD+s.NDR+s.NWD <= 1 {
		s.AL = true
	}
	return s
}

// ExpectedStates returns the closed-form state count of the reconstruction,
// G(G+4)(D_H+1)(C_H+1) + 1, used to validate generated models.
func ExpectedStates(p Params) int {
	return p.G*(p.G+4)*(p.DH+1)*(p.CH+1) + 1
}

// UnavailabilityRewards returns the reward vector of the paper's UA(t)
// measure: 1 on the failed state, 0 elsewhere (use on the irreducible
// model).
func (m *Model) UnavailabilityRewards() []float64 {
	r := make([]float64, m.Chain.N())
	r[m.Failed] = 1
	return r
}

// UnreliabilityRewards returns the reward vector of the paper's UR(t)
// measure: 1 on the (absorbing) failed state, 0 on transient states.
func (m *Model) UnreliabilityRewards() []float64 {
	r := make([]float64, m.Chain.N())
	r[m.Failed] = 1
	return r
}

// ThroughputRewards returns a performability reward structure: the relative
// service capacity of the array. Groups with an unavailable member serve at
// 60% (short reads/writes take the degraded path), groups under
// reconstruction at 50% (overload), a failed system at 0.
func (m *Model) ThroughputRewards() []float64 {
	r := make([]float64, m.Chain.N())
	g := float64(m.Params.G)
	for i, s := range m.States {
		if s.Failed {
			continue
		}
		degraded := float64(s.NFD + s.NWD)
		if s.NFC == 1 {
			degraded = g // a down string degrades every group
		}
		r[i] = 1 - (0.4*degraded+0.5*float64(s.NDR))/g
	}
	return r
}
