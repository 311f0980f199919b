package raid

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"regenrand/internal/core"
	"regenrand/internal/ctmc"
	"regenrand/internal/expm"
	"regenrand/internal/regen"
	"regenrand/internal/rrl"
	"regenrand/internal/sparse"
	"regenrand/internal/uniform"
)

func TestStateCountsMatchPaper(t *testing.T) {
	// §3 of the paper: 3,841 states and 24,785 transitions for G=20;
	// 14,081 states and 94,405 transitions for G=40 (C_H=1, D_H=3).
	for _, tc := range []struct {
		g    int
		want int
	}{
		{20, 3841},
		{40, 14081},
	} {
		m, err := Build(DefaultParams(tc.g), false)
		if err != nil {
			t.Fatal(err)
		}
		if got := m.Chain.N(); got != tc.want {
			t.Errorf("G=%d: %d states, paper reports %d", tc.g, got, tc.want)
		}
		if got := ExpectedStates(DefaultParams(tc.g)); got != tc.want {
			t.Errorf("G=%d: closed form gives %d, want %d", tc.g, got, tc.want)
		}
		// Transition counts of the reconstruction land within ~12% of the
		// paper's (the exact micro-structure of [13]'s model is not fully
		// published).
		paperTrans := map[int]int{20: 24785, 40: 94405}[tc.g]
		got := m.Chain.NumTransitions()
		if math.Abs(float64(got-paperTrans)) > 0.12*float64(paperTrans) {
			t.Errorf("G=%d: %d transitions, paper reports %d (>12%% off)", tc.g, got, paperTrans)
		}
	}
}

func TestStateCountFormulaProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := DefaultParams(1 + rng.Intn(12))
		p.CH = rng.Intn(3)
		p.DH = rng.Intn(4)
		m, err := Build(p, false)
		if err != nil {
			return false
		}
		return m.Chain.N() == ExpectedStates(p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestAbsorbingVariantOneTransitionFewer(t *testing.T) {
	p := DefaultParams(10)
	ua, err := Build(p, false)
	if err != nil {
		t.Fatal(err)
	}
	ur, err := Build(p, true)
	if err != nil {
		t.Fatal(err)
	}
	if ua.Chain.N() != ur.Chain.N() {
		t.Errorf("state counts differ: %d vs %d", ua.Chain.N(), ur.Chain.N())
	}
	if ur.Chain.NumTransitions() != ua.Chain.NumTransitions()-1 {
		t.Errorf("transitions: UA=%d UR=%d, want exactly one fewer",
			ua.Chain.NumTransitions(), ur.Chain.NumTransitions())
	}
	if !ur.Chain.IsAbsorbing(ur.Failed) {
		t.Error("failed state not absorbing in UR variant")
	}
	if ua.Chain.IsAbsorbing(ua.Failed) {
		t.Error("failed state absorbing in UA variant")
	}
	if len(ua.Chain.Absorbing()) != 0 {
		t.Error("UA variant must be irreducible")
	}
}

func TestMaxOutRateMatchesPaperLambda(t *testing.T) {
	// The paper's SR step counts imply Λ ≈ 23.75 (G=20) and ≈ 43.75 (G=40).
	for _, tc := range []struct {
		g    int
		want float64
	}{
		{20, 23.75},
		{40, 43.75},
	} {
		m, err := Build(DefaultParams(tc.g), false)
		if err != nil {
			t.Fatal(err)
		}
		if got := m.Chain.MaxOutRate(); math.Abs(got-tc.want) > 0.1 {
			t.Errorf("G=%d: Λ=%v want ≈%v", tc.g, got, tc.want)
		}
	}
}

func TestIrreducibility(t *testing.T) {
	// Reverse reachability: every state must reach the pristine state
	// (through F and global repair), making the UA model irreducible.
	m, err := Build(DefaultParams(6), false)
	if err != nil {
		t.Fatal(err)
	}
	n := m.Chain.N()
	// Build reverse adjacency.
	radj := make([][]int, n)
	for _, e := range m.Chain.Transitions() {
		radj[e.Col] = append(radj[e.Col], e.Row)
	}
	seen := make([]bool, n)
	queue := []int{m.Pristine}
	seen[m.Pristine] = true
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range radj[v] {
			if !seen[u] {
				seen[u] = true
				queue = append(queue, u)
			}
		}
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("state %d (%s) cannot reach pristine", i, m.States[i])
		}
	}
}

func TestStateInvariants(t *testing.T) {
	m, err := Build(DefaultParams(8), false)
	if err != nil {
		t.Fatal(err)
	}
	p := m.Params
	for i, s := range m.States {
		if s.Failed {
			continue
		}
		if s.NFC == 0 && s.NWD != 0 {
			t.Errorf("state %d (%s): waiting disks with all controllers up", i, s)
		}
		if s.NFC == 1 && (s.NFD != 0 || s.NDR != 0) {
			t.Errorf("state %d (%s): NFD/NDR nonzero during controller outage", i, s)
		}
		if s.NFC == 1 && !s.AL {
			t.Errorf("state %d (%s): unaligned with a failed controller", i, s)
		}
		if u := s.NFD + s.NDR + s.NWD; u > p.G {
			t.Errorf("state %d (%s): %d unavailable disks > G", i, s, u)
		}
		if u := s.NFD + s.NDR + s.NWD; u <= 1 && !s.AL {
			t.Errorf("state %d (%s): ≤1 unavailable disk must be aligned", i, s)
		}
		if s.NSD < 0 || s.NSD > p.DH || s.NSC < 0 || s.NSC > p.CH {
			t.Errorf("state %d (%s): spare counts out of range", i, s)
		}
	}
}

func TestSmallModelAgainstOracle(t *testing.T) {
	p := DefaultParams(2)
	p.DH, p.CH = 1, 1
	m, err := Build(p, false)
	if err != nil {
		t.Fatal(err)
	}
	rewards := m.UnavailabilityRewards()
	s, err := uniform.New(m.Chain, rewards, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, tt := range []float64{10, 100} {
		res, err := s.TRR([]float64{tt})
		if err != nil {
			t.Fatal(err)
		}
		want, err := expm.TRR(m.Chain, rewards, tt)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res[0].Value-want) > 1e-10 {
			t.Errorf("t=%v: UA=%v oracle=%v", tt, res[0].Value, want)
		}
	}
}

// rrlTRR evaluates TRR with the paper's RRL configuration the way the root
// constructor does: a non-retaining basis, a binding of the rewards, the
// series certified for the largest time, then the evaluator's ctx method.
func rrlTRR(model *ctmc.CTMC, rewards []float64, regenState int, ts []float64) ([]core.Result, error) {
	basis, err := regen.NewBasisMode(model, regenState, core.DefaultOptions(), regen.RetainNone)
	if err != nil {
		return nil, err
	}
	bd, err := basis.Bind(rewards)
	if err != nil {
		return nil, err
	}
	series, err := bd.SeriesForCtx(context.Background(), core.MaxTime(ts))
	if err != nil {
		return nil, err
	}
	rho0 := func() float64 { return sparse.Dot(model.Initial(), bd.Rewards()) }
	e, err := rrl.NewEvaluator(series, rho0, core.DefaultEpsilon, rrl.Config{})
	if err != nil {
		return nil, err
	}
	return e.TRRCtx(context.Background(), ts)
}

func TestURMonotoneAndRRLMatchesSR(t *testing.T) {
	p := DefaultParams(4)
	m, err := Build(p, true)
	if err != nil {
		t.Fatal(err)
	}
	rewards := m.UnreliabilityRewards()
	sSR, err := uniform.New(m.Chain, rewards, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ts := []float64{1, 10, 100, 1000}
	a, err := rrlTRR(m.Chain, rewards, m.Pristine, ts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sSR.TRR(ts)
	if err != nil {
		t.Fatal(err)
	}
	prev := -1.0
	for i := range ts {
		if diff := math.Abs(a[i].Value - b[i].Value); diff > 5e-12 {
			t.Errorf("t=%v: RRL UR=%v SR UR=%v diff %g", ts[i], a[i].Value, b[i].Value, diff)
		}
		if a[i].Value < prev {
			t.Errorf("UR not monotone at t=%v", ts[i])
		}
		prev = a[i].Value
		if a[i].Value < 0 || a[i].Value > 1 {
			t.Errorf("UR out of [0,1]: %v", a[i].Value)
		}
	}
}

func TestThroughputRewardsShape(t *testing.T) {
	m, err := Build(DefaultParams(5), false)
	if err != nil {
		t.Fatal(err)
	}
	r := m.ThroughputRewards()
	if r[m.Pristine] != 1 {
		t.Errorf("pristine throughput %v want 1", r[m.Pristine])
	}
	if r[m.Failed] != 0 {
		t.Errorf("failed throughput %v want 0", r[m.Failed])
	}
	for i, v := range r {
		if v < 0 || v > 1 {
			t.Errorf("state %d (%s): throughput %v outside [0,1]", i, m.States[i], v)
		}
	}
	// A state with a controller down serves at exactly 60%.
	for i, s := range m.States {
		if !s.Failed && s.NFC == 1 && s.NWD == 0 {
			if math.Abs(r[i]-0.6) > 1e-15 {
				t.Errorf("controller-down throughput %v want 0.6", r[i])
			}
		}
	}
}

func TestParamValidation(t *testing.T) {
	p := DefaultParams(4)
	p.N = 1
	if _, err := Build(p, false); err == nil {
		t.Error("want error for N=1")
	}
	p = DefaultParams(4)
	p.PR = 0
	if _, err := Build(p, false); err == nil {
		t.Error("want error for PR=0")
	}
	p = DefaultParams(4)
	p.LambdaD = -1
	if _, err := Build(p, false); err == nil {
		t.Error("want error for negative rate")
	}
	p = DefaultParams(0)
	if _, err := Build(p, false); err == nil {
		t.Error("want error for G=0")
	}
}

func TestGeneratorConservation(t *testing.T) {
	// Total probability flux must balance: uniformized chain rows sum to 1.
	m, err := Build(DefaultParams(12), false)
	if err != nil {
		t.Fatal(err)
	}
	d, err := m.Chain.Uniformize(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.RowSumsCheck(1e-12); err != nil {
		t.Error(err)
	}
}

func TestPerfectReconstructionNeverFailsFromRecon(t *testing.T) {
	// With P_R = 1 and no second failures possible (tiny rates), UR should
	// be dominated by double faults; sanity: UR(t) with PR=1 below UR with
	// PR=0.9 at the same t.
	pLow := DefaultParams(3)
	pLow.PR = 0.9
	pHigh := DefaultParams(3)
	pHigh.PR = 1
	urAt := func(p Params) float64 {
		m, err := Build(p, true)
		if err != nil {
			t.Fatal(err)
		}
		s, err := uniform.New(m.Chain, m.UnreliabilityRewards(), core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.TRR([]float64{1000})
		if err != nil {
			t.Fatal(err)
		}
		return res[0].Value
	}
	low, high := urAt(pLow), urAt(pHigh)
	if high >= low {
		t.Errorf("UR with PR=1 (%v) should be below UR with PR=0.9 (%v)", high, low)
	}
}

var _ = ctmc.CTMC{} // keep import for potential helpers
