package sizing

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"repro/internal/delay"
	"repro/internal/netlist"
	"repro/internal/nlp"
	"repro/internal/ssta"
	"repro/internal/telemetry"
)

// reducedCase is one element of a reduced problem together with its
// reference: the value and adjoint seed the element must produce from
// fresh serial sweep moments.
type reducedCase struct {
	name string
	el   nlp.Element
	ref  func(mu, v float64) (val, seedMu, seedVar float64)
}

// reducedCases builds the elements the reduced formulation uses, all
// over one shared evaluator: the sigma objective and mu equality of
// Tables 2/3, a mu+3sigma objective and a max-sigma objective.
func reducedCases(re *reducedEval, vars []int, muBound float64) []reducedCase {
	floorSigma := func(v float64) float64 { return math.Max(math.Sqrt(v), sigmaFloor) }
	return []reducedCase{
		{"sigma", re.sigmaElement(vars, 1), func(_, v float64) (float64, float64, float64) {
			return math.Sqrt(v), 0, 1 / (2 * floorSigma(v))
		}},
		{"mu=", re.muKSigmaElement(vars, 0, -muBound), func(mu, _ float64) (float64, float64, float64) {
			return mu - muBound, 1, 0
		}},
		{"mu+3sigma", re.muKSigmaElement(vars, 3, 0), func(mu, v float64) (float64, float64, float64) {
			return mu + 3*math.Sqrt(v), 1, 3 / (2 * floorSigma(v))
		}},
		{"-sigma", re.sigmaElement(vars, -1), func(_, v float64) (float64, float64, float64) {
			return -math.Sqrt(v), 0, -1 / (2 * floorSigma(v))
		}},
	}
}

func newReducedEval(m *delay.Model, workers int, rec telemetry.Recorder) (*reducedEval, []int) {
	gates := m.G.C.GateIDs()
	vars := make([]int, len(gates))
	for i := range vars {
		vars[i] = i
	}
	return &reducedEval{m: m, gates: gates, workers: workers, rec: rec}, vars
}

// TestReducedHierMatchesAnalyze drives the Hier-backed reduced
// elements through random points in arbitrary order — revisits,
// few-gate nudges, Grad at a point other than the last one passed to
// Eval, several elements sharing the engine — and requires every value
// and gradient to equal a fresh serial Analyze + Backward bit for bit.
func TestReducedHierMatchesAnalyze(t *testing.T) {
	models := map[string]*delay.Model{
		"tree":   treeModel(t),
		"gen300": genModel(t, 300),
	}
	for name, m := range models {
		for _, workers := range []int{1, 4} {
			re, vars := newReducedEval(m, workers, nil)
			n := len(vars)
			unit := ssta.Analyze(m, m.UnitSizes(), false).Tmax
			cases := reducedCases(re, vars, 0.9*unit.Mu)
			rng := rand.New(rand.NewSource(int64(7 + workers)))
			var pool [][]float64
			newPoint := func() []float64 {
				x := make([]float64, n)
				if len(pool) > 0 && rng.Intn(2) == 0 {
					// Nudge a few gates of an earlier point: a partial
					// dirty cone on the engine.
					copy(x, pool[rng.Intn(len(pool))])
					for k := 0; k < 1+rng.Intn(3); k++ {
						x[rng.Intn(n)] = 1 + (m.Limit-1)*rng.Float64()
					}
					return x
				}
				for i := range x {
					x[i] = 1 + (m.Limit-1)*rng.Float64()
				}
				return x
			}
			S := m.UnitSizes()
			g := make([]float64, n)
			for step := 0; step < 120; step++ {
				if len(pool) < 2 || rng.Intn(3) == 0 {
					pool = append(pool, newPoint())
				}
				x := pool[rng.Intn(len(pool))]
				c := cases[rng.Intn(len(cases))]
				for i, id := range re.gates {
					S[id] = x[i]
				}
				r := ssta.Analyze(m, S, true)
				val, sMu, sVar := c.ref(r.Tmax.Mu, r.Tmax.Var)
				if rng.Intn(2) == 0 {
					if got := c.el.Eval(x); math.Float64bits(got) != math.Float64bits(val) {
						t.Fatalf("%s/j%d step %d: %s Eval = %v, fresh sweep %v",
							name, workers, step, c.name, got, val)
					}
					continue
				}
				c.el.Grad(x, g)
				want := r.Backward(m, S, sMu, sVar)
				for i, id := range re.gates {
					if math.Float64bits(g[i]) != math.Float64bits(want[id]) {
						t.Fatalf("%s/j%d step %d: %s Grad[%d] = %v, fresh adjoint %v",
							name, workers, step, c.name, i, g[i], want[id])
					}
				}
			}
		}
	}
}

// TestReducedEvalGradAllocFree pins the allocation-free reduced
// evaluator: once the engine exists, an Eval+Grad pair at a new point
// (one taped Update plus one adjoint sweep) allocates nothing.
func TestReducedEvalGradAllocFree(t *testing.T) {
	m := genModel(t, 300)
	re, vars := newReducedEval(m, 1, nil)
	el := re.muKSigmaElement(vars, 3, 0)
	n := len(vars)
	x1, x2 := make([]float64, n), make([]float64, n)
	for i := range x1 {
		x1[i] = 1 + 0.01*float64(i%13)
		x2[i] = 1.5 + 0.02*float64(i%7)
	}
	g := make([]float64, n)
	step := func() {
		el.Eval(x1)
		el.Grad(x1, g)
		el.Eval(x2)
		el.Grad(x2, g)
	}
	for i := 0; i < 3; i++ {
		step()
	}
	if a := testing.AllocsPerRun(50, step); a != 0 {
		t.Fatalf("reduced Eval+Grad allocates %v per run in steady state, want 0", a)
	}
}

// TestReducedForwardSweepsCountPoints pins one forward sweep per
// evaluated point on apex2 min mu+3sigma: the recorded
// ssta.forward_sweeps must equal the number of distinct points the
// solver passed to Eval or Grad. A Grad that re-swept its point would
// double the count.
func TestReducedForwardSweepsCountPoints(t *testing.T) {
	m := delay.MustBind(netlist.MustCompile(netlist.Apex2Like()), delay.Default())
	points := map[string]bool{}
	key := func(x []float64) string {
		b := make([]byte, 8*len(x))
		for i, v := range x {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
		}
		return string(b)
	}
	wrap := func(p *nlp.Problem) *nlp.Problem {
		for i := range p.Objective {
			el := &p.Objective[i]
			eval, grad := el.Eval, el.Grad
			el.Eval = func(x []float64) float64 { points[key(x)] = true; return eval(x) }
			el.Grad = func(x, g []float64) { points[key(x)] = true; grad(x, g) }
		}
		return p
	}
	rec := telemetry.NewMetrics()
	out, err := Size(m, Spec{
		Objective: MinMuPlusKSigma(3), Workers: 1,
		Recorder: rec, WrapProblem: wrap,
	})
	if err != nil {
		t.Fatal(err)
	}
	fwd := rec.CounterValue("ssta.forward_sweeps")
	adj := rec.CounterValue("ssta.adjoint_sweeps")
	if fwd != int64(len(points)) {
		t.Errorf("ssta.forward_sweeps = %d over %d distinct evaluated points (%d adjoint sweeps, %v)",
			fwd, len(points), adj, out.Solver.Status)
	}
	t.Logf("%d forward sweeps, %d distinct points, %d adjoint sweeps", fwd, len(points), adj)
	if adj == 0 || adj > fwd {
		t.Errorf("ssta.adjoint_sweeps = %d with %d forward sweeps", adj, fwd)
	}
}
