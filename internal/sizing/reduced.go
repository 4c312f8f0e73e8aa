package sizing

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/delay"
	"repro/internal/netlist"
	"repro/internal/nlp"
	"repro/internal/ssta"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// reducedEval adapts one persistent ssta.Hier engine to nlp.Element
// callbacks. The problem variables are the speed factors of the gates
// in dense order. Every element of one reduced problem shares the
// engine, so the tape-reuse contract is:
//
//   - Eval moves the engine to the point (SetSize per gate, then one
//     taped, allocation-free Update) and reads the circuit delay
//     moments. At a point whose bits match the engine's sizes this
//     is a no-op, so elements evaluated at the same point — the sigma
//     objective and the mu constraint of Tables 2/3 — share one sweep.
//   - Grad repeats that SetSize pass (a no-op after the matching
//     Eval) and runs only the adjoint sweep on the standing tape.
//
// Both results are bit-identical to a fresh serial ssta.Analyze plus
// Backward at the point, whatever point the engine held before. The
// NLP engine may evaluate distinct elements concurrently, so access
// to the shared engine goes through mu; the reduced problem has only
// a few elements, so the lock is uncontended in practice.
type reducedEval struct {
	m       *delay.Model
	gates   []netlist.NodeID
	workers int
	// rec aggregates sweep spans ("ssta.forward"/"ssta.adjoint"). A
	// forward sweep is recorded only when the evaluated point moved
	// the engine, so ssta.forward_sweeps counts evaluated points.
	rec telemetry.Recorder

	mu sync.Mutex
	h  *ssta.Hier // built at the first evaluated point
}

// at moves the engine to the dense point x and returns the circuit
// delay moments there. The caller holds re.mu.
func (re *reducedEval) at(x []float64) stats.MV {
	var t0 time.Time
	if re.rec != nil {
		t0 = time.Now()
	}
	if re.h == nil {
		S := re.m.UnitSizes()
		for i, id := range re.gates {
			S[id] = x[i]
		}
		re.h = ssta.NewHier(re.m, S, ssta.HierOptions{Workers: re.workers})
		if re.rec != nil {
			ssta.RecordGraphShape(re.m, re.rec)
		}
	} else {
		s := re.h.Sizes()
		moved := false
		for i, id := range re.gates {
			if s[id] != x[i] {
				re.h.SetSize(id, x[i])
				moved = true
			}
		}
		if !moved {
			return re.h.Tmax()
		}
		re.h.Update()
	}
	if re.rec != nil {
		re.rec.Span("ssta.forward", time.Since(t0))
		re.rec.Count("ssta.forward_sweeps", 1)
	}
	return re.h.Tmax()
}

// grad runs the adjoint sweep with the given seed on the engine's
// standing tape, scattering d phi/d S into the dense gradient g. The
// caller holds re.mu and has moved the engine to the point.
func (re *reducedEval) grad(g []float64, seedMu, seedVar float64) {
	var t0 time.Time
	if re.rec != nil {
		t0 = time.Now()
	}
	full := re.h.Backward(seedMu, seedVar)
	for i, id := range re.gates {
		g[i] = full[id]
	}
	if re.rec != nil {
		re.rec.Span("ssta.adjoint", time.Since(t0))
		re.rec.Count("ssta.adjoint_sweeps", 1)
	}
}

// sigmaFloor keeps 1/sigma finite when the delay variance vanishes
// (possible only in the deterministic limit).
const sigmaFloor = 1e-9

// muKSigmaElement returns an element computing
// muTmax + k*sigmaTmax + shift over all speed factors.
func (re *reducedEval) muKSigmaElement(vars []int, k, shift float64) nlp.Element {
	return nlp.Element{
		Vars: vars,
		Eval: func(x []float64) float64 {
			re.mu.Lock()
			t := re.at(x)
			re.mu.Unlock()
			if k == 0 {
				return t.Mu + shift
			}
			return t.Mu + k*math.Sqrt(t.Var) + shift
		},
		Grad: func(x []float64, g []float64) {
			re.mu.Lock()
			defer re.mu.Unlock()
			t := re.at(x)
			if k == 0 {
				re.grad(g, 1, 0)
				return
			}
			sigma := math.Max(math.Sqrt(t.Var), sigmaFloor)
			re.grad(g, 1, k/(2*sigma))
		},
	}
}

// sigmaElement returns an element computing sign * sigmaTmax.
func (re *reducedEval) sigmaElement(vars []int, sign float64) nlp.Element {
	return nlp.Element{
		Vars: vars,
		Eval: func(x []float64) float64 {
			re.mu.Lock()
			t := re.at(x)
			re.mu.Unlock()
			return sign * math.Sqrt(t.Var)
		},
		Grad: func(x []float64, g []float64) {
			re.mu.Lock()
			defer re.mu.Unlock()
			t := re.at(x)
			sigma := math.Max(math.Sqrt(t.Var), sigmaFloor)
			re.grad(g, 0, sign/(2*sigma))
		},
	}
}

// solveReduced builds and solves the reduced formulation, returning
// the NLP result and the speed factors indexed by NodeID. ctx cancels
// the solve at ALM iteration boundaries; the result then carries the
// best-so-far iterate with a Cancelled or DeadlineExceeded status.
func solveReduced(ctx context.Context, m *delay.Model, spec Spec) (*nlp.Result, []float64, error) {
	gates := m.G.C.GateIDs()
	n := len(gates)
	if n == 0 {
		return nil, nil, fmt.Errorf("sizing: circuit has no gates")
	}
	re := &reducedEval{m: m, gates: gates, workers: ssta.SweepWorkers(m, spec.Workers), rec: spec.Recorder}

	vars := make([]int, n)
	lower := make([]float64, n)
	upper := make([]float64, n)
	for i := range vars {
		vars[i] = i
		lower[i] = 1
		upper[i] = m.Limit
	}

	p := &nlp.Problem{N: n, Lower: lower, Upper: upper}
	switch spec.Objective.Kind {
	case ObjMuPlusKSigma:
		p.Objective = []nlp.Element{re.muKSigmaElement(vars, spec.Objective.K, 0)}
	case ObjArea, ObjWeightedArea:
		coeffs := make([]float64, n)
		for i := range coeffs {
			coeffs[i] = 1
		}
		if spec.Objective.Kind == ObjWeightedArea {
			if spec.Weights == nil {
				return nil, nil, fmt.Errorf("sizing: weighted area needs Spec.Weights")
			}
			for i, id := range gates {
				coeffs[i] = spec.Weights[id]
			}
		}
		p.Objective = []nlp.Element{nlp.LinearElement(vars, coeffs, 0)}
	case ObjSigma:
		p.Objective = []nlp.Element{re.sigmaElement(vars, 1)}
	case ObjNegSigma:
		p.Objective = []nlp.Element{re.sigmaElement(vars, -1)}
	default:
		return nil, nil, fmt.Errorf("sizing: unknown objective %v", spec.Objective)
	}

	for _, c := range spec.Constraints {
		switch c.Kind {
		case ConMuPlusKSigmaLE:
			p.IneqCons = append(p.IneqCons, nlp.Constraint{
				Name: c.String(),
				El:   re.muKSigmaElement(vars, c.K, -c.Bound),
			})
		case ConMuEQ:
			p.EqCons = append(p.EqCons, nlp.Constraint{
				Name: c.String(),
				El:   re.muKSigmaElement(vars, 0, -c.Bound),
			})
		default:
			return nil, nil, fmt.Errorf("sizing: unknown constraint %v", c)
		}
	}

	x0 := make([]float64, n)
	for i, id := range gates {
		x0[i] = 1
		if spec.Start != nil {
			x0[i] = spec.Start[id]
		}
	}
	if spec.Start == nil && spec.Objective.Kind == ObjNegSigma {
		perturbStart(x0, m.Limit)
	}
	opt := spec.Solver
	if opt.Method == nlp.NewtonCG {
		return nil, nil, fmt.Errorf("sizing: the reduced formulation has no element Hessians; use LBFGS or the full-space formulation")
	}
	if opt.Workers == 0 {
		opt.Workers = spec.Workers
	}
	if opt.Recorder == nil {
		opt.Recorder = spec.Recorder
	}

	if spec.WrapProblem != nil {
		p = spec.WrapProblem(p)
	}
	res, err := nlp.SolveCtx(ctx, p, x0, opt)
	if err != nil {
		return nil, nil, err
	}
	S := m.UnitSizes()
	for i, id := range gates {
		S[id] = res.X[i]
	}
	return res, S, nil
}
