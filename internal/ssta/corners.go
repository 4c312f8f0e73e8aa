package ssta

import (
	"repro/internal/delay"
	"repro/internal/netlist"
)

// CornerResult holds the traditional best/typical/worst-case timing
// the paper's introduction positions statistical analysis against:
// every gate simultaneously at mu - k*sigma (best), mu (typical) or
// mu + k*sigma (worst). The paper (after its refs [1], [2]) points out
// that worst-case corners are "very pessimistic": all gates being
// simultaneously slow is a probability-zero event, and the statistical
// quantile mu_Tmax + k*sigma_Tmax sits far below the worst corner
// because independent per-gate deviations cancel along paths
// (sigma of a sum grows like sqrt(depth), not depth).
type CornerResult struct {
	K                    float64
	Best, Typical, Worst float64
	// StatQuantile is the statistical mu + k*sigma circuit quantile,
	// the apples-to-apples replacement for the worst corner.
	StatQuantile float64
	// Pessimism is Worst - StatQuantile: the margin the traditional
	// methodology wastes.
	Pessimism float64
}

// Corners runs the three deterministic corner sweeps plus the
// statistical sweep at quantile multiplier k. A non-finite k panics
// (see checkRiskFactor); the sign of k is ignored — corners are
// symmetric by construction, so Corners(m, S, -3, w) is
// Corners(m, S, 3, w), keeping the Best <= Worst invariant instead of
// silently swapping the corners' meanings.
//
// The three corners are lanes of one batched sweep (detBatch) — one
// traversal computing each gate's delay distribution once for all
// three risk levels — and the statistical sweep runs on the shared
// workers-aware entry point (AnalyzeWorkers). Results are
// bit-identical to three scalar corner sweeps for any worker count.
func Corners(m *delay.Model, S []float64, k float64, workers int) *CornerResult {
	checkRiskFactor(k, "Corners")
	if k < 0 {
		k = -k
	}
	res := &CornerResult{K: k}
	t := newDetBatch(m, []float64{-k, 0, k}, workers).Sweep(S)
	res.Best, res.Typical, res.Worst = t[0], t[1], t[2]
	r := AnalyzeWorkers(m, S, false, SweepOptions{Workers: workers})
	res.StatQuantile = r.Tmax.Mu + k*r.Tmax.Sigma()
	res.Pessimism = res.Worst - res.StatQuantile
	return res
}

// cornerSweep is a deterministic sweep with every gate delay set to
// mu + k*sigma. The corner convention clamps every physical time at
// zero — gate delays and primary-input arrival quantiles alike: a
// best-case corner (negative k) may not start an event before t = 0
// any more than a gate may anticipate its inputs, so deep-negative
// input skews cannot manufacture negative circuit delays.
func cornerSweep(m *delay.Model, S []float64, k float64) float64 {
	g := m.G
	n := len(g.C.Nodes)
	arr := make([]float64, n)
	for _, id := range g.Topo {
		nd := &g.C.Nodes[id]
		if nd.Kind == netlist.KindInput {
			a := m.Arrival[id]
			t := a.Mu + k*a.Sigma()
			if t < 0 {
				t = 0
			}
			arr[id] = t
			continue
		}
		u := arr[nd.Fanin[0]] + m.PinOff(id, 0)
		for pin, f := range nd.Fanin[1:] {
			if a := arr[f] + m.PinOff(id, pin+1); a > u {
				u = a
			}
		}
		mv := m.GateMV(id, S)
		d := mv.Mu + k*mv.Sigma()
		if d < 0 {
			d = 0
		}
		arr[id] = u + d
	}
	var tmax float64
	for i, o := range g.C.Outputs {
		if i == 0 || arr[o] > tmax {
			tmax = arr[o]
		}
	}
	return tmax
}
