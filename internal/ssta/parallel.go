package ssta

import (
	"runtime"
	"sync"

	"repro/internal/delay"
	"repro/internal/stats"
)

// The parallel sweeps exploit the levelized structure of the circuit:
// all nodes of one level are mutually independent (every fanin edge
// crosses strictly upward in level), so a level can be processed by a
// worker pool behind a barrier. Determinism is by construction:
//
//   - Forward: each node's moments are a pure function of its fanins'
//     already-final moments, and every node owns its result slots, so
//     the scheduling order cannot change a single bit.
//   - Backward: workers only *compute* per-node adjoint contributions
//     into per-node scratch; the contributions are *applied* by the
//     coordinating goroutine in the fixed bucket order after the level
//     barrier, reproducing the serial accumulation order exactly.
//
// Both sweeps are therefore bit-identical to the serial Analyze and
// Backward for any worker count.

// parallelMinNodes is the circuit size below which the parallel entry
// points fall back to the serial sweep: below a few hundred nodes the
// per-level synchronization costs more than the arithmetic it spreads.
const parallelMinNodes = 256

// minLevelParallel is the bucket size below which a level is processed
// inline by the coordinating goroutine instead of being fanned out.
const minLevelParallel = 32

// resolveWorkers maps the shared Workers convention onto a concrete
// count: <= 0 means one worker per CPU, anything else is taken as-is.
func resolveWorkers(workers int) int {
	if workers <= 0 {
		return runtime.NumCPU()
	}
	return workers
}

// SweepWorkers returns the worker count the sweeps run with on m:
// workers resolved as above, and 1 on circuits below parallelMinNodes,
// where the parallel schedule costs more than it spreads. Callers
// that build a persistent engine per circuit (the reduced sizing
// evaluator's Hier) use it to pick the same serial fallback.
func SweepWorkers(m *delay.Model, workers int) int {
	if len(m.G.C.Nodes) < parallelMinNodes {
		return 1
	}
	return resolveWorkers(workers)
}

// runLevel executes fn(i) for every i in [0, n) on up to workers
// goroutines (the caller included) and returns only when all calls
// are done — the level barrier. Work is handed out as contiguous
// chunks; fn must write only to slots owned by item i.
func runLevel(workers, n int, fn func(int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 || n < minLevelParallel {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := chunk; lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				fn(i)
			}
		}(lo, hi)
	}
	for i := 0; i < chunk; i++ {
		fn(i)
	}
	wg.Wait()
}

// AnalyzeWorkers is the levelized parallel variant of Analyze. The
// result is bit-identical to Analyze for any worker count; workers <= 0
// uses one worker per CPU, and small circuits fall back to the serial
// sweep.
func AnalyzeWorkers(m *delay.Model, S []float64, withTape bool, workers int) *Result {
	workers = SweepWorkers(m, workers)
	if workers == 1 {
		return Analyze(m, S, withTape)
	}
	g := m.G
	n := len(g.C.Nodes)
	r := &Result{
		Arrival:   make([]stats.MV, n),
		GateDelay: make([]stats.MV, n),
		withTape:  withTape,
	}
	if withTape {
		r.gateFold = make([][]stats.Jac2x4, n)
	}
	for _, bucket := range g.Levels {
		runLevel(workers, len(bucket), func(i int) {
			forwardNode(r, m, S, bucket[i], withTape)
		})
	}
	foldOutputs(r, g, withTape)
	return r
}

// BackwardWorkers is the levelized parallel variant of Backward,
// bit-identical to it for any worker count. Workers compute each
// node's fanin contributions into per-node scratch; after the level
// barrier the contributions are applied serially in bucket order, so
// every floating-point accumulation happens in the same order as the
// serial sweep.
func (r *Result) BackwardWorkers(m *delay.Model, S []float64, seedMu, seedVar float64, workers int) []float64 {
	if !r.withTape {
		panic("ssta: BackwardWorkers requires a taped Analyze")
	}
	var sc adjointScratch
	return r.backwardInto(m, S, seedMu, seedVar, resolveWorkers(workers), &sc)
}

// GradMuPlusKSigmaWorkers is GradMuPlusKSigma on the parallel sweeps:
// one taped levelized forward pass plus one levelized adjoint pass.
func GradMuPlusKSigmaWorkers(m *delay.Model, S []float64, k float64, workers int) (float64, []float64) {
	r := AnalyzeWorkers(m, S, true, workers)
	phi, sMu, sVar := ObjectiveMuPlusKSigma(r.Tmax, k)
	return phi, r.BackwardWorkers(m, S, sMu, sVar, workers)
}
