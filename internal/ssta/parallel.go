package ssta

import (
	"runtime"
	"sync"
	"time"

	"repro/internal/delay"
	"repro/internal/stats"
	"repro/internal/telemetry"
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

// SweepOptions configures the flat levelized sweeps: AnalyzeWorkers,
// Result.BackwardWorkers, GradMuPlusKSigmaWorkers and
// CriticalityWorkers.
type SweepOptions struct {
	// Workers bounds the parallelism: <= 0 uses one worker per CPU, 1
	// forces the serial sweep. Results are bit-identical for any value.
	Workers int
	// Recorder, when non-nil, receives the "ssta.forward" and
	// "ssta.adjoint" spans, the ssta.forward_sweeps and
	// ssta.adjoint_sweeps counts and the graph-shape gauges
	// (RecordGraphShape). All of it is wall-clock or aggregate data, so
	// it flows to the metrics sinks only. Nil disables instrumentation
	// at the cost of one branch.
	Recorder telemetry.Recorder
}

// AnalyzeWorkers is the levelized parallel variant of Analyze. The
// result is bit-identical to Analyze for any worker count, and small
// circuits fall back to the serial sweep.
func AnalyzeWorkers(m *delay.Model, S []float64, withTape bool, opt SweepOptions) *Result {
	rec := opt.Recorder
	if rec == nil {
		return analyzeLevels(m, S, withTape, opt.Workers)
	}
	t0 := time.Now()
	r := analyzeLevels(m, S, withTape, opt.Workers)
	rec.Span("ssta.forward", time.Since(t0))
	rec.Count("ssta.forward_sweeps", 1)
	RecordGraphShape(m, rec)
	return r
}

// analyzeLevels is the uninstrumented forward sweep behind
// AnalyzeWorkers.
func analyzeLevels(m *delay.Model, S []float64, withTape bool, workers int) *Result {
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
// serial sweep. It panics unless r was produced with a tape.
func (r *Result) BackwardWorkers(m *delay.Model, S []float64, seedMu, seedVar float64, opt SweepOptions) []float64 {
	var sc adjointScratch
	return r.adjoint(m, S, seedMu, seedVar, opt, &sc)
}

// adjoint runs the levelized adjoint sweep into sc under opt.
func (r *Result) adjoint(m *delay.Model, S []float64, seedMu, seedVar float64, opt SweepOptions, sc *adjointScratch) []float64 {
	workers := SweepWorkers(m, opt.Workers)
	rec := opt.Recorder
	if rec == nil {
		return r.backwardInto(m, S, seedMu, seedVar, workers, sc)
	}
	t0 := time.Now()
	grad := r.backwardInto(m, S, seedMu, seedVar, workers, sc)
	rec.Span("ssta.adjoint", time.Since(t0))
	rec.Count("ssta.adjoint_sweeps", 1)
	return grad
}

// GradMuPlusKSigmaWorkers is GradMuPlusKSigma on the parallel sweeps:
// one taped levelized forward pass plus one levelized adjoint pass.
func GradMuPlusKSigmaWorkers(m *delay.Model, S []float64, k float64, opt SweepOptions) (float64, []float64) {
	r := AnalyzeWorkers(m, S, true, opt)
	phi, sMu, sVar := ObjectiveMuPlusKSigma(r.Tmax, k)
	return phi, r.BackwardWorkers(m, S, sMu, sVar, opt)
}

// RecordGraphShape publishes the level structure driving the parallel
// sweeps: level count, widest level, node count. The values are
// properties of the compiled graph, so repeated sets are idempotent.
func RecordGraphShape(m *delay.Model, rec telemetry.Recorder) {
	g := m.G
	maxw := 0
	for _, b := range g.Levels {
		maxw = max(maxw, len(b))
	}
	rec.Gauge("ssta.levels", float64(len(g.Levels)))
	rec.Gauge("ssta.max_level_width", float64(maxw))
	rec.Gauge("ssta.nodes", float64(len(g.C.Nodes)))
}
