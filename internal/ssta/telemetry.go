package ssta

import (
	"time"

	"repro/internal/delay"
	"repro/internal/telemetry"
)

// This file holds the instrumented variants of the sweep entry points.
// A nil Recorder falls straight through to the plain functions, so the
// instrumentation costs one branch when telemetry is off. All recorded
// data is wall-clock/aggregate (spans, counters, gauges) and therefore
// flows to the metrics sinks only — sweep results themselves are
// bit-identical for every worker count, so there is nothing
// nondeterministic to keep out of the event stream here.

// AnalyzeWorkersRec is AnalyzeWorkers with telemetry: it times the
// forward sweep into the "ssta.forward" span, counts sweeps, and
// publishes the levelization-shape gauges the parallel sweep's
// performance depends on.
func AnalyzeWorkersRec(m *delay.Model, S []float64, withTape bool, workers int, rec telemetry.Recorder) *Result {
	if rec == nil {
		return AnalyzeWorkers(m, S, withTape, workers)
	}
	t0 := time.Now()
	r := AnalyzeWorkers(m, S, withTape, workers)
	rec.Span("ssta.forward", time.Since(t0))
	rec.Count("ssta.forward_sweeps", 1)
	RecordGraphShape(m, rec)
	return r
}

// BackwardWorkersRec is BackwardWorkers with telemetry: the adjoint
// sweep is timed into the "ssta.adjoint" span.
func (r *Result) BackwardWorkersRec(m *delay.Model, S []float64, seedMu, seedVar float64, workers int, rec telemetry.Recorder) []float64 {
	if rec == nil {
		return r.BackwardWorkers(m, S, seedMu, seedVar, workers)
	}
	t0 := time.Now()
	grad := r.BackwardWorkers(m, S, seedMu, seedVar, workers)
	rec.Span("ssta.adjoint", time.Since(t0))
	rec.Count("ssta.adjoint_sweeps", 1)
	return grad
}

// GradMuPlusKSigmaWorkersRec is GradMuPlusKSigmaWorkers on the
// instrumented sweeps.
func GradMuPlusKSigmaWorkersRec(m *delay.Model, S []float64, k float64, workers int, rec telemetry.Recorder) (float64, []float64) {
	r := AnalyzeWorkersRec(m, S, true, workers, rec)
	phi, sMu, sVar := ObjectiveMuPlusKSigma(r.Tmax, k)
	return phi, r.BackwardWorkersRec(m, S, sMu, sVar, workers, rec)
}

// RecordGraphShape publishes the level structure driving the parallel
// sweeps: level count, widest level, node count. The values are
// properties of the compiled graph, so repeated sets are idempotent.
func RecordGraphShape(m *delay.Model, rec telemetry.Recorder) {
	g := m.G
	maxw := 0
	for _, b := range g.Levels {
		if len(b) > maxw {
			maxw = len(b)
		}
	}
	rec.Gauge("ssta.levels", float64(len(g.Levels)))
	rec.Gauge("ssta.max_level_width", float64(maxw))
	rec.Gauge("ssta.nodes", float64(len(g.C.Nodes)))
}
