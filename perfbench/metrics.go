package main

import (
	"math"
	"sort"
)

// kind says which result a metric belongs to.
type kind int

const (
	// endToEnd metrics are what a user of the system sees; they are
	// measured with tracing off and reported with --trace 0.
	endToEnd kind = iota + 1
	// perLayer metrics attribute the end-to-end numbers to the
	// program's layers; they are reported with --trace 1.
	perLayer
)

// decl declares one metric: the result it belongs to and its unit.
type decl struct {
	kind kind
	unit string
}

// metricDecls declares every metric the benchmark reports. It must
// list the same names and units as BENCHMARK.json (the self-test
// checks this).
var metricDecls = map[string]decl{
	// End-to-end metrics. Every workload reports each of them, in the
	// terms of its own operation: a Table 1 row solve (paper-k2), a
	// session request (sessions-k2) or a job (jobs-small).
	"cpu_ms_per_op": {endToEnd, "ms"},
	"on_target_pct": {endToEnd, "%"},
	"setup_s":       {endToEnd, "s"},
	"rss_mean_mb":   {endToEnd, "MB"},

	// Per-layer metrics. Every traced run reports each of them; one a
	// workload does not measure reads 0, and layers.json lists the
	// workloads that measure each.
	//
	// The workloads' own user-facing numbers come first. Across runs
	// they vary more than a regression bound allows, or they exist on
	// one workload only, so they are reported but do not gate: the
	// solution quality of paper-k2 with the generated circuit, the job
	// latencies with the fsync latency of the host's disk, which swung
	// twofold within seconds on a shared 2-CPU host, the tails by more
	// than a tenth, and the session latencies with the host's speed.
	"rows_converged":    {perLayer, "count"},
	"kkt_max":           {perLayer, "norm"},
	"yield_err_pct":     {perLayer, "%"},
	"nudge_p50_ms":      {perLayer, "ms"},
	"whatif_p50_ms":     {perLayer, "ms"},
	"timing_p50_ms":     {perLayer, "ms"},
	"session_ops_per_s": {perLayer, "1/s"},
	"nudge_tail_ms":     {perLayer, "ms"},
	"job_p50_ms":        {perLayer, "ms"},
	"job_tail_ms":       {perLayer, "ms"},

	"netlist.parse_ms":          {perLayer, "ms"},
	"netlist.compile_ms":        {perLayer, "ms"},
	"delay.bind_ms":             {perLayer, "ms"},
	"stats.max2_calls":          {perLayer, "count"},
	"cpu.stats":                 {perLayer, "share"},
	"ssta.forward_sweeps":       {perLayer, "count"},
	"ssta.adjoint_sweeps":       {perLayer, "count"},
	"ssta.forward_s":            {perLayer, "s"},
	"ssta.adjoint_s":            {perLayer, "s"},
	"ssta.forward_per_inner":    {perLayer, "ratio"},
	"ssta.inc_update_us":        {perLayer, "us"},
	"ssta.inc_trial_us":         {perLayer, "us"},
	"ssta.timing_read_us":       {perLayer, "us"},
	"ssta.dirty_nodes":          {perLayer, "count"},
	"ssta.engine_bytes":         {perLayer, "bytes"},
	"nlp.outer_iters":           {perLayer, "count"},
	"nlp.inner_iters":           {perLayer, "count"},
	"nlp.merit_evals":           {perLayer, "count"},
	"nlp.grad_evals":            {perLayer, "count"},
	"nlp.accept_ratio":          {perLayer, "ratio"},
	"nlp.merit_s":               {perLayer, "s"},
	"nlp.grad_s":                {perLayer, "s"},
	"nlp.step_s":                {perLayer, "s"},
	"nlp.alloc_mb":              {perLayer, "MB"},
	"cpu.gc":                    {perLayer, "share"},
	"sizing.solve_s":            {perLayer, "s"},
	"montecarlo.run_s":          {perLayer, "s"},
	"montecarlo.samples_per_s":  {perLayer, "1/s"},
	"service.admit_ms":          {perLayer, "ms"},
	"service.queue_wait_ms":     {perLayer, "ms"},
	"service.run_ms":            {perLayer, "ms"},
	"service.job_overhead_ms":   {perLayer, "ms"},
	"service.refused":           {perLayer, "count"},
	"cpu.checkpoint":            {perLayer, "share"},
	"service.submit_call_us":    {perLayer, "us"},
	"service.nudge_call_us":     {perLayer, "us"},
	"service.whatif_call_us":    {perLayer, "us"},
	"service.timing_call_us":    {perLayer, "us"},
	"http.submit_overhead_us":   {perLayer, "us"},
	"http.nudge_overhead_us":    {perLayer, "us"},
	"http.whatif_overhead_us":   {perLayer, "us"},
	"http.timing_overhead_us":   {perLayer, "us"},
	"service.session_hit_ratio": {perLayer, "ratio"},
	"service.rebuild_ms":        {perLayer, "ms"},
	"cpu.http_json":             {perLayer, "share"},
	"gen.lag_ms":                {perLayer, "ms"},
	"trace_overhead_pct":        {perLayer, "%"},
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100)
// of an ascending sample.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(p/100*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return sorted[i]
}

// tailPercentiles are the candidate tail percentiles, highest first.
var tailPercentiles = []float64{99.99, 99.9, 99.5, 99, 98, 97.5, 95, 90, 75, 50}

// tail returns the highest candidate percentile that has at least ten
// samples beyond it, and its value. A sample too small for any
// candidate reports its maximum as percentile 100.
func tail(sorted []float64) (p, v float64) {
	n := len(sorted)
	for _, p := range tailPercentiles {
		rank := int(math.Ceil(p / 100 * float64(n)))
		if rank >= 1 && n-rank >= 10 {
			return p, sorted[rank-1]
		}
	}
	if n == 0 {
		return 100, math.NaN()
	}
	return 100, sorted[n-1]
}

// median returns the middle of a sample (the mean of the two middle
// values for an even count); it does not modify xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// windows is how many equal time windows a run's latencies are split
// into. The p50 metrics report the median of the windows' medians, so
// a slow phase of a shared host that covers less than half a run does
// not move them.
const windows = 6

// windowed holds samples by the time window they started in.
type windowed [windows][]float64

// window returns the window of an operation that started at fraction
// at of the run (0 <= at < 1).
func window(at float64) int { return max(0, min(windows-1, int(at*windows))) }

// add records v for an operation that started at fraction at of the run.
func (w *windowed) add(at, v float64) {
	i := window(at)
	w[i] = append(w[i], v)
}

func (w *windowed) merge(o *windowed) {
	for i := range w {
		w[i] = append(w[i], o[i]...)
	}
}

// all returns every sample.
func (w *windowed) all() []float64 {
	var xs []float64
	for _, s := range w {
		xs = append(xs, s...)
	}
	return xs
}

// p50 returns the median over the windows of each window's median.
func (w *windowed) p50() float64 {
	var meds []float64
	for _, s := range w {
		if len(s) > 0 {
			meds = append(meds, median(s))
		}
	}
	return median(meds)
}

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
