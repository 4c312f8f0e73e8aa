package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/delay"
	"repro/internal/dist"
	"repro/internal/montecarlo"
	"repro/internal/netlist"
	"repro/internal/nlp"
	"repro/internal/sizing"
	"repro/internal/ssta"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// The paper-k2 workload is the paper's Table 1 on k2-shaped circuits:
// the unsized baseline, min mu+k*sigma for k = 0, 1, 3, and min area
// under mu+k*sigma <= D for the same k, with bench.RunTable1's solver
// options and midpoint deadline rule, followed by a Monte Carlo yield
// check of each deadline row at D. Everything runs serially
// (Workers: 1): the parallel sweeps made back-to-back Table 1 timings
// differ by 20% on a 2-CPU host and ran slower than serial ones.
//
// One block is that whole sequence on one circuit. A run has two
// circuits: k2-like itself, checked against the reference rows on every
// run, and a k2-shaped circuit generated from the seed. It solves their
// blocks in turn, in whole rounds, until --seconds have passed, so the
// mix of circuits is the same however fast the host runs. Keeping the
// paper's circuit in every run halves how much the run-to-run spread of
// the CPU time per row depends on the circuit a seed draws.

const (
	// circuits is how many circuits an untraced run solves.
	circuits = 2
	// mcSamples is the Monte Carlo sample count per deadline row; the
	// binomial error of a yield is then at most 0.5%.
	mcSamples = 10000
	// setupReps is how often the set-up is repeated to report its
	// median.
	setupReps = 21
	// tolCon is the solver's constraint tolerance; deadline rows must
	// meet D within it.
	tolCon = 1e-5
)

// table1Solver returns bench.RunTable1's solver options.
func table1Solver() nlp.Options {
	return nlp.Options{TolGrad: 1e-5, TolCon: tolCon, MaxInner: 1500}
}

// k2Spec is netlist.K2Like's generator spec under another seed. The
// smoke test uses the apex2 shape instead (117 gates).
func k2Spec(seed int64, smoke bool) netlist.GenSpec {
	if smoke {
		return netlist.GenSpec{Name: "apex2-like", Gates: 117, Inputs: 39, Outputs: 3, Depth: 10, MaxFanin: 4, Seed: seed}
	}
	return netlist.GenSpec{Name: "k2-like", Gates: 1692, Inputs: 45, Outputs: 45, Depth: 22, MaxFanin: 4, Seed: seed}
}

// derivedSeed gives the i-th input of a run its own generator seed;
// i = 0 keeps the run seed.
func derivedSeed(seed int64, i int) int64 { return seed + int64(i)*1000003 }

// circuitCase is one generated circuit bound to the default library.
type circuitCase struct {
	seed   int64 // generator seed of the circuit
	mcSeed int64 // seed of the Monte Carlo checks
	circ   *netlist.Circuit
	m      *delay.Model
}

// buildCase generates, compiles and binds one circuit and returns the
// compile and bind times.
func buildCase(spec netlist.GenSpec) (circuitCase, time.Duration, time.Duration, error) {
	c, err := netlist.Generate(spec)
	if err != nil {
		return circuitCase{}, 0, 0, err
	}
	t0 := time.Now()
	g, err := netlist.Compile(c)
	compile := time.Since(t0)
	if err != nil {
		return circuitCase{}, 0, 0, err
	}
	t0 = time.Now()
	m, err := delay.Bind(g, delay.Default())
	bind := time.Since(t0)
	if err != nil {
		return circuitCase{}, 0, 0, err
	}
	return circuitCase{seed: spec.Seed, circ: c, m: m}, compile, bind, nil
}

// row is one Table 1 formulation's outcome.
type row struct {
	label    string
	k        float64
	deadline float64 // > 0 for min area under mu+k*sigma <= deadline
	out      *sizing.Outcome
	yield    float64 // Monte Carlo yield at the deadline
	allocMB  float64 // bytes allocated by the solve (traced runs only)
}

// block is one Table 1 run on one circuit.
type block struct {
	c        circuitCase
	unit     stats.MV
	deadline float64
	rows     []row
	wall     time.Duration
	// cpu is the process CPU time (user and system) the block took.
	cpu time.Duration
}

// solveBlock runs the Table 1 sequence and the yield checks on one
// circuit. rec, when non-nil, receives the solver telemetry.
func solveBlock(c circuitCase, rec telemetry.Recorder, st *telemetry.Stack, samples int) (*block, error) {
	b := &block{c: c}
	t0, cpu0 := time.Now(), cpuTime()
	st.Push("block")
	defer st.Pop()
	st.Push("ssta.Analyze")
	b.unit = ssta.Analyze(c.m, c.m.UnitSizes(), false).Tmax
	st.Pop()

	solve := func(label string, k, deadline float64, spec sizing.Spec) error {
		spec.Solver = table1Solver()
		spec.Workers = 1
		spec.Recorder = rec
		var before runtime.MemStats
		if rec != nil {
			runtime.ReadMemStats(&before)
		}
		st.Push("sizing.Size")
		out, err := sizing.Size(c.m, spec)
		st.Pop()
		if err != nil {
			return fmt.Errorf("%s: %w", label, err)
		}
		rw := row{label: label, k: k, deadline: deadline, out: out}
		if rec != nil {
			var after runtime.MemStats
			runtime.ReadMemStats(&after)
			rw.allocMB = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
		}
		if deadline > 0 {
			st.Push("montecarlo.Run")
			mc, err := montecarlo.Run(c.m, out.S, montecarlo.Options{
				Samples: samples, Seed: c.mcSeed, KeepSamples: true, Workers: 1, Recorder: rec,
			})
			st.Pop()
			if err != nil {
				return fmt.Errorf("%s: monte carlo: %w", label, err)
			}
			rw.yield = mc.Yield(deadline)
		}
		b.rows = append(b.rows, rw)
		return nil
	}

	var best3 float64
	for _, k := range []float64{0, 1, 3} {
		obj := sizing.MinMuPlusKSigma(k)
		if err := solve(obj.String(), k, 0, sizing.Spec{Objective: obj}); err != nil {
			return nil, err
		}
		if k == 3 {
			out := b.rows[len(b.rows)-1].out
			best3 = out.MuTmax + 3*out.SigmaTmax
		}
	}
	// bench.RunTable1's deadline: the midpoint between the best
	// mu+3sigma and the unsized mean, rounded to one decimal.
	b.deadline = math.Round(5*(best3+b.unit.Mu)) / 10
	for _, k := range []float64{0, 1, 3} {
		con := sizing.DelayLE(k, b.deadline)
		spec := sizing.Spec{Objective: sizing.MinArea(), Constraints: []sizing.Constraint{con}}
		if err := solve("min area s.t. "+con.String(), k, b.deadline, spec); err != nil {
			return nil, err
		}
	}
	b.wall, b.cpu = time.Since(t0), cpuTime()-cpu0
	return b, nil
}

// statusRank orders solver statuses for the reference check: a row may
// end equal or better than its reference.
func statusRank(s string) int {
	switch s {
	case nlp.Converged.String():
		return 0
	case nlp.Stalled.String(), nlp.MaxIterations.String():
		return 1
	default:
		return 2
	}
}

// reference holds the default seed's first-block rows. The tolerances
// are part of the file and were fixed before any change was measured
// against it.
type reference struct {
	Seed      int64 `json:"seed"`
	Tolerance struct {
		MuRel    float64 `json:"mu_rel"`
		SigmaRel float64 `json:"sigma_rel"`
		SumSRel  float64 `json:"sum_s_rel"`
	} `json:"tolerance"`
	Rows []refRow `json:"rows"`
}

type refRow struct {
	Row    string  `json:"row"`
	Mu     float64 `json:"mu"`
	Sigma  float64 `json:"sigma"`
	SumS   float64 `json:"sum_s"`
	Status string  `json:"status"`
}

//go:embed reference_k2.json
var referenceJSON []byte

func loadReference() (*reference, error) {
	var ref reference
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return nil, fmt.Errorf("reference_k2.json: %w", err)
	}
	return &ref, nil
}

// checkBlock verifies one block's outputs and returns how many rows
// failed a check: sizes within [1, limit], deadline rows feasible
// within the solver's constraint tolerance, reported moments equal to
// a fresh serial analysis, no failed solve, and, when ref is given, the
// reference rows.
func checkBlock(r *run, b *block, ref *reference) (failedRows int) {
	m := b.c.m
	for i, rw := range b.rows {
		rowBad := false
		bad := func(format string, args ...any) {
			if !rowBad {
				failedRows++
			}
			rowBad = true
			r.fail("seed %d %s: %s", b.c.seed, rw.label, fmt.Sprintf(format, args...))
		}
		out := rw.out
		switch out.Solver.Status {
		case nlp.Converged, nlp.Stalled, nlp.MaxIterations:
		default:
			bad("solver ended %v", out.Solver.Status)
		}
		if out.Fallback {
			bad("greedy fallback sizing")
		}
		for _, id := range m.G.C.GateIDs() {
			if s := out.S[id]; !(s >= 1 && s <= m.Limit) {
				bad("gate %s size %v outside [1, %v]", m.G.C.Nodes[id].Name, s, m.Limit)
				break
			}
		}
		if rw.deadline > 0 {
			if v := out.MuTmax + rw.k*out.SigmaTmax - rw.deadline; !(v <= tolCon) {
				bad("deadline %v missed by %.3g", rw.deadline, v)
			}
			if !(rw.yield >= 0 && rw.yield <= 1) {
				bad("monte carlo yield %v", rw.yield)
			}
		}
		if a := ssta.Analyze(m, out.S, false).Tmax; a.Mu != out.MuTmax || a.Sigma() != out.SigmaTmax {
			bad("reported (%v, %v) but a fresh analysis gives (%v, %v)", out.MuTmax, out.SigmaTmax, a.Mu, a.Sigma())
		}
		if ref == nil {
			continue
		}
		if i >= len(ref.Rows) || ref.Rows[i].Row != rw.label {
			bad("no reference row")
			continue
		}
		want := ref.Rows[i]
		relOK := func(got, want, tol float64) bool { return math.Abs(got-want) <= tol*math.Abs(want) }
		if !relOK(out.MuTmax, want.Mu, ref.Tolerance.MuRel) || !relOK(out.SigmaTmax, want.Sigma, ref.Tolerance.SigmaRel) ||
			!relOK(out.SumS, want.SumS, ref.Tolerance.SumSRel) {
			bad("(mu, sigma, sum S) = (%.4f, %.4f, %.2f), reference (%.4f, %.4f, %.2f)",
				out.MuTmax, out.SigmaTmax, out.SumS, want.Mu, want.Sigma, want.SumS)
		}
		if statusRank(out.Solver.Status.String()) > statusRank(want.Status) {
			bad("status %v is worse than the reference's %s", out.Solver.Status, want.Status)
		}
	}
	return failedRows
}

// runPaperK2 drives the paper-k2 workload.
func runPaperK2(r *run) error {
	cfg := r.cfg
	nCircuits := circuits
	if cfg.trace {
		// The traced run solves k2-like twice instead: untraced, then
		// traced, which also gives the tracing overhead.
		nCircuits = 1
	}
	samples := mcSamples
	if cfg.smoke {
		samples = 2000
	}

	// Set-up: generate, compile and bind every circuit of the run.
	var (
		cases           []circuitCase
		setups          []float64
		compiles, binds []float64
	)
	for rep := 0; rep < setupReps; rep++ {
		t0 := time.Now()
		cases = cases[:0]
		for i := 0; i < nCircuits; i++ {
			seed := int64(defaultSeed)
			if i > 0 {
				seed = derivedSeed(cfg.seed, i)
			}
			c, compile, bind, err := buildCase(k2Spec(seed, cfg.smoke))
			if err != nil {
				return err
			}
			c.mcSeed = derivedSeed(cfg.seed, i)
			cases = append(cases, c)
			compiles = append(compiles, ms(compile))
			binds = append(binds, ms(bind))
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	r.set("setup_s", median(setups))

	var ref *reference
	if !cfg.smoke {
		var err error
		if ref, err = loadReference(); err != nil {
			return err
		}
		// Block 0 must be the repository's k2-like.
		var got, want strings.Builder
		if err := netlist.WriteCKT(&got, cases[0].circ); err != nil {
			return err
		}
		if err := netlist.WriteCKT(&want, netlist.K2Like()); err != nil {
			return err
		}
		if got.String() != want.String() {
			r.fail("k2-like's generator spec does not reproduce netlist.K2Like")
		}
	}

	rows := r.newPhase("paper-k2/rows")
	mcs := r.newPhase("paper-k2/monte-carlo")
	var blocks []*block
	account := func(b *block) {
		var blockRef *reference
		if b.c.seed == defaultSeed {
			blockRef = ref
		}
		bad := checkBlock(r, b, blockRef)
		rows.sent += len(b.rows)
		rows.failed += bad
		rows.ok += len(b.rows) - bad
		r.attempted += len(b.rows)
		r.failed += bad
		for _, rw := range b.rows {
			if rw.deadline > 0 {
				mcs.sent++
				mcs.ok++
			}
			r.logf("row seed %-8d %-34s mu %9.4f  sigma %7.4f  sumS %9.2f  %-10v kkt %.3g  outer %3d inner %5d  %8.3fs  yield %s",
				b.c.seed, rw.label, rw.out.MuTmax, rw.out.SigmaTmax, rw.out.SumS, rw.out.Solver.Status,
				rw.out.Solver.ProjGradNorm, rw.out.Solver.Outer, rw.out.Solver.Inner, rw.out.Runtime.Seconds(), yieldText(rw))
		}
		r.logf("block seed %d: %d gates, unsized mu %.4f, deadline %.1f, cpu %.3f s, wall %.3f s",
			b.c.seed, b.c.circ.NumGates(), b.unit.Mu, b.deadline, b.cpu.Seconds(), b.wall.Seconds())
	}

	if !cfg.trace {
		r.startMeasure()
		start := time.Now()
		for len(blocks) == 0 || time.Since(start).Seconds() < cfg.seconds {
			for _, c := range cases {
				b, err := solveBlock(c, nil, nil, samples)
				if err != nil {
					r.endMeasure()
					return err
				}
				blocks = append(blocks, b)
			}
		}
		r.endMeasure()
		for _, b := range blocks {
			account(b)
		}
		setBlocks(r, blocks)
		setQuality(r, blocks)
		return nil
	}

	// Traced run: block 0 untraced, then again with the solver
	// telemetry, the benchmark's spans and a CPU profile attached.
	r.startMeasure()
	untraced, err := solveBlock(cases[0], nil, nil, samples)
	r.endMeasure()
	if err != nil {
		return err
	}
	blocks = append(blocks, untraced)
	account(untraced)
	setBlocks(r, blocks)

	rec := telemetry.NewMetrics()
	spans := telemetry.NewMetrics()
	prof, err := startProfile()
	if err != nil {
		return err
	}
	traced, err := solveBlock(cases[0], rec, newStack(spans), samples)
	shares, perr := prof.stop()
	if err != nil {
		return err
	}
	if perr != nil {
		return perr
	}
	blocks = append(blocks, traced)
	account(traced)
	reportSpans(r, spans)
	setQuality(r, blocks)
	r.set("netlist.compile_ms", median(compiles))
	r.set("delay.bind_ms", median(binds))
	r.set("trace_overhead_pct", 100*(traced.cpu.Seconds()/untraced.cpu.Seconds()-1))
	setCPUShares(r, shares)

	var outer, inner int
	var solve time.Duration
	var alloc float64
	for _, rw := range traced.rows {
		outer += rw.out.Solver.Outer
		inner += rw.out.Solver.Inner
		solve += rw.out.Runtime
		alloc += rw.allocMB
	}
	sol := readSolverTelemetry(rec).since(solverTelemetry{})
	sol.set(r, outer, inner)
	r.set("stats.max2_calls", float64(sol.fwd)*float64(mergesPerSweep(cases[0].m)))
	r.set("nlp.alloc_mb", alloc)
	r.set("sizing.solve_s", solve.Seconds())
	mc := spanNode(spans, "block/montecarlo.Run")
	if mc == nil {
		return fmt.Errorf("traced block ran no Monte Carlo check")
	}
	r.set("montecarlo.run_s", mc.Cum().Seconds())
	r.set("montecarlo.samples_per_s", float64(mc.Count()*int64(samples))/mc.Cum().Seconds())
	return nil
}

// setBlocks reports the end-to-end metrics of untraced blocks. An
// operation of paper-k2 is one row of Table 1, so cpu_ms_per_op is a
// block's CPU time (its solves, final analyses and Monte Carlo checks,
// and the unsized baseline) over its rows, and on_target_pct the share
// of the rows whose solve converged.
func setBlocks(r *run, blocks []*block) {
	var cpu time.Duration
	var rows, converged int
	for _, b := range blocks {
		cpu += b.cpu
		for _, rw := range b.rows {
			rows++
			if rw.out.Solver.Status == nlp.Converged {
				converged++
			}
		}
	}
	r.set("cpu_ms_per_op", ms(cpu)/float64(rows))
	r.set("on_target_pct", 100*float64(converged)/float64(rows))
	r.set("rows_converged", float64(converged)/float64(len(blocks)))
}

// solverTelemetry holds the solver's counters and span totals as read
// from its recorder at one moment.
type solverTelemetry struct {
	fwd, adj, merit, grad             int64
	fwdT, adjT, innerT, meritT, gradT time.Duration
}

func readSolverTelemetry(rec *telemetry.Metrics) solverTelemetry {
	t := solverTelemetry{
		fwd:   rec.CounterValue("ssta.forward_sweeps"),
		adj:   rec.CounterValue("ssta.adjoint_sweeps"),
		merit: rec.CounterValue("engine.merit_evals"),
		grad:  rec.CounterValue("engine.grad_evals"),
	}
	_, t.fwdT = rec.SpanValue("ssta.forward")
	_, t.adjT = rec.SpanValue("ssta.adjoint")
	_, t.innerT = rec.SpanValue("nlp.inner")
	_, t.meritT = rec.SpanValue("engine.dispatch.merit")
	_, t.gradT = rec.SpanValue("engine.dispatch.grad")
	return t
}

// since returns what the recorder gathered after t0.
func (t solverTelemetry) since(t0 solverTelemetry) solverTelemetry {
	return solverTelemetry{
		fwd: t.fwd - t0.fwd, adj: t.adj - t0.adj, merit: t.merit - t0.merit, grad: t.grad - t0.grad,
		fwdT: t.fwdT - t0.fwdT, adjT: t.adjT - t0.adjT, innerT: t.innerT - t0.innerT,
		meritT: t.meritT - t0.meritT, gradT: t.gradT - t0.gradT,
	}
}

// set reports the ssta and nlp metrics of solves that made outer and
// inner iterations and gathered t.
func (t solverTelemetry) set(r *run, outer, inner int) {
	r.set("ssta.forward_sweeps", float64(t.fwd))
	r.set("ssta.adjoint_sweeps", float64(t.adj))
	r.set("ssta.forward_s", t.fwdT.Seconds())
	r.set("ssta.adjoint_s", t.adjT.Seconds())
	r.set("ssta.forward_per_inner", float64(t.fwd)/float64(inner))
	r.set("nlp.outer_iters", float64(outer))
	r.set("nlp.inner_iters", float64(inner))
	r.set("nlp.merit_evals", float64(t.merit))
	r.set("nlp.grad_evals", float64(t.grad))
	r.set("nlp.accept_ratio", float64(inner)/float64(t.merit))
	r.set("nlp.merit_s", t.meritT.Seconds())
	r.set("nlp.grad_s", t.gradT.Seconds())
	// Inner time spent outside the element engine: direction, step and
	// bookkeeping of the inner solver.
	r.set("nlp.step_s", (t.innerT - t.meritT - t.gradT).Seconds())
}

// setQuality reports the solution-quality metrics over the blocks: the
// worst final KKT residual, and the largest gap between the Monte Carlo
// yield at a deadline row's D and the yield Phi(k) the independence
// assumption of the statistical model predicts.
func setQuality(r *run, blocks []*block) {
	var kkt, yerr float64
	for _, b := range blocks {
		for _, rw := range b.rows {
			kkt = math.Max(kkt, rw.out.Solver.ProjGradNorm)
			if rw.deadline > 0 {
				yerr = math.Max(yerr, 100*math.Abs(rw.yield-dist.CDF(rw.k)))
			}
		}
	}
	r.set("kkt_max", kkt)
	r.set("yield_err_pct", yerr)
}

func yieldText(rw row) string {
	if rw.deadline == 0 {
		return "-"
	}
	return fmt.Sprintf("%.3f%% (Phi(k) %.3f%%)", 100*rw.yield, 100*dist.CDF(rw.k))
}

// mergesPerSweep counts the two-operand stochastic maxima of one
// forward sweep: fanin-1 per gate plus outputs-1 for the circuit delay.
func mergesPerSweep(m *delay.Model) int {
	c := m.G.C
	n := len(c.Outputs) - 1
	for _, id := range c.GateIDs() {
		n += len(c.Nodes[id].Fanin) - 1
	}
	return n
}

// setCPUShares reports the CPU profile shares of the named layers.
func setCPUShares(r *run, shares map[string]float64) {
	for _, layer := range []string{"stats", "gc", "checkpoint", "http_json"} {
		r.set("cpu."+layer, shares[layer])
	}
	names := make([]string, 0, len(shares))
	for n := range shares {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return shares[names[i]] > shares[names[j]] })
	var parts []string
	for _, n := range names {
		parts = append(parts, fmt.Sprintf("%s %.1f%%", n, 100*shares[n]))
	}
	r.logf("cpu profile: %s", strings.Join(parts, ", "))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
