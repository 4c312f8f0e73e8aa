package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/delay"
	"repro/internal/netlist"
	"repro/internal/service"
	"repro/internal/ssta"
	"repro/internal/telemetry"
)

// The sessions-k2 workload models interactive users of the daemon's
// warm what-if sessions: two closed-loop clients, each waiting on its
// reply, work over a roster of sessions on k2-shaped netlists sent
// inline. The roster holds more engines than the session byte budget,
// and each operation picks its session by a skewed (Zipf) popularity,
// so the least popular sessions are evicted and rebuilt, which shows
// in the tail. The operations are a seeded mix of size nudges (PATCH),
// what-if trials (POST) and timing reads (GET top=20). The warm
// ssta.Inc engine and the service's HTTP/JSON layer carry the work;
// the NLP solver is not involved.
//
// No real session traffic exists to copy, so the mix, the skew and the
// roster below are assumptions. Each constant is chosen for the
// property its comment states, not measured from users.

const (
	// rosterSize is a dozen designs open at once, and warmEngines how
	// many of their engines fit the session byte budget: two fewer,
	// so only the least popular sessions are ever evicted.
	rosterSize  = 12
	warmEngines = 10
	// zipfS skews session popularity so that about one operation in
	// 25 finds its session evicted and rebuilds it: 4.6% in a
	// simulation of the LRU, 4% measured. Below 5%, every operation's
	// p50 and p95 are warm; with thousands of rebuilds in a run, the
	// rebuilds set the p99 and the tail. s = 1.2 gives 6% and s = 1.6
	// gives 3%.
	zipfS = 1.4
	// nudgeShare and whatIfShare split the operations: half are size
	// nudges, the writes whose cost the warm engine exists to cut,
	// and the rest split evenly between what-if trials and timing
	// reads, so every operation has thousands of samples in each
	// window of a run.
	nudgeShare  = 0.5
	whatIfShare = 0.25
	// maxNudgeGates and maxWhatIfGates bound the gates one operation
	// touches (drawn uniformly from 1): a user commits a few gates of
	// a path at a time and tries out up to twice as many first.
	maxNudgeGates  = 8
	maxWhatIfGates = 16
	// sessionLimit is the latency limit of on_target_pct: 100 ms, the
	// response time an interactive user perceives as instantaneous.
	sessionLimit = 100 * time.Millisecond
	// sessionK is the risk factor of the timing reads.
	sessionK = 3
	// directOps and replayOps size the traced run's direct-call and
	// bare-engine phases.
	directOps = 3000
	replayOps = 3000
)

// opKind is one session operation.
type opKind int

const (
	opNudge opKind = iota
	opWhatIf
	opTiming
	numOps
)

var opNames = [numOps]string{"nudge", "whatif", "timing"}

// sessionInput is one roster entry: its inline netlist and the model
// the checks and replays use.
type sessionInput struct {
	id    string
	text  string
	gates []string // gate names in netlist.Circuit.GateIDs order
	ids   []netlist.NodeID
	m     *delay.Model
}

// op is one generated session operation.
type op struct {
	kind  opKind
	sess  int
	sizes map[string]float64
	pos   []int // gate positions of sizes, for the bare-engine replay
}

// opGen draws one client's seeded operation stream. Client c only
// touches the gates at positions congruent to c mod 2, so each gate has
// one writer and the final sizes are known exactly.
type opGen struct {
	rng    *rand.Rand
	zipf   *rand.Zipf
	client int
	roster []*sessionInput
}

func newOpGen(seed int64, client int, roster []*sessionInput) *opGen {
	rng := rand.New(rand.NewSource(seed*31 + int64(client)))
	return &opGen{
		rng:    rng,
		zipf:   rand.NewZipf(rng, zipfS, 1, uint64(len(roster)-1)),
		client: client,
		roster: roster,
	}
}

func (g *opGen) next() op {
	o := op{sess: int(g.zipf.Uint64())}
	u := g.rng.Float64()
	n := 0
	switch {
	case u < nudgeShare:
		o.kind, n = opNudge, 1+g.rng.Intn(maxNudgeGates)
	case u < nudgeShare+whatIfShare:
		o.kind, n = opWhatIf, 1+g.rng.Intn(maxWhatIfGates)
	default:
		return op{kind: opTiming, sess: o.sess}
	}
	in := g.roster[o.sess]
	half := (len(in.gates) - g.client + 1) / 2
	o.sizes = make(map[string]float64, n)
	for i := 0; i < n; i++ {
		pos := 2*g.rng.Intn(half) + g.client
		if _, dup := o.sizes[in.gates[pos]]; dup {
			continue
		}
		o.sizes[in.gates[pos]] = 1 + 2*g.rng.Float64()
		o.pos = append(o.pos, pos)
	}
	return o
}

// sizesBody is the PATCH /sizes and POST /whatif payload.
type sizesBody struct {
	Sizes map[string]float64 `json:"sizes"`
}

// sessionStats is one client's measurements.
type sessionStats struct {
	lat       [numOps]windowed // milliseconds, successful operations
	okAt      [windows]int     // successful operations by start window
	rebuiltMS []float64
	ops       int
	ok        int
	failed    int
	refused   int
	// final holds the sizes this client's successful nudges left, per
	// session and gate name.
	final []map[string]float64
}

func newSessionStats(n int) *sessionStats {
	st := &sessionStats{final: make([]map[string]float64, n)}
	for i := range st.final {
		st.final[i] = map[string]float64{}
	}
	return st
}

func (st *sessionStats) merge(o *sessionStats) {
	for k := range st.lat {
		st.lat[k].merge(&o.lat[k])
	}
	for i, n := range o.okAt {
		st.okAt[i] += n
	}
	st.rebuiltMS = append(st.rebuiltMS, o.rebuiltMS...)
	st.ops += o.ops
	st.ok += o.ok
	st.failed += o.failed
	st.refused += o.refused
	for i, m := range o.final {
		for g, v := range m {
			st.final[i][g] = v
		}
	}
}

// buildRoster generates the roster's netlists and models.
func buildRoster(seed int64, smoke bool) ([]*sessionInput, error) {
	var roster []*sessionInput
	for i := 0; i < rosterSize; i++ {
		c, err := netlist.Generate(k2Spec(derivedSeed(seed, 100+i), smoke))
		if err != nil {
			return nil, err
		}
		var sb strings.Builder
		if err := netlist.WriteCKT(&sb, c); err != nil {
			return nil, err
		}
		in := &sessionInput{id: fmt.Sprintf("s%02d", i), text: sb.String()}
		pc, err := netlist.ReadCKT(strings.NewReader(in.text))
		if err != nil {
			return nil, err
		}
		if in.m, err = delay.Bind(netlist.MustCompile(pc), delay.Default()); err != nil {
			return nil, err
		}
		in.ids = pc.GateIDs()
		for _, id := range in.ids {
			in.gates = append(in.gates, pc.Nodes[id].Name)
		}
		roster = append(roster, in)
	}
	return roster, nil
}

// startSessions starts a daemon whose session byte budget holds
// warmEngines of the roster's engines and creates the roster over HTTP.
func startSessions(r *run, name string, roster []*sessionInput) (*daemon, error) {
	engine := ssta.NewInc(roster[0].m, roster[0].m.UnitSizes(), ssta.IncOptions{Workers: 1}).MemoryBytes()
	d, err := startDaemon(r.cfg.stateRoot, name, service.Options{
		SessionBytes: warmEngines*engine + engine/2,
		MaxSessions:  2 * rosterSize,
	})
	if err != nil {
		return nil, err
	}
	c := newClient(d.base)
	defer c.close()
	for _, in := range roster {
		spec := service.SessionSpec{ID: in.id, Netlist: in.text, Format: "ckt", K: sessionK, Workers: 1}
		var st service.SessionStatus
		if code, err := c.do(http.MethodPost, "/v1/sessions", spec, &st); err != nil || code != http.StatusCreated {
			d.stop()
			return nil, fmt.Errorf("create session %s: HTTP %d, %v", in.id, code, err)
		}
	}
	return d, nil
}

// sessionLoop runs one closed-loop client from start for dur.
func sessionLoop(c *client, gen *opGen, start time.Time, dur time.Duration, stack *telemetry.Stack) *sessionStats {
	st := newSessionStats(len(gen.roster))
	for time.Since(start) < dur {
		o := gen.next()
		in := gen.roster[o.sess]
		path := "/v1/sessions/" + in.id
		var (
			code    int
			err     error
			rebuilt bool
		)
		stack.Push("http." + opNames[o.kind])
		t0 := time.Now()
		switch o.kind {
		case opNudge:
			var rep service.NudgeReply
			code, err = c.do(http.MethodPatch, path+"/sizes", sizesBody{o.sizes}, &rep)
			rebuilt = rep.Rebuilt
		case opWhatIf:
			var rep service.WhatIfReply
			code, err = c.do(http.MethodPost, path+"/whatif", sizesBody{o.sizes}, &rep)
			rebuilt = rep.Rebuilt
		case opTiming:
			var rep service.TimingReply
			code, err = c.do(http.MethodGet, fmt.Sprintf("%s/timing?top=20&k=%d", path, sessionK), nil, &rep)
			rebuilt = rep.Rebuilt
		}
		d := ms(time.Since(t0))
		stack.Pop()
		at := float64(t0.Sub(start)) / float64(dur)
		st.ops++
		switch {
		case err == nil && code == http.StatusOK:
			st.ok++
			st.okAt[window(at)]++
			st.lat[o.kind].add(at, d)
			if rebuilt {
				st.rebuiltMS = append(st.rebuiltMS, d)
			}
			if o.kind == opNudge {
				for g, v := range o.sizes {
					st.final[o.sess][g] = v
				}
			}
		case err == nil && refusal(code):
			st.refused++
		default:
			st.failed++
		}
	}
	return st
}

// sessionPhase runs both clients for the given time and merges their
// measurements. phaseSeed selects the operation streams; spans, when
// non-nil, receives each client's spans.
func sessionPhase(d *daemon, roster []*sessionInput, phaseSeed int64, dur time.Duration, spans *telemetry.Metrics) (*sessionStats, time.Duration) {
	const clients = 2
	start := time.Now()
	stats := make([]*sessionStats, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := newClient(d.base)
			defer c.close()
			stats[i] = sessionLoop(c, newOpGen(phaseSeed, i, roster), start, dur, newStack(spans))
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	all := newSessionStats(len(roster))
	for i := range stats {
		all.merge(stats[i])
	}
	return all, elapsed
}

// checkSessions compares each session's final timing view with a fresh
// serial analysis at the sizes the clients' nudges left. It returns the
// number of sessions that failed.
func checkSessions(r *run, d *daemon, roster []*sessionInput, final []map[string]float64) int {
	c := newClient(d.base)
	defer c.close()
	bad := 0
	for i, in := range roster {
		var rep service.TimingReply
		code, err := c.do(http.MethodGet, fmt.Sprintf("/v1/sessions/%s/timing?top=0&k=%d", in.id, sessionK), nil, &rep)
		if err != nil || code != http.StatusOK {
			r.fail("session %s: final timing read: HTTP %d, %v", in.id, code, err)
			bad++
			continue
		}
		S := in.m.UnitSizes()
		for j, id := range in.ids {
			if v, ok := final[i][in.gates[j]]; ok {
				S[id] = v
			}
		}
		got := map[string]float64{}
		for _, g := range rep.Critical {
			got[g.Gate] = g.Size
		}
		mismatch := len(got) != len(in.ids)
		for j, id := range in.ids {
			if got[in.gates[j]] != S[id] {
				mismatch = true
			}
		}
		want := ssta.Analyze(in.m, S, false).Tmax
		switch {
		case mismatch:
			r.fail("session %s: sizes differ from the nudges the clients sent", in.id)
			bad++
		case rep.Mu != want.Mu || rep.Sigma != want.Sigma():
			r.fail("session %s: Tmax (%v, %v), fresh analysis (%v, %v)", in.id, rep.Mu, rep.Sigma, want.Mu, want.Sigma())
			bad++
		}
	}
	return bad
}

// runSessions drives the sessions-k2 workload.
func runSessions(r *run) error {
	cfg := r.cfg
	const setups = 11
	var (
		roster []*sessionInput
		setupS []float64
		d      *daemon
	)
	for rep := 0; rep < setups; rep++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return err
			}
		}
		t0 := time.Now()
		var err error
		roster, err = buildRoster(cfg.seed, cfg.smoke)
		if err != nil {
			return err
		}
		if d, err = startSessions(r, fmt.Sprintf("sessions-%d", rep), roster); err != nil {
			return err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer d.stop()
	r.set("setup_s", median(setupS))

	dur := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		dur /= 2
	}
	final := newSessionStats(len(roster))
	r.startMeasure()
	cpu0 := cpuTime()
	st, elapsed := sessionPhase(d, roster, cfg.seed, dur, nil)
	cpu := cpuTime() - cpu0
	r.endMeasure()
	accountSessions(r, "sessions-k2/http", st, final)
	nudges := sorted(st.lat[opNudge].all())
	tp, tv := tail(nudges)
	r.logf("nudge tail is p%g of %d nudges; %d whatifs, %d timing reads; %.0f operations/s over the whole run",
		tp, len(nudges), len(st.lat[opWhatIf].all()), len(st.lat[opTiming].all()), float64(st.ok)/elapsed.Seconds())
	r.logf("rebuilds %d of %d operations", len(st.rebuiltMS), st.ok)
	// An operation of sessions-k2 is one session request; its CPU time
	// covers the daemon and the two clients, and it is on target when
	// it succeeds within sessionLimit.
	onTime := 0
	for k := range st.lat {
		for _, v := range st.lat[k].all() {
			if v <= ms(sessionLimit) {
				onTime++
			}
		}
	}
	r.set("cpu_ms_per_op", ms(cpu)/float64(st.ok))
	r.set("on_target_pct", 100*float64(onTime)/float64(st.ops))
	r.set("nudge_p50_ms", st.lat[opNudge].p50())
	r.set("nudge_tail_ms", tv)
	r.set("whatif_p50_ms", st.lat[opWhatIf].p50())
	r.set("timing_p50_ms", st.lat[opTiming].p50())
	// Operations per second: the median over the windows.
	var rates []float64
	for _, n := range st.okAt {
		rates = append(rates, float64(n)/(dur.Seconds()/windows))
	}
	r.set("session_ops_per_s", median(rates))
	if cfg.trace {
		if err := tracedSessions(r, d, roster, st, final); err != nil {
			return err
		}
	}

	bad := checkSessions(r, d, roster, final.final)
	p := r.newPhase("sessions-k2/final-check")
	p.sent, p.ok, p.failed = len(roster), len(roster)-bad, bad
	r.attempted += len(roster)
	r.failed += bad
	return nil
}

// accountSessions records one HTTP phase's operations and folds its
// final sizes into final.
func accountSessions(r *run, name string, st, final *sessionStats) {
	p := r.newPhase(name)
	p.sent, p.ok, p.failed, p.refused = st.ops, st.ok, st.failed, st.refused
	r.attempted += st.ops
	r.failed += st.failed + st.refused
	final.merge(st)
}

// tracedSessions runs the traced half, the direct-call phase and the
// bare-engine replay, and reports the per-layer metrics. untraced holds
// the untraced half's measurements.
func tracedSessions(r *run, d *daemon, roster []*sessionInput, untraced, final *sessionStats) error {
	cfg := r.cfg
	dur := time.Duration(cfg.seconds * float64(time.Second) / 2)
	spans := telemetry.NewMetrics()
	prof, err := startProfile()
	if err != nil {
		return err
	}
	traced, _ := sessionPhase(d, roster, derivedSeed(cfg.seed, 1), dur, spans)
	stack := newStack(spans)
	shares, err := prof.stop()
	if err != nil {
		return err
	}
	accountSessions(r, "sessions-k2/http-traced", traced, final)
	setCPUShares(r, shares)
	allOps := func(st *sessionStats) []float64 {
		var xs []float64
		for _, l := range st.lat {
			xs = append(xs, l.all()...)
		}
		return xs
	}
	r.set("trace_overhead_pct", 100*(median(allOps(traced))/median(allOps(untraced))-1))
	r.set("service.session_hit_ratio", 1-float64(len(untraced.rebuiltMS))/float64(untraced.ok))
	r.set("service.rebuild_ms", median(untraced.rebuiltMS))

	// Direct calls into the server, bypassing HTTP and JSON.
	gens := []*opGen{newOpGen(derivedSeed(cfg.seed, 2), 0, roster), newOpGen(derivedSeed(cfg.seed, 2), 1, roster)}
	var direct [numOps][]float64
	dp := r.newPhase("sessions-k2/direct")
	for i := 0; i < directOps; i++ {
		gen := gens[i%2]
		o := gen.next()
		id := roster[o.sess].id
		stack.Push("service." + opNames[o.kind])
		t0 := time.Now()
		var err error
		switch o.kind {
		case opNudge:
			_, err = d.srv.SessionNudge(id, o.sizes)
		case opWhatIf:
			_, err = d.srv.SessionWhatIf(id, o.sizes)
		case opTiming:
			_, err = d.srv.SessionTiming(id, sessionK, 20)
		}
		us := float64(time.Since(t0)) / float64(time.Microsecond)
		stack.Pop()
		dp.sent++
		r.attempted++
		if err != nil {
			dp.failed++
			r.failed++
			r.fail("direct %s on %s: %v", opNames[o.kind], id, err)
			continue
		}
		dp.ok++
		direct[o.kind] = append(direct[o.kind], us)
		if o.kind == opNudge {
			for g, v := range o.sizes {
				final.final[o.sess][g] = v
			}
		}
	}
	for k := opNudge; k < numOps; k++ {
		call := median(direct[k])
		r.set("service."+opNames[k]+"_call_us", call)
		r.set("http."+opNames[k]+"_overhead_us", 1000*median(untraced.lat[k].all())-call)
	}

	if err := replaySessions(r, roster, stack); err != nil {
		return err
	}
	var parse, compile, bind []float64
	for _, in := range roster {
		stack.Push("netlist.ReadCKT")
		t0 := time.Now()
		c, err := netlist.ReadCKT(strings.NewReader(in.text))
		parse = append(parse, ms(time.Since(t0)))
		stack.Pop()
		if err != nil {
			return err
		}
		t0 = time.Now()
		g, err := netlist.Compile(c)
		compile = append(compile, ms(time.Since(t0)))
		if err != nil {
			return err
		}
		t0 = time.Now()
		_, err = delay.Bind(g, delay.Default())
		bind = append(bind, ms(time.Since(t0)))
		if err != nil {
			return err
		}
	}
	r.set("netlist.parse_ms", median(parse))
	r.set("netlist.compile_ms", median(compile))
	r.set("delay.bind_ms", median(bind))
	reportSpans(r, spans)
	return nil
}

// incEvents sums the dirty-node counts of the "inc.update" events an
// engine emits.
type incEvents struct {
	updates, dirty int
}

func (e *incEvents) Event(scope, name string, fields ...telemetry.KV) {
	if scope != "inc" || name != "update" {
		return
	}
	e.updates++
	for _, f := range fields {
		if f.Key == "dirty" {
			e.dirty += int(f.Val)
		}
	}
}
func (e *incEvents) Count(string, int64)        {}
func (e *incEvents) Gauge(string, float64)      {}
func (e *incEvents) Span(string, time.Duration) {}

// replaySessions replays a fixed seeded operation stream on bare
// ssta.Inc engines, one per roster session: the engine work behind
// each session operation without the service, HTTP or the LRU.
func replaySessions(r *run, roster []*sessionInput, stack *telemetry.Stack) error {
	ev := &incEvents{}
	engines := make([]*ssta.Inc, len(roster))
	var bytes []float64
	merges, gates, outputs := 0, 0, 0
	for i, in := range roster {
		engines[i] = ssta.NewInc(in.m, in.m.UnitSizes(), ssta.IncOptions{Workers: 1, Recorder: ev})
		bytes = append(bytes, float64(engines[i].MemoryBytes()))
		merges += mergesPerSweep(in.m)
		gates += len(in.ids)
		outputs += len(in.m.G.C.Outputs)
	}
	*ev = incEvents{}
	gens := []*opGen{newOpGen(derivedSeed(r.cfg.seed, 3), 0, roster), newOpGen(derivedSeed(r.cfg.seed, 3), 1, roster)}
	var lat [numOps][]float64
	var nudgeDirty, nudgeUpdates, updates, dirty int
	for i := 0; i < replayOps; i++ {
		o := gens[i%2].next()
		in, eng := roster[o.sess], engines[o.sess]
		before := *ev
		stack.Push("ssta.inc." + opNames[o.kind])
		t0 := time.Now()
		switch o.kind {
		case opNudge:
			for _, pos := range o.pos {
				eng.SetSize(in.ids[pos], o.sizes[in.gates[pos]])
			}
			eng.Update()
		case opWhatIf:
			eng.Trial()
			for _, pos := range o.pos {
				eng.SetSize(in.ids[pos], o.sizes[in.gates[pos]])
			}
			eng.Update()
			eng.Rollback()
		case opTiming:
			eng.Update()
			eng.GradMuPlusKSigma(sessionK)
			eng.Criticality()
		}
		lat[o.kind] = append(lat[o.kind], float64(time.Since(t0))/float64(time.Microsecond))
		stack.Pop()
		updates += ev.updates - before.updates
		dirty += ev.dirty - before.dirty
		if o.kind == opNudge {
			nudgeUpdates += ev.updates - before.updates
			nudgeDirty += ev.dirty - before.dirty
		}
	}
	r.set("ssta.inc_update_us", median(lat[opNudge]))
	r.set("ssta.inc_trial_us", median(lat[opWhatIf]))
	r.set("ssta.timing_read_us", median(lat[opTiming]))
	r.set("ssta.dirty_nodes", float64(nudgeDirty)/float64(nudgeUpdates))
	r.set("ssta.engine_bytes", median(bytes))
	// Computed, not counted: every re-evaluated gate folds its fanins
	// (the roster's mean merges per gate) and every update refolds the
	// outputs.
	perGate := float64(merges-outputs+len(roster)) / float64(gates)
	perUpdate := float64(outputs-len(roster)) / float64(len(roster))
	r.set("stats.max2_calls", float64(dirty)*perGate+float64(updates)*perUpdate)
	r.logf("replay: %d operations, %d updates, %d dirty nodes (%d updates and %d dirty nodes from nudges)",
		replayOps, updates, dirty, nudgeUpdates, nudgeDirty)
	return nil
}
