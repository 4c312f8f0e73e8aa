package ssta

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/delay"
	"repro/internal/netlist"
	"repro/internal/telemetry"
)

// checkIncMatchesFresh asserts the engine's full forward state and the
// adjoint gradient are bit-identical to a fresh taped sweep at the
// engine's current sizes.
func checkIncMatchesFresh(t *testing.T, inc *Inc, m *delay.Model, k float64) {
	t.Helper()
	phiI, gradI := inc.GradMuPlusKSigma(k)
	S := inc.Sizes()
	fresh := Analyze(m, S, true)
	if inc.Tmax() != fresh.Tmax {
		t.Fatalf("Tmax diverged: inc %+v fresh %+v", inc.Tmax(), fresh.Tmax)
	}
	for id := range fresh.Arrival {
		nid := netlist.NodeID(id)
		if inc.Arrival(nid) != fresh.Arrival[id] {
			t.Fatalf("node %d arrival diverged: inc %+v fresh %+v",
				id, inc.Arrival(nid), fresh.Arrival[id])
		}
		if inc.GateDelay(nid) != fresh.GateDelay[id] {
			t.Fatalf("node %d gate delay diverged: inc %+v fresh %+v",
				id, inc.GateDelay(nid), fresh.GateDelay[id])
		}
	}
	phiF, sMu, sVar := ObjectiveMuPlusKSigma(fresh.Tmax, k)
	if phiI != phiF {
		t.Fatalf("phi diverged: inc %v fresh %v", phiI, phiF)
	}
	gradF := fresh.Backward(m, S, sMu, sVar)
	for id := range gradF {
		if gradI[id] != gradF[id] {
			t.Fatalf("grad[%d] diverged: inc %v fresh %v", id, gradI[id], gradF[id])
		}
	}
}

// TestIncMatchesAnalyzeFuzz drives the incremental engine with random
// size bumps, trials, rollbacks and commits on every test circuit
// (including a generated netlist large enough for the parallel path)
// and asserts bit-identity against fresh taped sweeps throughout, for
// worker counts 1 and 4.
func TestIncMatchesAnalyzeFuzz(t *testing.T) {
	for name, m := range parallelTestModels(t) {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/j%d", name, workers), func(t *testing.T) {
				rng := rand.New(rand.NewSource(42))
				gates := m.G.C.GateIDs()
				inc := NewInc(m, m.UnitSizes(), IncOptions{Workers: workers})
				randSize := func() float64 { return 1 + rng.Float64()*(m.Limit-1) }
				for step := 0; step < 40; step++ {
					switch rng.Intn(4) {
					case 0: // a burst of size changes, then one Update
						for i := 0; i < 1+rng.Intn(4); i++ {
							inc.SetSize(gates[rng.Intn(len(gates))], randSize())
						}
						inc.Update()
					case 1: // rejected what-if move
						before := inc.Update()
						inc.Trial()
						for i := 0; i < 1+rng.Intn(3); i++ {
							inc.SetSize(gates[rng.Intn(len(gates))], randSize())
						}
						inc.Update()
						if got := inc.Rollback(); got != before {
							t.Fatalf("rollback Tmax %+v, want %+v", got, before)
						}
					case 2: // accepted what-if move
						inc.Trial()
						inc.SetSize(gates[rng.Intn(len(gates))], randSize())
						inc.Update()
						inc.Commit()
					case 3: // no-op Update (cached path)
						inc.Update()
					}
					if step%5 == 0 {
						checkIncMatchesFresh(t, inc, m, 3)
					}
				}
				checkIncMatchesFresh(t, inc, m, 3)
			})
		}
	}
}

// TestIncRollbackRestores asserts Rollback restores every slab the
// trial touched bit for bit — including sizes changed and then changed
// back, and a rollback taken with dirty marks still pending.
func TestIncRollbackRestores(t *testing.T) {
	m := parallelTestModels(t)["apex1"]
	gates := m.G.C.GateIDs()
	inc := NewInc(m, m.UnitSizes(), IncOptions{})
	inc.SetSize(gates[0], 1.5)
	want := inc.Update()

	n := len(m.G.C.Nodes)
	arr := make([]float64, 0, 2*n)
	for id := 0; id < n; id++ {
		a := inc.Arrival(netlist.NodeID(id))
		arr = append(arr, a.Mu, a.Var)
	}
	sizes := append([]float64(nil), inc.Sizes()...)

	inc.Trial()
	for i, id := range gates {
		if i%3 == 0 {
			inc.SetSize(id, 2.5)
		}
	}
	inc.Update()
	inc.SetSize(gates[1], 1.1) // left pending: Rollback must discard it
	if got := inc.Rollback(); got != want {
		t.Fatalf("rollback Tmax %+v, want %+v", got, want)
	}
	if got := inc.Update(); got != want {
		t.Fatalf("post-rollback Update Tmax %+v, want %+v", got, want)
	}
	for id := 0; id < n; id++ {
		a := inc.Arrival(netlist.NodeID(id))
		if a.Mu != arr[2*id] || a.Var != arr[2*id+1] {
			t.Fatalf("node %d arrival not restored", id)
		}
	}
	for id, s := range inc.Sizes() {
		if s != sizes[id] {
			t.Fatalf("size[%d] not restored: %v != %v", id, s, sizes[id])
		}
	}
}

// eventSink captures Event calls as formatted lines; the metric
// channels (which may carry wall-clock data) are discarded.
type eventSink struct{ lines []string }

func (e *eventSink) Event(scope, name string, fields ...telemetry.KV) {
	line := scope + "." + name
	for _, f := range fields {
		line += fmt.Sprintf(" %s=%g", f.Key, f.Val)
	}
	e.lines = append(e.lines, line)
}
func (e *eventSink) Count(string, int64)        {}
func (e *eventSink) Gauge(string, float64)      {}
func (e *eventSink) Span(string, time.Duration) {}

// TestIncUpdateEventsWorkerInvariant replays the same bump script with
// 1 and 4 workers and asserts the "inc.update" event stream — dirty
// and frontier counts included — is identical.
func TestIncUpdateEventsWorkerInvariant(t *testing.T) {
	m := parallelTestModels(t)["gen1200"]
	gates := m.G.C.GateIDs()
	run := func(workers int) []string {
		sink := &eventSink{}
		inc := NewInc(m, m.UnitSizes(), IncOptions{Workers: workers, Recorder: sink})
		for step := 0; step < 10; step++ {
			inc.SetSize(gates[(step*37)%len(gates)], 1+0.2*float64(step%7))
			inc.Update()
		}
		return sink.lines
	}
	serial, parallel := run(1), run(4)
	if len(serial) != len(parallel) {
		t.Fatalf("event counts differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("event %d differs:\n  j1: %s\n  j4: %s", i, serial[i], parallel[i])
		}
	}
	if len(serial) == 0 {
		t.Fatal("no inc.update events recorded")
	}
}

// TestIncSteadyStateAllocFree asserts the serial engine's steady-state
// loop — SetSize, Update, Backward — performs zero heap allocations
// per step once warm.
func TestIncSteadyStateAllocFree(t *testing.T) {
	m := parallelTestModels(t)["gen1200"]
	gates := m.G.C.GateIDs()
	inc := NewInc(m, m.UnitSizes(), IncOptions{Workers: 1})
	// The schedule is cyclic so one warm pass stretches every per-level
	// dirty bucket and the adjoint scratch to its steady-state size.
	step := 0
	doStep := func() {
		id := gates[(step*31)%len(gates)]
		inc.SetSize(id, 1+0.3*float64(step%5))
		inc.GradMuPlusKSigma(3)
		step = (step + 1) % 50
	}
	for i := 0; i < 50; i++ {
		doStep()
	}
	allocs := testing.AllocsPerRun(50, doStep)
	if allocs != 0 {
		t.Fatalf("steady-state SetSize+Update+Backward allocates %.1f per step, want 0", allocs)
	}
}

// TestIncTrialSteadyStateAllocFree asserts a warm trial/rollback cycle
// is also allocation-free: the undo log and its tape buffer are
// reused across trials.
func TestIncTrialSteadyStateAllocFree(t *testing.T) {
	m := parallelTestModels(t)["tree7"]
	gates := m.G.C.GateIDs()
	inc := NewInc(m, m.UnitSizes(), IncOptions{Workers: 1})
	step := 0
	cycle := func() {
		inc.Trial()
		inc.SetSize(gates[step%len(gates)], 1+0.4*float64(step%4))
		inc.Update()
		inc.Rollback()
		step = (step + 1) % 28 // lcm of the gate and size cycles
	}
	for i := 0; i < 28; i++ {
		cycle()
	}
	allocs := testing.AllocsPerRun(50, cycle)
	if allocs != 0 {
		t.Fatalf("steady-state trial cycle allocates %.1f per step, want 0", allocs)
	}
}

// TestIncSetSizePanics pins the misuse contracts: sizing a non-gate
// node and nesting trials both panic.
func TestIncSetSizePanics(t *testing.T) {
	m := parallelTestModels(t)["tree7"]
	inc := NewInc(m, m.UnitSizes(), IncOptions{})
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	input := netlist.NodeID(-1)
	for i := range m.G.C.Nodes {
		if m.G.C.Nodes[i].Kind == netlist.KindInput {
			input = netlist.NodeID(i)
			break
		}
	}
	mustPanic("SetSize(input)", func() { inc.SetSize(input, 2) })
	gate := m.G.C.GateIDs()[0]
	mustPanic("SetSize(NaN)", func() { inc.SetSize(gate, math.NaN()) })
	mustPanic("SetSize(+Inf)", func() { inc.SetSize(gate, math.Inf(1)) })
	mustPanic("SetSize(-Inf)", func() { inc.SetSize(gate, math.Inf(-1)) })
	inc.Trial()
	mustPanic("nested Trial", func() { inc.Trial() })
	inc.Commit()
	mustPanic("Commit outside trial", func() { inc.Commit() })
	mustPanic("Rollback outside trial", func() { inc.Rollback() })
	// The rejected non-finite sizes must not have poisoned the engine:
	// its state still matches a fresh sweep bit for bit.
	checkIncMatchesFresh(t, inc, m, 3)
}

// TestIncCriticalityMatchesWorkers pins the warm-engine criticality
// accessor against the fresh-sweep entry point after a trajectory of
// size nudges, for worker counts 1 and 4.
func TestIncCriticalityMatchesWorkers(t *testing.T) {
	for name, m := range parallelTestModels(t) {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/j%d", name, workers), func(t *testing.T) {
				rng := rand.New(rand.NewSource(7))
				gates := m.G.C.GateIDs()
				inc := NewInc(m, m.UnitSizes(), IncOptions{Workers: workers})
				for step := 0; step < 8; step++ {
					g := gates[rng.Intn(len(gates))]
					inc.SetSize(g, 1+rng.Float64()*(m.Limit-1))
					warm := inc.Criticality()
					fresh := CriticalityWorkers(m, inc.Sizes(), SweepOptions{Workers: workers})
					for id := range fresh {
						if warm[id] != fresh[id] {
							t.Fatalf("step %d: criticality[%d] diverged: warm %v fresh %v",
								step, id, warm[id], fresh[id])
						}
					}
				}
			})
		}
	}
}

// TestIncMemoryBytes sanity-checks the footprint estimate: positive,
// larger for larger circuits, and covering at least the dominant
// moment slabs.
func TestIncMemoryBytes(t *testing.T) {
	models := parallelTestModels(t)
	small := NewInc(models["tree7"], models["tree7"].UnitSizes(), IncOptions{})
	large := NewInc(models["k2"], models["k2"].UnitSizes(), IncOptions{})
	sb, lb := small.MemoryBytes(), large.MemoryBytes()
	if sb <= 0 || lb <= 0 {
		t.Fatalf("non-positive footprints: %d, %d", sb, lb)
	}
	if lb <= sb {
		t.Fatalf("k2 footprint %d not larger than tree7's %d", lb, sb)
	}
	if min := int64(len(models["k2"].G.C.Nodes)) * 2 * 16; lb < min {
		t.Fatalf("k2 footprint %d below its moment slabs alone (%d)", lb, min)
	}
}
