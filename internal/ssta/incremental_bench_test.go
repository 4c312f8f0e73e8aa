package ssta

import (
	"testing"

	"repro/internal/delay"
	"repro/internal/netlist"
	"repro/internal/stats"
)

// The Inc/FullSweep benchmark pairs measure what the incremental
// engine buys a sizing loop: one "step" is a single-gate size change
// followed by a full gradient evaluation (forward + adjoint). The
// full-sweep variant pays a fresh allocating taped O(V) sweep; the
// incremental variant re-evaluates only the changed cone and reuses
// every slab. `make bench-inc` collects both into
// BENCH_incremental.json.

func benchIncUpdate(b *testing.B, name string) {
	m := parallelTestModels(b)[name]
	gates := m.G.C.GateIDs()
	inc := NewInc(m, m.UnitSizes(), IncOptions{Workers: 1})
	inc.GradMuPlusKSigma(3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := gates[(i*31)%len(gates)]
		inc.SetSize(id, 1+0.3*float64(i%5))
		inc.GradMuPlusKSigma(3)
	}
}

func benchFullSweep(b *testing.B, name string) {
	m := parallelTestModels(b)[name]
	gates := m.G.C.GateIDs()
	S := m.UnitSizes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := gates[(i*31)%len(gates)]
		S[id] = 1 + 0.3*float64(i%5)
		GradMuPlusKSigmaWorkers(m, S, 3, SweepOptions{Workers: 1})
	}
}

func BenchmarkIncUpdateTree7(b *testing.B)   { benchIncUpdate(b, "tree7") }
func BenchmarkIncUpdateGen1200(b *testing.B) { benchIncUpdate(b, "gen1200") }

func BenchmarkFullSweepTree7(b *testing.B)   { benchFullSweep(b, "tree7") }
func BenchmarkFullSweepGen1200(b *testing.B) { benchFullSweep(b, "gen1200") }

// The NudgeK2 pair measures a warm what-if session's nudge on both
// persistent engines: 1–3 gates resized, then one Update, serial, on
// the k2-like circuit the session benchmark serves. It is the paired
// baseline for folding Inc into Hier.

// nudger is the engine surface a session nudge drives.
type nudger interface {
	SetSize(id netlist.NodeID, s float64)
	Update() stats.MV
}

func k2Model() *delay.Model {
	return delay.MustBind(netlist.MustCompile(netlist.K2Like()), delay.Default())
}

func benchNudge(b *testing.B, m *delay.Model, e nudger) {
	gates := m.G.C.GateIDs()
	nudge := func(i int) {
		for j := 0; j <= i%3; j++ {
			e.SetSize(gates[((3*i+j)*7919)%len(gates)], 1+0.3*float64((i+j)%5))
		}
		e.Update()
	}
	for i := 0; i < 300; i++ { // stretch the dirty buckets to steady state
		nudge(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nudge(i)
	}
}

func BenchmarkIncNudgeK2(b *testing.B) {
	m := k2Model()
	benchNudge(b, m, NewInc(m, m.UnitSizes(), IncOptions{Workers: 1}))
}

func BenchmarkHierNudgeK2(b *testing.B) {
	m := k2Model()
	benchNudge(b, m, NewHier(m, m.UnitSizes(), HierOptions{Workers: 1}))
}
