package ssta

import (
	"fmt"
	"testing"

	"repro/internal/delay"
	"repro/internal/netlist"
	"repro/internal/telemetry"
)

// parallelTestModels covers the built-in circuits plus a randomized
// generated netlist large enough to take the parallel path.
func parallelTestModels(t testing.TB) map[string]*delay.Model {
	t.Helper()
	models := map[string]*delay.Model{
		"tree7": delay.MustBind(netlist.MustCompile(netlist.Tree7()), delay.PaperTree()),
		"fig2":  delay.MustBind(netlist.MustCompile(netlist.Fig2Example()), delay.Default()),
		"apex1": delay.MustBind(netlist.MustCompile(netlist.Apex1Like()), delay.Default()),
		"k2":    delay.MustBind(netlist.MustCompile(netlist.K2Like()), delay.Default()),
	}
	gen, err := netlist.Generate(netlist.GenSpec{
		Name: "par1200", Gates: 1200, Inputs: 48, Outputs: 12,
		Depth: 18, MaxFanin: 4, Seed: 1234,
	})
	if err != nil {
		t.Fatal(err)
	}
	models["gen1200"] = delay.MustBind(netlist.MustCompile(gen), delay.Default())
	return models
}

// sizes exercises non-uniform speed factors so the load terms differ
// per gate.
func rampSizes(m *delay.Model) []float64 {
	S := m.UnitSizes()
	for i, id := range m.G.C.GateIDs() {
		S[id] = 1 + 0.7*float64(i%5)/4
	}
	return S
}

// forEachSweepOption calls fn for every worker count crossed with a
// nil and a fresh live recorder; met is the live recorder, or nil.
func forEachSweepOption(fn func(opt SweepOptions, met *telemetry.Metrics)) {
	for _, w := range []int{1, 2, 3, 4} {
		fn(SweepOptions{Workers: w}, nil)
		met := telemetry.NewMetrics()
		fn(SweepOptions{Workers: w, Recorder: met}, met)
	}
}

// checkSweepRecords asserts that a live recorder saw exactly fwd
// forward and adj adjoint sweeps (counts and spans alike) and the
// three graph-shape gauges. A nil recorder is not checked.
func checkSweepRecords(t *testing.T, label string, m *delay.Model, met *telemetry.Metrics, fwd, adj int64) {
	t.Helper()
	if met == nil {
		return
	}
	for _, c := range []struct {
		counter, span string
		want          int64
	}{
		{"ssta.forward_sweeps", "ssta.forward", fwd},
		{"ssta.adjoint_sweeps", "ssta.adjoint", adj},
	} {
		if got := met.CounterValue(c.counter); got != c.want {
			t.Errorf("%s: %s = %d, want %d", label, c.counter, got, c.want)
		}
		if got, _ := met.SpanValue(c.span); got != c.want {
			t.Errorf("%s: %s span count = %d, want %d", label, c.span, got, c.want)
		}
	}
	if fwd == 0 {
		return
	}
	widest := 0
	for _, b := range m.G.Levels {
		widest = max(widest, len(b))
	}
	for name, want := range map[string]int{
		"ssta.levels":          len(m.G.Levels),
		"ssta.max_level_width": widest,
		"ssta.nodes":           len(m.G.C.Nodes),
	} {
		if got := met.GaugeValue(name); got != float64(want) {
			t.Errorf("%s: gauge %s = %v, want %d", label, name, got, want)
		}
	}
}

func TestAnalyzeWorkersBitIdenticalToSerial(t *testing.T) {
	for name, m := range parallelTestModels(t) {
		S := rampSizes(m)
		for _, withTape := range []bool{false, true} {
			want := Analyze(m, S, withTape)
			forEachSweepOption(func(opt SweepOptions, met *telemetry.Metrics) {
				label := fmt.Sprintf("%s workers=%d rec=%v tape=%v", name, opt.Workers, met != nil, withTape)
				got := AnalyzeWorkers(m, S, withTape, opt)
				checkSweepRecords(t, label, m, met, 1, 0)
				if got.Tmax != want.Tmax {
					t.Errorf("%s: Tmax %+v != serial %+v", label, got.Tmax, want.Tmax)
				}
				for id := range want.Arrival {
					if got.Arrival[id] != want.Arrival[id] {
						t.Fatalf("%s: Arrival[%d] %+v != %+v", label, id, got.Arrival[id], want.Arrival[id])
					}
					if got.GateDelay[id] != want.GateDelay[id] {
						t.Fatalf("%s: GateDelay[%d] differs", label, id)
					}
				}
			})
		}
	}
}

func TestBackwardWorkersBitIdenticalToSerial(t *testing.T) {
	seeds := [][2]float64{{1, 0}, {1, 0.35}, {0, 1}}
	for name, m := range parallelTestModels(t) {
		S := rampSizes(m)
		r := Analyze(m, S, true)
		for _, seed := range seeds {
			want := r.Backward(m, S, seed[0], seed[1])
			forEachSweepOption(func(opt SweepOptions, met *telemetry.Metrics) {
				label := fmt.Sprintf("%s workers=%d rec=%v seed=%v", name, opt.Workers, met != nil, seed)
				rp := AnalyzeWorkers(m, S, true, SweepOptions{Workers: opt.Workers})
				got := rp.BackwardWorkers(m, S, seed[0], seed[1], opt)
				checkSweepRecords(t, label, m, met, 0, 1)
				for id := range want {
					if got[id] != want[id] {
						t.Fatalf("%s: grad[%d] = %v != serial %v", label, id, got[id], want[id])
					}
				}
			})
		}
	}
}

func TestGradMuPlusKSigmaWorkersMatchesSerial(t *testing.T) {
	for name, m := range parallelTestModels(t) {
		S := rampSizes(m)
		phiWant, gradWant := GradMuPlusKSigma(m, S, 3)
		forEachSweepOption(func(opt SweepOptions, met *telemetry.Metrics) {
			label := fmt.Sprintf("%s workers=%d rec=%v", name, opt.Workers, met != nil)
			phi, grad := GradMuPlusKSigmaWorkers(m, S, 3, opt)
			checkSweepRecords(t, label, m, met, 1, 1)
			if phi != phiWant {
				t.Errorf("%s: phi %v != %v", label, phi, phiWant)
			}
			for id := range gradWant {
				if grad[id] != gradWant[id] {
					t.Fatalf("%s: grad[%d] differs", label, id)
				}
			}
		})
	}
}

func TestBackwardWorkersRequiresTape(t *testing.T) {
	m := delay.MustBind(netlist.MustCompile(netlist.Tree7()), delay.PaperTree())
	r := Analyze(m, m.UnitSizes(), false)
	defer func() {
		if recover() == nil {
			t.Error("BackwardWorkers without tape did not panic")
		}
	}()
	r.BackwardWorkers(m, m.UnitSizes(), 1, 0, SweepOptions{Workers: 2})
}
