package ssta

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/delay"
	"repro/internal/netlist"
	"repro/internal/stats"
)

var batchLaneCounts = []int{1, 2, 3, 8}
var batchWorkerCounts = []int{1, 4}

// batchScenarios builds K scenarios with distinct speed factors and a
// mix of skews: zero (the plain Analyze model), moderate rise/fall
// style skews, and a deep negative skew that floors every gate at
// zero (degenerate zero-variance delays).
func batchScenarios(m *delay.Model, K int, rng *rand.Rand) []Scenario {
	skews := []float64{0, 0.15, -0.08, 0, -1.2, 0.3, 0, 0.05}
	scs := make([]Scenario, K)
	for l := range scs {
		S := m.UnitSizes()
		for _, id := range m.G.C.GateIDs() {
			S[id] = 1 + 2*rng.Float64()
		}
		scs[l] = Scenario{S: S, Skew: skews[l%len(skews)]}
	}
	return scs
}

func newTestBatch(m *delay.Model, scs []Scenario, workers int) *Batch {
	b := NewBatch(m, len(scs), BatchOptions{Workers: workers})
	for l, sc := range scs {
		b.SetScenario(l, sc)
	}
	return b
}

func TestBatchForwardBitIdenticalToScenarios(t *testing.T) {
	for name, m := range parallelTestModels(t) {
		rng := rand.New(rand.NewSource(7))
		for _, K := range batchLaneCounts {
			scs := batchScenarios(m, K, rng)
			for _, w := range batchWorkerCounts {
				b := newTestBatch(m, scs, w)
				tmax := b.Forward()
				for l, sc := range scs {
					want := AnalyzeScenario(m, sc)
					if tmax[l] != want.Tmax {
						t.Fatalf("%s K=%d w=%d lane=%d: Tmax %+v != scalar %+v",
							name, K, w, l, tmax[l], want.Tmax)
					}
					for id := range want.Arrival {
						nid := netlist.NodeID(id)
						if b.Arrival(nid, l) != want.Arrival[id] {
							t.Fatalf("%s K=%d w=%d lane=%d: Arrival[%d] differs", name, K, w, l, id)
						}
						if b.GateDelay(nid, l) != want.GateDelay[id] {
							t.Fatalf("%s K=%d w=%d lane=%d: GateDelay[%d] differs", name, K, w, l, id)
						}
					}
				}
			}
		}
	}
}

func TestBatchZeroSkewLaneMatchesAnalyze(t *testing.T) {
	// A zero-skew lane must reproduce the plain sweep bit for bit —
	// the contract that lets CornersWorkers and the CLIs batch their
	// reports without changing a single reported digit.
	for name, m := range parallelTestModels(t) {
		S := rampSizes(m)
		want := Analyze(m, S, true)
		b := NewBatch(m, 3, BatchOptions{})
		for l := 0; l < 3; l++ {
			b.SetScenario(l, Scenario{S: S})
		}
		tmax := b.Forward()
		for l := 0; l < 3; l++ {
			if tmax[l] != want.Tmax {
				t.Fatalf("%s lane %d: Tmax %+v != Analyze %+v", name, l, tmax[l], want.Tmax)
			}
		}
	}
}

func TestBatchBackwardBitIdenticalToScenarios(t *testing.T) {
	const k = 3.0
	for name, m := range parallelTestModels(t) {
		rng := rand.New(rand.NewSource(11))
		for _, K := range batchLaneCounts {
			scs := batchScenarios(m, K, rng)
			for _, w := range batchWorkerCounts {
				b := newTestBatch(m, scs, w)
				phis := b.GradsMuPlusKSigma(k)
				var lane []float64
				for l, sc := range scs {
					phiWant, gradWant := GradScenarioMuPlusKSigma(m, sc, k)
					if phis[l] != phiWant {
						t.Fatalf("%s K=%d w=%d lane=%d: phi %v != scalar %v",
							name, K, w, l, phis[l], phiWant)
					}
					lane = b.Grad(l, lane)
					for id := range gradWant {
						if lane[id] != gradWant[id] {
							t.Fatalf("%s K=%d w=%d lane=%d: grad[%d] = %v != scalar %v",
								name, K, w, l, id, lane[id], gradWant[id])
						}
					}
				}
			}
		}
	}
}

// TestBatchFuzzRandomNetlists drives the full (K, workers) grid over
// randomly generated netlists and random scenarios, including a
// zero-variance sigma model (every gate delay a point mass), checking
// forward and adjoint bit-identity against the scalar scenario sweep.
func TestBatchFuzzRandomNetlists(t *testing.T) {
	rng := rand.New(rand.NewSource(20260807))
	for trial := 0; trial < 6; trial++ {
		spec := netlist.GenSpec{
			Name:     "fuzz",
			Gates:    40 + rng.Intn(260),
			Inputs:   3 + rng.Intn(12),
			Outputs:  1 + rng.Intn(6),
			Depth:    3 + rng.Intn(10),
			MaxFanin: 2 + rng.Intn(3),
			Seed:     rng.Int63(),
		}
		g, err := netlist.Generate(spec)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		m := delay.MustBind(netlist.MustCompile(g), delay.Default())
		if trial%3 == 2 {
			// Degenerate zero-variance gates: the max operator's
			// point-mass branches and the adjoint's zero-variance
			// seeds all get exercised.
			m.Sigma = delay.Proportional{K: 0}
		}
		for _, K := range batchLaneCounts {
			scs := batchScenarios(m, K, rng)
			for _, w := range batchWorkerCounts {
				b := newTestBatch(m, scs, w)
				phis := b.GradsMuPlusKSigma(3)
				var lane []float64
				for l, sc := range scs {
					phiWant, gradWant := GradScenarioMuPlusKSigma(m, sc, 3)
					if phis[l] != phiWant {
						t.Fatalf("trial %d K=%d w=%d lane %d: phi %v != %v",
							trial, K, w, l, phis[l], phiWant)
					}
					if b.Tmax(l) != AnalyzeScenario(m, sc).Tmax {
						t.Fatalf("trial %d K=%d w=%d lane %d: Tmax differs", trial, K, w, l)
					}
					lane = b.Grad(l, lane)
					for id := range gradWant {
						if lane[id] != gradWant[id] {
							t.Fatalf("trial %d K=%d w=%d lane %d: grad[%d] %v != %v",
								trial, K, w, l, id, lane[id], gradWant[id])
						}
					}
				}
			}
		}
	}
}

func TestDetBatchBitIdenticalToCornerSweeps(t *testing.T) {
	ks := []float64{-3, -1, 0, 1, 2.5, 3}
	for name, m := range parallelTestModels(t) {
		S := rampSizes(m)
		want := make([]float64, len(ks))
		for i, k := range ks {
			want[i] = cornerSweep(m, S, k)
		}
		for _, w := range batchWorkerCounts {
			got := KSweep(m, S, ks, w)
			for i := range ks {
				if got[i] != want[i] {
					t.Fatalf("%s w=%d k=%v: batched %v != scalar %v",
						name, w, ks[i], got[i], want[i])
				}
			}
		}
	}
}

func TestCornersMatchAcrossWorkersAndSign(t *testing.T) {
	for name, m := range parallelTestModels(t) {
		S := rampSizes(m)
		want := Corners(m, S, 3)
		for _, w := range batchWorkerCounts {
			if got := CornersWorkers(m, S, 3, w); *got != *want {
				t.Errorf("%s workers=%d: %+v != %+v", name, w, got, want)
			}
		}
		// The sign of k is documentation only: corners are symmetric.
		if got := Corners(m, S, -3); *got != *want {
			t.Errorf("%s: Corners(-3) %+v != Corners(3) %+v", name, got, want)
		}
	}
}

// TestNonFiniteRiskFactorPanics is the regression test for the k-path
// audit: a NaN or infinite risk factor must be rejected at the API
// boundary instead of flowing through the sweeps as a silent NaN
// circuit delay.
func TestNonFiniteRiskFactorPanics(t *testing.T) {
	m := delay.MustBind(netlist.MustCompile(netlist.Tree7()), delay.PaperTree())
	S := m.UnitSizes()
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		call func()
	}{
		{"Corners-NaN", func() { Corners(m, S, nan) }},
		{"CornersWorkers-Inf", func() { CornersWorkers(m, S, inf, 2) }},
		{"KSweep-NaN", func() { KSweep(m, S, []float64{0, nan}, 1) }},
		{"NewDetBatch-negInf", func() { NewDetBatch(m, []float64{math.Inf(-1)}, 1) }},
		{"Objective-NaN", func() { ObjectiveMuPlusKSigma(stats.MV{Mu: 1, Var: 1}, nan) }},
		{"GradMuPlusKSigma-Inf", func() { GradMuPlusKSigma(m, S, inf) }},
		{"GradWorkers-NaN", func() { GradMuPlusKSigmaWorkers(m, S, nan, SweepOptions{Workers: 2}) }},
		{"GradScenario-NaN", func() { GradScenarioMuPlusKSigma(m, Scenario{S: S}, nan) }},
		{"Batch-NaN", func() {
			b := NewBatch(m, 1, BatchOptions{})
			b.SetScenario(0, Scenario{S: S})
			b.GradsMuPlusKSigma(nan)
		}},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", c.name)
				}
			}()
			c.call()
		}()
	}
}

// TestBatchWarmSweepsAllocFree pins the steady-state serial batch
// paths at zero allocations per sweep: all slabs are arena-allocated
// at construction, so an evaluation loop never touches the heap.
func TestBatchWarmSweepsAllocFree(t *testing.T) {
	m := parallelTestModels(t)["gen1200"]
	scs := batchScenarios(m, 8, rand.New(rand.NewSource(3)))
	b := newTestBatch(m, scs, 1)
	seedMu := make([]float64, 8)
	seedVar := make([]float64, 8)
	for l := range seedMu {
		seedMu[l] = 1
	}
	b.Forward()
	b.Backward(seedMu, seedVar)
	if n := testing.AllocsPerRun(10, func() { b.Forward() }); n != 0 {
		t.Errorf("warm Batch.Forward allocates %v/op, want 0", n)
	}
	if n := testing.AllocsPerRun(10, func() {
		b.Forward()
		b.Backward(seedMu, seedVar)
	}); n != 0 {
		t.Errorf("warm Batch forward+backward allocates %v/op, want 0", n)
	}

	S := rampSizes(m)
	db := NewDetBatch(m, []float64{-3, 0, 3}, 1)
	db.Sweep(S)
	if n := testing.AllocsPerRun(10, func() { db.Sweep(S) }); n != 0 {
		t.Errorf("warm DetBatch.Sweep allocates %v/op, want 0", n)
	}
}
