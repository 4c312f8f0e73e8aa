package montecarlo

import (
	"math/rand"
	"testing"

	"repro/internal/delay"
	"repro/internal/netlist"
)

// runScalarReference is the per-sample reference the lane-blocked
// shard runner must reproduce: the same shard grid, substream seeds
// and gate-delay distributions as Run, but one topology walk per
// sample with the fanin max folded in pin order, serially over the
// shards. The shard moments merge through the library's mergeShards,
// so a mismatch against Run isolates the draw and propagation order.
func runScalarReference(m *delay.Model, S []float64, opt Options) *Result {
	g := m.G
	n := len(g.C.Nodes)
	gateMu := make([]float64, n)
	gateSigma := make([]float64, n)
	for _, id := range g.C.GateIDs() {
		mv := m.GateMV(id, S)
		gateMu[id] = mv.Mu
		gateSigma[id] = mv.Sigma()
	}
	nShards := (opt.Samples + shardSamples - 1) / shardSamples
	shards := make([]shardMoments, nShards)
	arr := make([]float64, n)
	for i := range shards {
		rng := rand.New(rand.NewSource(shardSeed(opt.Seed, i)))
		count := min(shardSamples, opt.Samples-i*shardSamples)
		sm := &shards[i]
		sm.n = count
		for s := 0; s < count; s++ {
			for _, id := range g.Topo {
				nd := &g.C.Nodes[id]
				if nd.Kind == netlist.KindInput {
					a := m.Arrival[id]
					arr[id] = a.Mu + a.Sigma()*rng.NormFloat64()
					continue
				}
				u := arr[nd.Fanin[0]] + m.PinOff(id, 0)
				for k, f := range nd.Fanin[1:] {
					if a := arr[f] + m.PinOff(id, k+1); a > u {
						u = a
					}
				}
				d := gateMu[id] + gateSigma[id]*rng.NormFloat64()
				if opt.TruncateAtZero && d < 0 {
					d = 0
				}
				arr[id] = u + d
			}
			tmax := arr[g.C.Outputs[0]]
			for _, o := range g.C.Outputs[1:] {
				if a := arr[o]; a > tmax {
					tmax = a
				}
			}
			d := tmax - sm.mean
			sm.mean += d / float64(s+1)
			sm.m2 += d * (tmax - sm.mean)
			if opt.KeepSamples {
				sm.keep = append(sm.keep, tmax)
			}
		}
	}
	return mergeShards(shards, opt.KeepSamples)
}

// TestLaneWidthBitIdentical: lane blocking is a pure performance
// device — Run must reproduce the per-sample scalar reference exactly,
// moments and sorted samples alike, for every worker count, with
// truncation on and off, at a sample count that leaves a partial lane
// block and spans three shards.
func TestLaneWidthBitIdentical(t *testing.T) {
	gen, err := netlist.Generate(netlist.GenSpec{
		Name: "mc300", Gates: 300, Inputs: 12, Outputs: 6,
		Depth: 9, MaxFanin: 4, Seed: 99,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := delay.MustBind(netlist.MustCompile(gen), delay.Default())
	S := m.UnitSizes()
	for _, truncate := range []bool{false, true} {
		opt := Options{
			Samples: 2*shardSamples + 1037, Seed: 42,
			TruncateAtZero: truncate, KeepSamples: true,
		}
		want := runScalarReference(m, S, opt)
		for _, w := range []int{1, 4} {
			opt.Workers = w
			got, err := Run(m, S, opt)
			if err != nil {
				t.Fatal(err)
			}
			if got.Mu != want.Mu || got.Sigma != want.Sigma {
				t.Fatalf("truncate=%v w=%d: moments (%v, %v) != scalar (%v, %v)",
					truncate, w, got.Mu, got.Sigma, want.Mu, want.Sigma)
			}
			if len(got.Samples) != len(want.Samples) {
				t.Fatalf("truncate=%v w=%d: %d samples, want %d",
					truncate, w, len(got.Samples), len(want.Samples))
			}
			for i := range want.Samples {
				if got.Samples[i] != want.Samples[i] {
					t.Fatalf("truncate=%v w=%d: sample[%d] differs", truncate, w, i)
				}
			}
		}
	}
}
