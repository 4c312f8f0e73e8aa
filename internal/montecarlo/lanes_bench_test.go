package montecarlo

import (
	"testing"

	"repro/internal/delay"
	"repro/internal/netlist"
)

// BenchmarkMCShardGen1200 measures one full 4096-sample shard of the
// lane-blocked runner on the 1200-gate netlist, single worker; `make
// bench-batch` records it in BENCH_batch.json.
func BenchmarkMCShardGen1200(b *testing.B) {
	gen, err := netlist.Generate(netlist.GenSpec{
		Name: "par1200", Gates: 1200, Inputs: 48, Outputs: 12,
		Depth: 18, MaxFanin: 4, Seed: 1234,
	})
	if err != nil {
		b.Fatal(err)
	}
	m := delay.MustBind(netlist.MustCompile(gen), delay.Default())
	S := m.UnitSizes()
	opt := Options{Samples: shardSamples, Seed: 7, Workers: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(m, S, opt); err != nil {
			b.Fatal(err)
		}
	}
}
