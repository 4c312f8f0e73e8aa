package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"sort"
	"strings"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the test reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// layerMap is the part of layers.json the test reads.
type layerMap struct {
	EndToEnd []struct {
		Name      string   `json:"name"`
		Workloads []string `json:"workloads"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name      string   `json:"name"`
		Workloads []string `json:"workloads"`
		Moves     []struct {
			Metric   string `json:"metric"`
			Workload string `json:"workload"`
		} `json:"moves"`
	} `json:"per_layer"`
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

// TestDeclarations checks that BENCHMARK.json, layers.json and the
// metricDecls table name the same metrics with the same units, and that
// every layer-map reference names a declared metric and workload.
func TestDeclarations(t *testing.T) {
	var bf benchmarkFile
	readJSON(t, "../BENCHMARK.json", &bf)
	var lm layerMap
	readJSON(t, "layers.json", &lm)

	declared := map[string]kind{}
	for _, m := range bf.EndToEnd {
		declared[m.Name] = endToEnd
	}
	for _, m := range bf.PerLayer {
		declared[m.Name] = perLayer
	}
	for _, m := range append(bf.EndToEnd, bf.PerLayer...) {
		d, ok := metricDecls[m.Name]
		switch {
		case !ok:
			t.Errorf("metric %s in BENCHMARK.json is not in metricDecls", m.Name)
		case d.kind != declared[m.Name] || d.unit != m.Unit:
			t.Errorf("metric %s: kind %d unit %q in metricDecls, kind %d unit %q in BENCHMARK.json",
				m.Name, d.kind, d.unit, declared[m.Name], m.Unit)
		}
	}
	for name := range metricDecls {
		if declared[name] == 0 {
			t.Errorf("metric %s in metricDecls is not in BENCHMARK.json", name)
		}
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("workload %s in BENCHMARK.json has no implementation", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v, the benchmark has %d", names, len(workloads))
	}
	mapped := map[string]bool{}
	for _, m := range lm.EndToEnd {
		mapped[m.Name] = true
		if declared[m.Name] != endToEnd {
			t.Errorf("layers.json end-to-end metric %s is not end-to-end in BENCHMARK.json", m.Name)
		}
	}
	for _, m := range lm.PerLayer {
		mapped[m.Name] = true
		if declared[m.Name] != perLayer {
			t.Errorf("layers.json per-layer metric %s is not per-layer in BENCHMARK.json", m.Name)
		}
		for _, mv := range m.Moves {
			if declared[mv.Metric] == 0 || !slices.Contains(names, mv.Workload) {
				t.Errorf("layers.json: %s moves %s on %s, which is not a declared metric and workload", m.Name, mv.Metric, mv.Workload)
			}
		}
	}
	for name := range declared {
		if !mapped[name] {
			t.Errorf("metric %s is missing from layers.json", name)
		}
	}
}

// TestSmoke runs every workload, untraced and traced, on tiny inputs
// and checks that the outputs pass every check, that the result carries
// every metric of its kind in its declared unit, and that a per-layer
// metric reads 0 exactly on the workloads layers.json does not list for
// it.
func TestSmoke(t *testing.T) {
	var lm layerMap
	readJSON(t, "layers.json", &lm)
	measuredOn := map[string][]string{}
	for _, m := range lm.PerLayer {
		measuredOn[m.Name] = m.Workloads
	}
	var names []string
	for w := range workloads {
		names = append(names, w)
	}
	sort.Strings(names)
	for _, w := range names {
		for _, trace := range []bool{false, true} {
			want := endToEnd
			if trace {
				want = perLayer
			}
			cfg := config{workload: w, seed: 7, seconds: 2, trace: trace, stateRoot: t.TempDir(), smoke: true}
			var report bytes.Buffer
			res, err := execute(cfg, &report)
			if err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", w, trace, err, report.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s", w, trace, res.Correct, res.Attempted, res.Failed, report.String())
			}
			for name, d := range metricDecls {
				m, ok := res.Metrics[name]
				switch {
				case ok != (d.kind == want):
					t.Errorf("%s trace=%v: metric %s present %v", w, trace, name, ok)
				case !ok:
				case m.Unit != d.unit:
					t.Errorf("%s trace=%v: metric %s has unit %q, want %q", w, trace, name, m.Unit, d.unit)
				case d.kind == endToEnd && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, name, m.Value)
				case d.kind == perLayer && !slices.Contains(measuredOn[name], w) && m.Value != 0:
					t.Errorf("%s: metric %s = %v, but layers.json says it is not measured there", w, name, m.Value)
				}
			}
			if !strings.Contains(report.String(), `"commit":`) {
				t.Errorf("%s: report carries no host stamp", w)
			}
		}
	}
}

// TestTail checks the tail rule: the highest candidate percentile with
// at least ten samples beyond it.
func TestTail(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if p, v := tail(xs); p != 99 || v != 990 {
		t.Errorf("tail of 1..1000 = p%g %v, want p99 990", p, v)
	}
	if p, v := tail(xs[:5]); p != 100 || v != 5 {
		t.Errorf("tail of 1..5 = p%g %v, want p100 5", p, v)
	}
}

// TestLayerOf checks the CPU attribution rules on representative
// stacks (leaf first).
func TestLayerOf(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"math.erfc", "math.Erfc", "repro/internal/dist.CDF", "repro/internal/stats.Max2", "repro/internal/ssta.forwardGate"}, "stats"},
		{[]string{"runtime.memmove", "encoding/json.(*encodeState).marshal", "repro/internal/service.writeJSON", "net/http.(*conn).serve"}, "http_json"},
		{[]string{"encoding/json.Marshal", "repro/internal/service.(*journal).append"}, "service"},
		{[]string{"syscall.Syscall", "os.(*File).Sync", "repro/internal/checkpoint.Save", "repro/internal/nlp.SaveCheckpoint"}, "checkpoint"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.futex"}, "other"},
	}
	for _, c := range cases {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}
