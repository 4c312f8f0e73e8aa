// Command perfbench is the repository's end-to-end benchmark. It drives
// the sizing stack only through its Go API and through the daemon's
// HTTP API, served in-process on a loopback listener. One invocation
// runs one seeded workload for a fixed time, checks every output, prints
// a report, and ends with one JSON result object on the last line of
// standard output.
//
// Usage, from the root of the checkout:
//
//	bash perfbench/run.sh --workload paper-k2 --seed 16923 --seconds 30 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured
// with all tracing off. With --trace 1 it carries the per-layer metrics
// of a traced run. README.md describes the workloads, the seeds and the
// layer map.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// defaultSeed is the default workload seed and the generator seed of
// netlist.K2Like, the first circuit of every paper-k2 run.
const defaultSeed = 16923

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// stateRoot holds the daemon state directories of the run; it is
	// removed when the run ends.
	stateRoot string
	// smoke shrinks every input so the self-test runs in seconds.
	smoke bool
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*run) error{
	"paper-k2":    runPaperK2,
	"sessions-k2": runSessions,
	"jobs-small":  runJobs,
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "paper-k2, sessions-k2 or jobs-small")
	flag.Int64Var(&cfg.seed, "seed", defaultSeed, "workload seed; the same seed gives the same inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 30, "measured run length in seconds")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics of a traced run")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	cfg.trace = trace == 1
	cfg.stateRoot = filepath.Join(".bench_build", fmt.Sprintf("state-%d", os.Getpid()))
	res, err := execute(cfg, os.Stdout)
	os.RemoveAll(cfg.stateRoot)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// phase is the operation accounting of one workload phase.
type phase struct {
	name                      string
	sent, ok, failed, refused int
}

// run collects one invocation's metrics, accounting and check results.
type run struct {
	cfg     config
	out     io.Writer
	metrics map[string]metric
	phases  []*phase
	// problems lists every failed output check.
	problems []string
	// attempted and failed count the operations sent to the program;
	// an operation whose output fails a check counts as failed.
	attempted, failed int
	// rss samples the resident set size during the measured phase of
	// the untraced run, and rssMB holds the samples.
	rss   *rssSampler
	rssMB []float64
}

// startMeasure and endMeasure bracket the measured phase of the
// untraced run, over which rss_mean_mb is taken.
func (r *run) startMeasure() { r.rss = sampleRSS() }

func (r *run) endMeasure() { r.rssMB = append(r.rssMB, r.rss.stop()...) }

// set records a metric in the unit metricDecls gives it.
func (r *run) set(name string, v float64) {
	d, ok := metricDecls[name]
	if !ok {
		panic("perfbench: metric " + name + " is not declared in metricDecls")
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		// JSON has no NaN; an empty sample reports 0.
		r.logf("metric %s had no samples", name)
		v = 0
	}
	r.metrics[name] = metric{Value: v, Unit: d.unit}
}

// fail records one failed output check. The workload counts the
// operation it belongs to as failed.
func (r *run) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// newPhase starts the accounting of one phase.
func (r *run) newPhase(name string) *phase {
	p := &phase{name: name}
	r.phases = append(r.phases, p)
	return p
}

// logf writes one report line.
func (r *run) logf(format string, args ...any) {
	fmt.Fprintf(r.out, "perfbench: "+format+"\n", args...)
}

// execute runs the configured workload and returns its result; the
// report goes to w. An error means the benchmark could not run; failed
// output checks are reported in the result instead.
func execute(cfg config, w io.Writer) (*result, error) {
	drive, ok := workloads[cfg.workload]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(names, ", "))
	}
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	r := &run{cfg: cfg, out: w, metrics: map[string]metric{}}
	h := hostStamp(cfg.seed)
	stamp, _ := json.Marshal(h)
	r.logf("host %s", stamp)
	r.logf("workload %s seed %d seconds %g trace %v", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	if err := drive(r); err != nil {
		return nil, err
	}
	if rss := sorted(r.rssMB); len(rss) > 0 {
		r.set("rss_mean_mb", mean(rss))
		r.logf("resident set over the measured phase: mean %.1f MB, p50 %.1f MB, p90 %.1f MB, max %.1f MB (%d samples); process peak %.1f MB",
			mean(rss), percentile(rss, 50), percentile(rss, 90), rss[len(rss)-1], len(rss), peakRSSMB())
	}

	for _, p := range r.phases {
		r.logf("phase %-28s sent %6d  ok %6d  failed %4d  refused %4d", p.name, p.sent, p.ok, p.failed, p.refused)
	}
	for _, msg := range r.problems {
		r.logf("CHECK FAILED: %s", msg)
	}
	want := endToEnd
	if cfg.trace {
		want = perLayer
	}
	res := &result{
		Correct:   len(r.problems) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metric{},
	}
	names := make([]string, 0, len(metricDecls))
	for n := range metricDecls {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		d := metricDecls[n]
		m, measured := r.metrics[n]
		kind := "layer"
		if d.kind == endToEnd {
			kind = "e2e"
		}
		switch {
		case measured:
			r.logf("metric %-5s %-28s %14.6g %s", kind, n, m.Value, m.Unit)
		case d.kind == endToEnd:
			return nil, fmt.Errorf("workload %s did not measure end-to-end metric %s", cfg.workload, n)
		case want == perLayer:
			// Every traced result carries every per-layer metric; one
			// this workload does not measure reads 0.
			m = metric{Value: 0, Unit: d.unit}
			r.logf("metric %-5s %-28s %14s %s (not measured on %s)", kind, n, "0", d.unit, cfg.workload)
		}
		if d.kind == want {
			res.Metrics[n] = m
		}
	}
	if res.Attempted < 1 {
		return nil, fmt.Errorf("workload %s attempted no operation", cfg.workload)
	}
	return res, nil
}

// host records where a result was measured; absolute times do not carry
// across hosts.
type host struct {
	Seed   int64  `json:"seed"`
	Nproc  int    `json:"nproc"`
	CPU    string `json:"cpu"`
	Go     string `json:"go"`
	Commit string `json:"commit"`
}

func hostStamp(seed int64) host {
	return host{
		Seed:   seed,
		Nproc:  runtime.NumCPU(),
		CPU:    cpuModel(),
		Go:     runtime.Version(),
		Commit: commit(),
	}
}

// cpuModel reads the processor name from /proc/cpuinfo (Linux).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit names the measured source: the VCS revision the binary was
// built from when the build saw one, else a digest of the Go sources
// under the working directory (benchmark checkouts carry no VCS data).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "+dirty"
			}
			return rev
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(path), len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "src-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// cpuTime is the CPU time, user and system, the process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssEvery is the sampling period of the resident set size.
const rssEvery = 100 * time.Millisecond

// rssSampler samples the process's resident set size until stopped.
type rssSampler struct {
	quit chan struct{}
	done chan []float64
}

func sampleRSS() *rssSampler {
	s := &rssSampler{quit: make(chan struct{}), done: make(chan []float64)}
	go func() {
		var mb []float64
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		for {
			if v, ok := rssMB(); ok {
				mb = append(mb, v)
			}
			select {
			case <-s.quit:
				s.done <- mb
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// stop ends the sampling and returns the samples in megabytes.
func (s *rssSampler) stop() []float64 {
	close(s.quit)
	return <-s.done
}

// rssMB reads the current resident set size from /proc/self/statm
// (Linux), whose second field counts resident pages.
func rssMB() (float64, bool) {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, false
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0, false
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0, false
	}
	return pages * float64(os.Getpagesize()) / (1 << 20), true
}

// peakRSSMB is the process's maximum resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // kilobytes on Linux
}
