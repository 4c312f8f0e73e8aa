package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"

	"repro/internal/telemetry"
)

// Benchmark spans. The traced run records a span around each of the
// benchmark's own calls into a layer, in a telemetry.Metrics of its own
// that the program never sees. Every goroutine pushes and pops on its
// own telemetry.Stack, and the shared span tree folds the scopes by
// path with their count, cumulative and self time. Untraced runs use
// the nil Stack, which records nothing.

// newStack returns a span stack over spans, or nil when spans is nil.
func newStack(spans *telemetry.Metrics) *telemetry.Stack {
	if spans == nil {
		return nil
	}
	return spans.SpanTree().NewStack()
}

// spanNode returns the span-tree node at path, or nil.
func spanNode(spans *telemetry.Metrics, path string) *telemetry.TreeNode {
	var found *telemetry.TreeNode
	spans.SpanTree().Walk(func(n *telemetry.TreeNode, _ int) {
		if n.Path() == path {
			found = n
		}
	})
	return found
}

// reportSpans writes the span tree, one path per line.
func reportSpans(r *run, spans *telemetry.Metrics) {
	spans.SpanTree().Walk(func(n *telemetry.TreeNode, depth int) {
		r.logf("span %-32s count %7d  total %10.3f s  self %10.3f s  p50 %9.3f ms",
			strings.Repeat("  ", depth)+n.Name(), n.Count(), n.Cum().Seconds(), n.Self().Seconds(),
			ms(spans.SpanQuantile("tree/"+n.Path(), 0.5)))
	})
}

// profiler captures a CPU profile in memory.
type profiler struct {
	buf bytes.Buffer
}

func startProfile() (*profiler, error) {
	p := &profiler{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return p, nil
}

// stop ends the profile and returns each layer's share of the sampled
// CPU time.
func (p *profiler) stop() (map[string]float64, error) {
	pprof.StopCPUProfile()
	return cpuShares(p.buf.Bytes())
}

// CPU layers. A sample is charged to the first layer found walking its
// stack from the leaf: a repository package is its own layer, the
// benchmark's own code is "bench", and HTTP and JSON work on a
// connection is "http_json". Standard-library helpers such as math,
// sort and the runtime allocator, and the repository's normal
// distribution helpers in dist, are charged to their caller, so the
// stats layer includes the dist.CDF and math.Erfc it calls. Garbage
// collection ("gc") and checkpoint writing ("checkpoint") are charged
// wherever they appear in the stack.
const repoPrefix = "repro/internal/"

// helperPackages are repository packages charged to their caller.
var helperPackages = map[string]bool{repoPrefix + "dist": true}

// httpPackages are the packages of the HTTP/JSON layer.
var httpPackages = map[string]bool{
	"net/http": true, "net": true, "net/textproto": true, "net/url": true,
	"mime": true, "encoding/json": true,
}

// layerOf classifies one sample's stack (function names, leaf first).
func layerOf(stack []string) string {
	onConn := false
	for _, fn := range stack {
		switch {
		case strings.HasPrefix(fn, "runtime.gcBgMarkWorker"), strings.HasPrefix(fn, "runtime.gcAssistAlloc"),
			strings.HasPrefix(fn, "runtime.bgsweep"), strings.HasPrefix(fn, "runtime.bgscavenge"):
			return "gc"
		case strings.HasPrefix(fn, repoPrefix+"checkpoint."), strings.Contains(fn, "Checkpoint"):
			return "checkpoint"
		case strings.HasPrefix(fn, "net/http."):
			onConn = true
		}
	}
	for _, fn := range stack {
		pkg := funcPackage(fn)
		switch {
		case strings.HasPrefix(pkg, repoPrefix) && !helperPackages[pkg]:
			return strings.TrimPrefix(pkg, repoPrefix)
		case pkg == "main":
			return "bench"
		case httpPackages[pkg] && (onConn || pkg != "encoding/json"):
			return "http_json"
		}
	}
	return "other"
}

// funcPackage returns the import path of a pprof function name such as
// "repro/internal/stats.Max2" or "encoding/json.(*decodeState).value".
func funcPackage(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	if i := strings.IndexByte(fn[slash+1:], '.'); i >= 0 {
		return fn[:slash+1+i]
	}
	return fn
}

// cpuShares decodes a gzipped runtime/pprof CPU profile and returns
// each layer's share of the sampled CPU time. Only the profile.proto
// fields needed for that are read.
func cpuShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type sample struct {
		locs  []uint64
		value int64
	}
	var (
		strs    []string
		samples []sample
		funcs   = map[uint64]int64{}    // function id -> name string index
		locs    = map[uint64][]uint64{} // location id -> function ids, leaf first
	)
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			var vals []uint64
			err := fields(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					s.locs = varints(s.locs, v, b)
				case 2:
					vals = varints(vals, v, b)
				}
				return nil
			})
			if len(vals) > 0 {
				s.value = int64(vals[len(vals)-1]) // CPU nanoseconds
			}
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := fields(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // Line
					return fields(b, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := fields(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	shares := map[string]float64{}
	var total float64
	for _, s := range samples {
		var stack []string
		for _, l := range s.locs {
			for _, f := range locs[l] {
				if i := funcs[f]; i >= 0 && int(i) < len(strs) {
					stack = append(stack, strs[i])
				}
			}
		}
		shares[layerOf(stack)] += float64(s.value)
		total += float64(s.value)
	}
	if total > 0 {
		for k := range shares {
			shares[k] /= total
		}
	}
	return shares, nil
}

// fields walks the protobuf fields of msg, passing each field's number
// and its varint value or length-delimited bytes.
func fields(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		tag, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad protobuf tag")
		}
		msg = msg[n:]
		num, wire := int(tag>>3), tag&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("bad protobuf varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("short protobuf fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("bad protobuf length")
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("short protobuf fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("protobuf wire type %d", wire)
		}
		if err := fn(num, v, b); err != nil {
			return err
		}
	}
	return nil
}

// varints appends a repeated varint field given either unpacked (one
// value) or packed (bytes).
func varints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
