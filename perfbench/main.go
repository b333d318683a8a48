// Command perfbench is the repository's end-to-end benchmark. It
// generates seeded IR text, runs one workload against the Mahjong
// pipeline for a fixed time, checks every output against references
// that do not come from the code under test, and prints its metrics as
// one JSON object on the last line of standard output:
//
//	perfbench --workload cold-pipeline --seed 1 --seconds 12 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of BENCHMARK.json;
// with --trace 1 it alternates plain ops with ops that put a
// benchmark-owned span around every call into a layer, reports the
// per-layer metrics, and writes the spans to
// .bench_build/trace-<workload>-<seed>.json. It exits 1 when an output
// check fails and 2 on a usage error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd and perLayer are the metrics BENCHMARK.json declares, in its
// order; TestBenchmarkJSONMatches keeps the two in step.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_ms_p50", "ms"},
	{"ops_per_s", "1/s"},
	{"alloc_mb_per_op", "MB"},
	{"peak_rss_mb", "MB"},
	{"ok_rate", "ratio"},
	{"heap_objects", "count"},
	{"call_graph_edges", "count"},
	{"poly_call_sites", "count"},
	{"may_fail_casts", "count"},
	{"reachable_methods", "count"},
}

var perLayer = []metricDef{
	{"parse.ms", "ms"},
	{"parse.mb_per_s", "MB/s"},
	{"pre.ms", "ms"},
	{"pre.alloc_mb", "MB"},
	{"pre.nodes", "count"},
	{"pre.edges", "count"},
	{"pre.propagated_bits", "count"},
	{"pre.scc_passes", "count"},
	{"pre.collapse_yield", "count"},
	{"fpg.ms", "ms"},
	{"fpg.alloc_mb", "MB"},
	{"fpg.field_facts", "count"},
	{"model.ms", "ms"},
	{"model.merge_pairs", "count"},
	{"model.dfa_states", "count"},
	{"main.ms", "ms"},
	{"main.alloc_mb", "MB"},
	{"main.nodes", "count"},
	{"main.work", "count"},
	{"main.cs_objects", "count"},
	{"clients.ms", "ms"},
	{"edit.diff.ms", "ms"},
	{"edit.solve.ms", "ms"},
	{"edit.fpg.ms", "ms"},
	{"edit.model.ms", "ms"},
	{"edit.seeded_facts", "count"},
	{"edit.reused_groups", "count"},
	{"edit.remerged_groups", "count"},
	{"edit.warm_ratio", "ratio"},
	{"daemon.submit.ms", "ms"},
	{"daemon.done.ms", "ms"},
	{"daemon.op_ms_p95", "ms"},
	{"daemon.cache_hit_ratio", "ratio"},
	{"daemon.cache_load.ms", "ms"},
	{"daemon.cache_bytes", "bytes"},
	{"gc.cpu_fraction", "ratio"},
	{"trace.overhead", "ratio"},
	{"trace.coverage", "ratio"},
}

var workloads = map[string]func(*bench) error{
	"cold-pipeline": coldPipeline,
	"deep-context":  deepContext,
	"edit-session":  editSession,
	"daemon-repeat": daemonRepeat,
}

// bench is the state of one run: its arguments, what it measured, and
// which output checks failed.
type bench struct {
	seed    int64
	seconds float64
	trace   bool
	// rec records the spans of a traced run; nil otherwise.
	rec *recorder

	setupS    []float64
	attempted int
	failed    int
	problems  []string
	values    map[string]float64
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Float64("seconds", 12, "measured seconds (twice that when traced)")
	traced := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: need --workload one of %s, --seconds > 0, --trace 0|1\n", strings.Join(names, ", "))
		return 2
	}
	b := &bench{seed: *seed, seconds: *seconds, trace: *traced == 1, values: map[string]float64{}}
	if err := knownAnswerGate(); err != nil {
		b.problem("known-answer gate: %v", err)
	}
	if err := w(b); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	if b.trace {
		path := filepath.Join(".bench_build", fmt.Sprintf("trace-%s-%d.json", *workload, *seed))
		summary := map[string]any{"workload": *workload, "seed": *seed, "metrics": b.values}
		if err := b.rec.write(path, summary); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing trace: %v\n", err)
			return 1
		}
		fmt.Printf("trace: %s\n", path)
	}
	return b.report()
}

func (b *bench) problem(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	b.problems = append(b.problems, msg)
	fmt.Printf("CHECK FAILED: %s\n", msg)
}

func (b *bench) set(name string, v float64) { b.values[name] = v }

// report prints the metrics of this kind of run, one per line, then the
// result object; it returns the exit code.
func (b *bench) report() int {
	defs := endToEnd
	if b.trace {
		defs = perLayer
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: len(b.problems) == 0, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		v, ok := b.values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			b.problem("metric %s was not measured", d.name)
			v = 0
		}
		out.Metrics[d.name] = metric{v, d.unit}
		fmt.Printf("%-24s %14.4f %s\n", d.name, v, d.unit)
	}
	out.Correct = len(b.problems) == 0
	data, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(data))
	if !out.Correct {
		return 1
	}
	return 0
}

// phase is what one measured loop of operations produced.
type phase struct {
	opsMS   []float64
	elapsed time.Duration
	alloc   uint64
	gcCPU   float64
	cpu     float64
	failed  int
}

func (p *phase) add(q phase) {
	p.opsMS = append(p.opsMS, q.opsMS...)
	p.elapsed += q.elapsed
	p.alloc += q.alloc
	p.gcCPU += q.gcCPU
	p.cpu += q.cpu
	p.failed += q.failed
}

// measure brackets a stretch of work with process counter readings.
func measure(work func() phase) phase {
	runtime.GC()
	s0 := snapshot()
	p := work()
	s1 := snapshot()
	p.elapsed = s1.at.Sub(s0.at)
	p.alloc = s1.alloc - s0.alloc
	p.gcCPU = s1.gcCPU - s0.gcCPU
	p.cpu = s1.totalCPU - s0.totalCPU
	return p
}

// loop runs op, one call at a time, until seconds are used and at
// least minOps calls were made.
func (b *bench) loop(minOps int, seconds float64, op func(i int) error) phase {
	limit := time.Duration(seconds * float64(time.Second))
	return measure(func() phase {
		var p phase
		start := time.Now()
		for i := 0; i < minOps || time.Since(start) < limit; i++ {
			t := time.Now()
			err := op(i)
			p.opsMS = append(p.opsMS, msSince(t))
			if err != nil {
				p.failed++
				fmt.Printf("op %d failed: %v\n", i, err)
			}
		}
		b.attempted += len(p.opsMS)
		b.failed += p.failed
		return p
	})
}

// measureOps runs a workload's ops. Untraced, it runs plain ops for the
// run's seconds and sets the end-to-end timing metrics. Traced, it
// alternates plain and traced ops for twice as long, so that both see
// the same machine, and sets the per-layer metrics.
func (b *bench) measureOps(minOps int, plain, traced func(i int) error) {
	if !b.trace {
		b.endToEndFrom(b.loop(minOps, b.seconds, plain))
		return
	}
	b.rec = newRecorder()
	all := b.loop(2*minOps, 2*b.seconds, func(i int) error {
		if i%2 == 0 {
			return plain(i / 2)
		}
		return traced(i / 2)
	})
	var p, t []float64
	for i, ms := range all.opsMS {
		if i%2 == 0 {
			p = append(p, ms)
		} else {
			t = append(t, ms)
		}
	}
	b.tracedFrom(all, p, t)
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// setup runs fn n times and records each duration; setup_s is their
// median, so work moved out of the measured operation into set-up shows.
func (b *bench) setup(n int, fn func() error) error {
	for i := 0; i < n; i++ {
		t := time.Now()
		if err := fn(); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		b.setupS = append(b.setupS, time.Since(t).Seconds())
	}
	return nil
}

// endToEndFrom sets the timing metrics of an untraced phase.
func (b *bench) endToEndFrom(p phase) {
	n := float64(len(p.opsMS))
	b.set("setup_s", median(b.setupS))
	b.set("op_ms_p50", median(p.opsMS))
	b.set("ops_per_s", n/p.elapsed.Seconds())
	b.set("alloc_mb_per_op", float64(p.alloc)/n/1e6)
	b.set("peak_rss_mb", peakRSSMB())
	b.set("ok_rate", (n-float64(p.failed))/n)
}

// tracedFrom sets the per-layer metrics of a traced run from its spans,
// the GC share of all its ops, and the tracing overhead from the median
// traced and plain op times.
func (b *bench) tracedFrom(all phase, plainMS, tracedMS []float64) {
	gc := 0.0
	if all.cpu > 0 {
		gc = all.gcCPU / all.cpu
	}
	b.set("gc.cpu_fraction", gc)
	b.set("trace.overhead", median(tracedMS)/median(plainMS)-1)
	b.set("trace.coverage", b.rec.coverage())
	b.layerMetrics()
	fmt.Printf("traced ops %d, plain ops %d, tracing overhead %.2f%%, span coverage %.1f%%\n",
		len(tracedMS), len(plainMS), 100*b.values["trace.overhead"], 100*b.values["trace.coverage"])
}

// layerGroups names, for each per-layer metric prefix, the spans it is
// computed from. The incremental path's stages also count towards the
// generic layer they are an instance of.
var layerGroups = map[string][]string{
	"parse":             {"parse"},
	"pre":               {"pre", "edit.solve"},
	"fpg":               {"fpg", "edit.fpg"},
	"model":             {"model", "edit.model"},
	"main":              {"main"},
	"clients":           {"clients"},
	"edit":              {"edit.solve", "edit.model"},
	"edit.diff":         {"edit.diff"},
	"edit.solve":        {"edit.solve"},
	"edit.fpg":          {"edit.fpg"},
	"edit.model":        {"edit.model"},
	"daemon.submit":     {"daemon.submit"},
	"daemon.done":       {"daemon.done"},
	"daemon.cache_load": {"daemon.cache_load"},
}

// layerMetrics turns the recorded spans into per-layer metrics: times
// and allocations are medians per call, counts the median of what the
// calls returned. A layer the workload never calls reads 0.
func (b *bench) layerMetrics() {
	for _, d := range perLayer {
		if _, done := b.values[d.name]; done {
			continue
		}
		dot := strings.LastIndexByte(d.name, '.')
		group, field := d.name[:dot], d.name[dot+1:]
		names, ok := layerGroups[group]
		if !ok {
			// Set by the workload that has this layer; 0 elsewhere.
			b.set(d.name, 0)
			continue
		}
		var xs []float64
		for _, s := range b.rec.byName(names...) {
			switch field {
			case "ms":
				xs = append(xs, float64(s.DurNS)/1e6)
			case "alloc_mb":
				xs = append(xs, float64(s.AllocBytes)/1e6)
			case "mb_per_s":
				xs = append(xs, float64(s.Counts["bytes"])/1e6/(float64(s.DurNS)/1e9))
			case "collapse_yield":
				if passes := s.Counts["scc_passes"]; passes > 0 {
					xs = append(xs, float64(s.Counts["collapsed_nodes"])/float64(passes))
				} else {
					xs = append(xs, 0)
				}
			default:
				xs = append(xs, float64(s.Counts[field]))
			}
		}
		b.set(d.name, median(xs))
	}
}
