// Command wfqbench is the repository benchmark. It drives the public
// wfqsort API through three closed-loop workloads, checks the
// program's outputs with correctness gates, and prints one JSON result
// line as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run records spans and reports the per-layer ones. Both write a result
// file (and the traced run a span file) under -out. See README.md in
// this directory for the workloads and what each metric should move.
//
// Build and run it from the repository root with
//
//	bash wfqbench/run.sh --workload timers-16k --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the engine or the sorter sees,
// reported by every workload with -trace 0.
var endToEnd = []metricDef{
	{"rtt_p50_us", "us"},
	{"rtt_p90_us", "us"},
	{"served_per_s", "1/s"},
	{"ops_per_s", "1/s"},
	{"sorter_heap_mb", "MiB"},
	{"modeled_cycles_per_op", "cycles"},
	{"setup_s", "s"},
}

// perLayer are the per-layer metrics reported with -trace 1. A layer a
// workload does not reach through the public API reports 0 there.
var perLayer = []metricDef{
	{"engine.submit_ns.p50", "ns"},
	{"engine.submit_ns.p99", "ns"},
	{"engine.serve_wait_us.p50", "us"},
	{"engine.serve_wait_us.p99", "us"},
	{"engine.avg_batch", "ops"},
	{"engine.idle_polls_per_pkt", "count"},
	{"engine.merge_forced_per_pkt", "count"},
	{"ring.occupancy_mean", "pkts"},
	{"sharded.lane_imbalance", "ratio"},
	{"membus.modeled_cycles_per_pkt", "cycles"},
	{"membus.stall_frac", "ratio"},
	{"core.insert_ns.p50", "ns"},
	{"core.insert_ns.p99", "ns"},
	{"core.remove_ns.p50", "ns"},
	{"core.remove_ns.p99", "ns"},
	{"core.extract_ns.p50", "ns"},
	{"core.extract_ns.p99", "ns"},
	{"core.busy_frac", "ratio"},
	{"trie.node_reads_per_op", "count"},
	{"trie.node_writes_per_op", "count"},
	{"trie.max_depth", "levels"},
	{"transtable.accesses_per_op", "count"},
	{"taglist.accesses_per_op", "count"},
	{"taglist.accesses_per_remove", "count"},
	{"membus.accesses_per_insert", "count"},
	{"membus.accesses_per_remove", "count"},
	{"membus.accesses_per_extract", "count"},
	{"membus.cycles_per_insert", "cycles"},
	{"membus.cycles_per_remove", "cycles"},
	{"membus.cycles_per_extract", "cycles"},
	{"membus.stall_cycles_per_op", "cycles"},
}

// config sizes one run. defaultConfig gives the benchmark's sizes; the
// smoke test shrinks them.
type config struct {
	Workload string
	Seed     int64
	Duration time.Duration // measured phase
	Trace    bool
	Windows  int           // sub-windows of the measured phase
	Warmup   time.Duration // unmeasured load before the first window
	Setups   int           // set-up repetitions; setup_s is their median
	// SampleEvery keeps the latency samples of every SampleEvery-th
	// packet or timer step, bounding memory on long runs; SpanEvery
	// traces every SpanEvery-th one.
	SampleEvery, SpanEvery int64

	Outstanding int // engine: packets in flight

	Live        int // timers: armed timers held live
	PrefixSteps int // timers: deterministic steps measured for modelled cycles
}

type workload struct {
	name string
	run  func(config) (*report, error)
	def  config
}

var workloads = []workload{
	{"engine-rtt", runEngine,
		config{Outstanding: 1, Setups: 25, SampleEvery: 1, SpanEvery: 64, Warmup: 500 * time.Millisecond}},
	{"engine-window", runEngine,
		config{Outstanding: 512, Setups: 25, SampleEvery: 4, SpanEvery: 256, Warmup: 500 * time.Millisecond}},
	{"timers-16k", runTimers,
		config{Live: 1 << 14, Setups: 9, SampleEvery: 2, SpanEvery: 64, PrefixSteps: 50_000, Warmup: 200 * time.Millisecond}},
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// runWorkload runs the workload cfg names.
func runWorkload(cfg config) (*report, error) {
	w, _ := lookup(cfg.Workload)
	return w.run(cfg)
}

func defaultConfig(name string, seed int64, seconds float64, trace bool) (config, error) {
	w, ok := lookup(name)
	if !ok {
		return config{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames(), ", "))
	}
	if seconds <= 0 {
		return config{}, fmt.Errorf("seconds %v must be positive", seconds)
	}
	cfg := w.def
	cfg.Workload, cfg.Seed, cfg.Trace = name, seed, trace
	cfg.Duration = time.Duration(seconds * float64(time.Second))
	cfg.Windows = int(seconds)
	if cfg.Windows < 1 {
		cfg.Windows = 1
	}
	return cfg, nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// gate is one correctness check. A failed gate fails the run and counts
// as one failed operation.
type gate struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// report is one run's outcome, written to the result file.
type report struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Traced    bool              `json:"traced"`
	Seconds   float64           `json:"seconds"`
	Attempted int64             `json:"attempted"`
	FailedOps int64             `json:"failed_ops"`
	Gates     []gate            `json:"gates"`
	EndToEnd  map[string]metric `json:"end_to_end"`
	Layers    map[string]metric `json:"per_layer,omitempty"`
	Setups    []float64         `json:"setup_s_each"`
	// Charges is timers-16k's modelled cost per op kind over the
	// deterministic prefix, counted two ways: by the fabric regions and
	// by Sorter.StatsSnapshot's component counters.
	Charges map[string]charge `json:"charges,omitempty"`
	// Windows holds the per-window values behind the medians.
	Windows map[string][]float64 `json:"windows"`
	Host    host                 `json:"host"`
	// UntracedEndToEnd holds the end-to-end metrics of the untraced run
	// of the same workload and seed, when its result file exists, so
	// the tracing overhead reads off side by side.
	UntracedEndToEnd map[string]metric `json:"untraced_end_to_end,omitempty"`

	spans *tracer
}

func newReport(cfg config) *report {
	rep := &report{
		Workload: cfg.Workload,
		Seed:     cfg.Seed,
		Traced:   cfg.Trace,
		Seconds:  cfg.Duration.Seconds(),
		EndToEnd: map[string]metric{},
		Host:     hostInfo(),
	}
	if cfg.Trace {
		rep.Layers = map[string]metric{}
		for _, d := range perLayer {
			rep.Layers[d.name] = metric{Unit: d.unit}
		}
	}
	return rep
}

// check records a correctness gate.
func (r *report) check(name string, ok bool, format string, args ...any) {
	r.Gates = append(r.Gates, gate{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

func (r *report) setE2E(name string, v float64) {
	r.EndToEnd[name] = metric{Value: v, Unit: unitOf(endToEnd, name)}
}

// setLayer records a per-layer metric; untraced runs keep none. A
// ratio over zero operations, from a layer the run never reached,
// reads 0 like the layers a workload bypasses.
func (r *report) setLayer(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	if r.Layers != nil {
		r.Layers[name] = metric{Value: v, Unit: unitOf(perLayer, name)}
	}
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.name == name {
			return d.unit
		}
	}
	panic("wfqbench: undeclared metric " + name)
}

func (r *report) failed() int64 {
	n := r.FailedOps
	for _, g := range r.Gates {
		if !g.OK {
			n++
		}
	}
	return n
}

// result is the final stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *report) result() (result, error) {
	defs, src := endToEnd, r.EndToEnd
	if r.Traced {
		defs, src = perLayer, r.Layers
	}
	out := result{
		Attempted: r.Attempted,
		Failed:    r.failed(),
		Metrics:   make(map[string]metric, len(defs)),
	}
	out.Correct = out.Failed == 0
	for _, d := range defs {
		m, ok := src[d.name]
		if !ok {
			return result{}, fmt.Errorf("%s: metric %s not measured", r.Workload, d.name)
		}
		out.Metrics[d.name] = m
	}
	for _, d := range endToEnd {
		if _, ok := r.EndToEnd[d.name]; !ok {
			return result{}, fmt.Errorf("%s: metric %s not measured", r.Workload, d.name)
		}
	}
	return out, nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("wfqbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "length of the measured phase")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	outDir := fs.String("out", filepath.Join(".bench_build", "wfqbench-results"), "directory for result and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "wfqbench: -trace %d must be 0 or 1\n", *trace)
		return 2
	}
	cfg, err := defaultConfig(*name, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintf(stderr, "wfqbench: %v\n", err)
		return 2
	}
	rep, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "wfqbench: %s: %v\n", cfg.Workload, err)
		return 1
	}
	res, err := rep.result()
	if err != nil {
		fmt.Fprintf(stderr, "wfqbench: %v\n", err)
		return 1
	}
	if err := writeFiles(rep, *outDir); err != nil {
		fmt.Fprintf(stderr, "wfqbench: %v\n", err)
		return 1
	}
	printSummary(stdout, rep)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "wfqbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// writeFiles stores the result file, and for a traced run the span
// file, under dir. A traced run reads the untraced result of the same
// workload and seed, when one exists, and records it beside its own.
func writeFiles(rep *report, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := fmt.Sprintf("%s.seed%d", rep.Workload, rep.Seed)
	if rep.Traced {
		prev, err := os.ReadFile(filepath.Join(dir, base+".json"))
		switch {
		case err == nil:
			var untraced report
			if err := json.Unmarshal(prev, &untraced); err != nil {
				return fmt.Errorf("read untraced result: %w", err)
			}
			rep.UntracedEndToEnd = untraced.EndToEnd
		case !errors.Is(err, os.ErrNotExist):
			return err
		}
		if err := rep.spans.write(filepath.Join(dir, base+".spans.jsonl")); err != nil {
			return err
		}
		base += ".traced"
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, base+".json"), append(buf, '\n'), 0o644)
}

// printSummary writes the human-readable lines that precede the result
// line: host, gates, and every end-to-end metric (in a traced run too,
// so tracing overhead shows against the untraced run).
func printSummary(w io.Writer, rep *report) {
	h := rep.Host
	fmt.Fprintf(w, "wfqbench %s seed %d traced=%v: nproc %d, GOMAXPROCS %d, %s, %s, steal %.4f\n",
		rep.Workload, rep.Seed, rep.Traced, h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.CPUModel, h.StealFrac)
	for _, g := range rep.Gates {
		status := "ok"
		if !g.OK {
			status = "FAILED"
		}
		fmt.Fprintf(w, "  gate %-22s %-6s %s\n", g.Name, status, g.Detail)
	}
	for _, d := range endToEnd {
		line := fmt.Sprintf("  %-22s %14.4f %s", d.name, rep.EndToEnd[d.name].Value, d.unit)
		if u, ok := rep.UntracedEndToEnd[d.name]; ok {
			line += fmt.Sprintf("   (untraced %.4f)", u.Value)
		}
		fmt.Fprintln(w, line)
	}
	if p99, ok := rep.Windows["rtt_p99_us"]; ok {
		fmt.Fprintf(w, "  %-22s %14.4f us (no bound; per window in the result file)\n", "rtt_p99_us", median(p99))
	}
	if rep.Traced {
		for _, d := range perLayer {
			fmt.Fprintf(w, "  %-30s %14.4f %s\n", d.name, rep.Layers[d.name].Value, d.unit)
		}
	}
}
