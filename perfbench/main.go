// Command perfbench is the repository benchmark. It drives the program's
// public entry points in one process and prints one JSON result line:
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads (see README.md for the make-up of their inputs):
//
//	serve-asm    one closed-loop client POSTs asm listings through an
//	             in-process gateway to two in-process backends
//	serve-mixed  two closed-loop clients send cached/uncached ACFG predicts,
//	             labelled uploads and malformed payloads to the same fleet
//	             shape, booted from state directories
//	train-wv     core.Train on the sweep-selected SortPooling +
//	             WeightedVertices model
//	train-amp    core.Train on the paper-default AdaptiveMaxPooling model
//
// With --trace 0 the result carries the end-to-end metrics, with --trace 1
// the per-layer metrics of a traced run. --steady N runs a workload N times
// in child processes and prints each end-to-end metric's median, quartiles
// and spread against its bound in BENCHMARK.json.
//
// The benchmark reads and writes only below the working directory, which
// must be the repository root: scratch state lives in .bench_build/.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// End-to-end metrics: every workload reports each of them, each measured
// on the workload's own operation (a request, or a training epoch).
var e2eUnits = map[string]string{
	"setup_s":          "s",
	"p50_ms":           "ms",
	"throughput_per_s": "1/s",
	"alloc_kb_per_op":  "KiB",
}

// Per-layer metrics of the traced run. A layer that is not on a workload's
// path reads 0 there (README.md lists which).
var layerUnits = map[string]string{
	"client.p99_ms":                "ms",
	"client.ingest_p50_ms":         "ms",
	"client.ingest_p99_ms":         "ms",
	"trace.overhead_ms":            "ms",
	"trace.serve_span_share":       "ratio",
	"trace.layer_sum_share_wv":     "ratio",
	"trace.layer_sum_share_amp":    "ratio",
	"gateway.self_ms":              "ms",
	"gateway.hop_ms":               "ms",
	"gateway.cache_hit_ratio":      "ratio",
	"service.predict_ms":           "ms",
	"service.ingest_ms":            "ms",
	"service.queue_wait_ms":        "ms",
	"service.batch_size_mean":      "count",
	"asm.parse_us":                 "us",
	"cfg.build_us":                 "us",
	"acfg.annotate_us":             "us",
	"acfg.decode_us":               "us",
	"acfg.hash_us":                 "us",
	"graph.rebuild_us":             "us",
	"graph.spmm_us":                "us",
	"core.predict_us":              "us",
	"core.train_step_wv_us":        "us",
	"core.train_step_amp_us":       "us",
	"core.graphconv_fwd_us":        "us",
	"core.graphconv_bwd_us":        "us",
	"core.sortpool_fwd_us":         "us",
	"core.sortpool_bwd_us":         "us",
	"core.wv_fwd_us":               "us",
	"core.wv_bwd_us":               "us",
	"core.workspace_mb":            "MiB",
	"nn.conv2d_fwd_us":             "us",
	"nn.conv2d_bwd_us":             "us",
	"nn.amp_fwd_us":                "us",
	"nn.amp_bwd_us":                "us",
	"nn.relu_fwd_us":               "us",
	"nn.relu_bwd_us":               "us",
	"nn.maxpool_fwd_us":            "us",
	"nn.maxpool_bwd_us":            "us",
	"nn.linear_fwd_us":             "us",
	"nn.linear_bwd_us":             "us",
	"nn.adam_step_us":              "us",
	"tensor.matmul_ta_us":          "us",
	"tensor.matmul_tb_us":          "us",
	"tensor.matmul_flops_per_step": "count",
	"corpus.append_ms":             "ms",
	"corpus.compact_ms":            "ms",
	"corpus.compactions":           "count",
	"corpus.replay_ms":             "ms",
}

// How many times a run performs its set-up; setup_s is the median, and
// only the last set-up serves the measured phase. The training set-up
// takes a fifth of a second, so it repeats more to steady its median.
const (
	serveSetups = 3
	trainSetups = 5
)

// env is what a workload gets from the command line.
type env struct {
	seed    int64
	seconds time.Duration
	trace   bool
	dir     string // per-run scratch directory under .bench_build
}

// outcome is what a workload hands back: operation counts, the metrics of
// the selected mode, and every failed output check.
type outcome struct {
	attempted, failed int64
	metrics           map[string]float64
	problems          []string
}

func newOutcome() *outcome { return &outcome{metrics: map[string]float64{}} }

func (o *outcome) problem(format string, args ...any) {
	if len(o.problems) < 50 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(*env) (*outcome, error){
	"serve-asm":   runServeASM,
	"serve-mixed": runServeMixed,
	"train-wv":    func(e *env) (*outcome, error) { return runTrain(e, false) },
	"train-amp":   func(e *env) (*outcome, error) { return runTrain(e, true) },
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 10, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	steady := fs.Int("steady", 0, "run the workload this many times (seeds seed, seed+1, …) and print the spread of every end-to-end metric")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	if _, err := os.Stat("go.mod"); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: run from the repository root")
		return 2
	}
	if *steady > 0 {
		return steadiness(*name, *seed, *seconds, *steady)
	}
	fn, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds >= 1 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	dir, err := filepath.Abs(filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid())))
	if err == nil {
		err = os.MkdirAll(dir, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	defer func() { _ = os.RemoveAll(dir) }()

	e := &env{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1, dir: dir}
	out, err := fn(e)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 2
	}
	units := e2eUnits
	if e.trace {
		units = layerUnits
	}
	res := result{Correct: len(out.problems) == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metricValue{}}
	for m, unit := range units {
		v, ok := out.metrics[m]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: %s did not measure %s\n", *name, m)
			return 2
		}
		res.Metrics[m] = metricValue{Value: v, Unit: unit}
	}
	if res.Attempted < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: %s attempted no operation\n", *name)
		return 2
	}
	for _, p := range out.problems {
		fmt.Fprintln(os.Stderr, "check failed:", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// logf reports progress on standard error; standard output carries only
// the result line.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}
