// Command benchmark is the repository's wall-clock, layer-attributed
// benchmark of the gear-shifted replicated log. One command runs every
// workload, checks every output, and prints every metric by name with
// its unit:
//
//	go run ./cmd/benchmark -seed 1 -out r.json
//
// Per workload it runs a closed-loop client population against a fresh
// log — one discarded warm-up, five measured runs with tracing off for
// the end-to-end metrics, then three traced/untraced pairs for the
// per-layer metrics — and finally the standalone layer matrix (-layers).
// It measures every layer from outside, by timing calls into exported
// functions; README.md in this directory defines each metric and
// workload and how to read the trace.
//
// BENCHMARK.json drives the same program one workload at a time:
//
//	go run ./cmd/benchmark -workload steady-n7 -seed 3 -seconds 10 -trace 0
//
// measures for about -seconds seconds (a run's size is fixed; only the
// number of runs follows the budget) and prints, as the last line of
// standard output, one JSON object with the end-to-end metrics (-trace 0)
// or the traced runs' per-layer metrics (-trace 1).
//
//	go run ./cmd/benchmark -check A.json B.json
//
// compares two -out files metric by metric against the bounds recorded
// in BENCHMARK.json and exits non-zero if B is worse than A anywhere.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// header records what a result file was measured on.
type header struct {
	Seed       int64  `json:"seed"`
	Quick      bool   `json:"quick"`
	GoMaxProcs int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	GoVersion  string `json:"go"`
}

// results is the -out file.
type results struct {
	Header    header            `json:"header"`
	Workloads []*workloadResult `json:"workloads"`
	Layers    map[string]metric `json:"layers,omitempty"`
}

// driverLine is the last line of standard output under -workload.
type driverLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "measure only this workload and end with one JSON line (the BENCHMARK.json contract); empty runs them all")
		seed    = fs.Int64("seed", 1, "seed of the command streams and of the workloads' seeded faults")
		seconds = fs.Float64("seconds", 0, "repeat each workload's run for about this long instead of a fixed number of times")
		traced  = fs.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics (tracing off), 1 the per-layer metrics (traced runs)")
		out     = fs.String("out", "", "write the results as JSON to this file")
		spans   = fs.String("spans", "", "write the last traced run's span tree to this file as JSON lines")
		layers  = fs.Bool("layers", true, "without -workload: run the standalone layer matrix")
		quick   = fs.Bool("quick", false, "tiny sizes: a smoke test of every path, not a measurement")
		check   = fs.Bool("check", false, "compare two -out files: -check A.json B.json")
		spec    = fs.String("spec", "BENCHMARK.json", "with -check: the file that records each metric's bound")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *check {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -check needs two result files")
			return 2
		}
		return checkFiles(stdout, stderr, *spec, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "benchmark: unexpected arguments %v\n", fs.Args())
		return 2
	}

	// A fixed, small processor count: the drive loop is sequential, and
	// what varies between boxes should not vary the load model.
	procs := runtime.NumCPU()
	if procs > 2 {
		procs = 2
	}
	runtime.GOMAXPROCS(procs)
	o := options{seed: *seed, quick: *quick, spans: *spans}
	res := &results{Header: header{
		Seed: *seed, Quick: *quick, GoMaxProcs: procs, NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(),
	}}
	fmt.Fprintf(stdout, "benchmark: seed=%d gomaxprocs=%d nproc=%d %s quick=%v\n", *seed, procs, runtime.NumCPU(), runtime.Version(), *quick)

	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *name)
			return 2
		}
		return runDriver(stdout, stderr, w, o, *seconds, *traced == 1)
	}

	ok := true
	for _, w := range workloads {
		wr := measureEndToEnd(w, o, runBudget(*seconds, *quick))
		lr := measureLayers(w, o, pairBudget(*seconds, *quick))
		wr.merge(lr)
		printWorkload(stdout, wr)
		res.Workloads = append(res.Workloads, wr)
		ok = ok && wr.Correct
	}
	if *layers {
		m, err := layerMatrix(*seed, matrixTimer(*quick), *quick)
		if err != nil {
			fmt.Fprintf(stdout, "== layers: FAILED: %v\n", err)
			ok = false
		} else {
			res.Layers = toMetrics(kernelDefs(), m)
			fmt.Fprintln(stdout, "== layers")
			printMetrics(stdout, kernelDefs(), res.Layers)
		}
	}
	if *out != "" {
		if err := writeJSON(*out, res); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	if !ok {
		fmt.Fprintln(stdout, "benchmark: FAILED: an output check did not hold (see above)")
		return 1
	}
	fmt.Fprintln(stdout, "benchmark: ok: every output check held")
	return 0
}

// runBudget is the untraced phase's: R = 5 measured runs, or under
// -seconds at least three and then as many as fit. pairBudget is the
// traced phase's: three traced/untraced pairs, so that
// trace.overhead_share is a median and not one pair's noise, or as many
// as fit in -seconds. -quick runs each once.
func runBudget(seconds float64, quick bool) budget {
	switch {
	case quick:
		return budget{min: 1}
	case seconds > 0:
		return budget{min: 3, seconds: seconds}
	}
	return budget{min: 5}
}

func pairBudget(seconds float64, quick bool) budget {
	if quick {
		return budget{min: 1}
	}
	return budget{min: 3, seconds: seconds}
}

// matrixTimer sizes the layer matrix's loops: 200 ms, median of 5.
func matrixTimer(quick bool) layerTimer {
	if quick {
		return layerTimer{loop: 200 * time.Microsecond, samples: 1}
	}
	return layerTimer{loop: 200 * time.Millisecond, samples: 5}
}

// runDriver measures one workload under the BENCHMARK.json contract and
// ends standard output with the result line.
func runDriver(stdout, stderr io.Writer, w workload, o options, seconds float64, traced bool) int {
	var wr *workloadResult
	var measured map[string]metric
	defs := endToEnd
	if !traced {
		wr = measureEndToEnd(w, o, runBudget(seconds, o.quick))
		measured = wr.EndToEnd
	} else {
		wr = measureLayers(w, o, pairBudget(seconds, o.quick))
		measured, defs = wr.PerLayer, perLayer()
	}
	printWorkload(stdout, wr)
	line := driverLine{Correct: wr.Correct, Attempted: wr.Attempted, Failed: wr.Failed, Metrics: map[string]metric{}}
	if line.Attempted < 1 {
		line.Attempted = 1
	}
	// The contract's line carries the metrics BENCHMARK.json lists, as
	// value and unit only.
	for _, d := range defs {
		line.Metrics[d.name] = metric{Value: measured[d.name].Value, Unit: d.unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	if !wr.Correct {
		return 1
	}
	return 0
}

// merge folds the traced phase's result into the untraced phase's.
func (wr *workloadResult) merge(lr *workloadResult) {
	wr.Attempted += lr.Attempted
	wr.Failed += lr.Failed
	wr.Pending += lr.Pending
	wr.Problems = append(wr.Problems, lr.Problems...)
	wr.PerLayer = lr.PerLayer
	wr.finish()
}

func toMetrics(defs []metricDef, m map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		if v, ok := m[d.name]; ok {
			out[d.name] = metric{Value: v, Unit: d.unit}
		}
	}
	return out
}

func printWorkload(w io.Writer, wr *workloadResult) {
	fmt.Fprintf(w, "== %s: %d runs, attempted %d, failed %d, pending %d, %d latency samples\n",
		wr.Name, wr.Runs, wr.Attempted, wr.Failed, wr.Pending, wr.Samples)
	for _, p := range wr.Problems {
		fmt.Fprintf(w, "  PROBLEM %s\n", p)
	}
	fmt.Fprintf(w, "  %-36s %14.6g %s\n", "failed_share", ratio(float64(wr.Failed), float64(wr.Attempted)), "ratio")
	printMetrics(w, endToEnd, wr.EndToEnd)
	printMetrics(w, inRun, wr.PerLayer)
}

func printMetrics(w io.Writer, defs []metricDef, m map[string]metric) {
	for _, d := range defs {
		if v, ok := m[d.name]; ok {
			fmt.Fprintf(w, "  %-36s %14.6g %s\n", d.name, v.Value, v.Unit)
		}
	}
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
