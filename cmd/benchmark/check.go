package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// specFile is BENCHMARK.json: the contract the driver runs the benchmark
// by, and the one place each end-to-end metric's bound is recorded.
type specFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// absFloor is the absolute change below which a metric is never called
// worse, whatever its relative bound says: set-up takes milliseconds, and
// a quarter of a few milliseconds is scheduler noise.
var absFloor = map[string]float64{"setup_s": 0.005}

// logical are the metrics made of the lockstep schedule's counters. The
// program fails a run set whose runs disagree on them, so they have no
// run-to-run spread, and two files of one seed and size must agree on
// them exactly: the bound in BENCHMARK.json only covers what another
// seed's fault plan may change.
var logical = map[string]bool{"cmds_per_tick": true, "bytes_per_cmd": true}

// Verdicts of one workload × metric row.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge compares B against A for one metric and returns the verdict with
// the bound it applied. B is worse when its value is worse than A's, in
// the metric's direction, by more than the bound as a share of A's (and
// by more than the metric's absolute floor); sameInputs — the two files
// share seed and size — makes the bound of a logical metric zero. A
// timing row that is not worse is unresolved, not ok, when either side
// has too few runs for quartiles or a run-to-run spread wider than the
// bound: the comparison could not have seen a regression of the size the
// bound forbids.
func judge(sm specMetric, a, b metric, sameInputs bool) (verdict string, change, noise, bound float64) {
	bound = sm.Bound
	if logical[sm.Name] && sameInputs {
		bound = 0
	}
	change = ratio(b.Value-a.Value, math.Abs(a.Value))
	worsening := change
	if sm.Better == "higher" {
		worsening = -change
	}
	noise = math.Max(spread(a.Runs), spread(b.Runs))
	switch {
	case worsening > bound && math.Abs(b.Value-a.Value) > absFloor[sm.Name]:
		return verdictWorse, change, noise, bound
	case !logical[sm.Name] && (len(a.Runs) < 4 || len(b.Runs) < 4 || noise > bound):
		return verdictUnresolved, change, noise, bound
	}
	return verdictOK, change, noise, bound
}

// checkFiles prints one row per workload × end-to-end metric of two
// result files and returns the exit code: non-zero on any worse row.
func checkFiles(stdout, stderr io.Writer, specPath, pathA, pathB string) int {
	var spec specFile
	var a, b results
	for _, f := range []struct {
		path string
		into any
	}{{specPath, &spec}, {pathA, &a}, {pathB, &b}} {
		if err := readJSON(f.path, f.into); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 2
		}
	}
	sameInputs := a.Header.Seed == b.Header.Seed && a.Header.Quick == b.Header.Quick
	if !sameInputs {
		fmt.Fprintf(stdout, "note: the files differ in seed or size (A: seed %d quick %v, B: seed %d quick %v)\n",
			a.Header.Seed, a.Header.Quick, b.Header.Seed, b.Header.Quick)
	}
	byName := map[string]*workloadResult{}
	for _, wr := range b.Workloads {
		byName[wr.Name] = wr
	}
	worse := 0
	fmt.Fprintf(stdout, "%-18s %-16s %14s %14s %9s %8s %7s  %s\n", "workload", "metric", "A", "B", "change", "spread", "bound", "verdict")
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Name]
		if !ok {
			fmt.Fprintf(stdout, "%-18s missing from %s: %s\n", wa.Name, pathB, verdictWorse)
			worse++
			continue
		}
		// failed_share is bounded absolutely at zero: one failed
		// operation in B is a regression.
		fa, fb := ratio(float64(wa.Failed), float64(wa.Attempted)), ratio(float64(wb.Failed), float64(wb.Attempted))
		v := verdictOK
		if wb.Failed > 0 || !wb.Correct {
			v = verdictWorse
			worse++
		}
		fmt.Fprintf(stdout, "%-18s %-16s %14.6g %14.6g %9s %8s %7s  %s\n", wa.Name, "failed_share", fa, fb, "", "", "0 abs", v)
		for _, sm := range spec.EndToEnd {
			ma, okA := wa.EndToEnd[sm.Name]
			mb, okB := wb.EndToEnd[sm.Name]
			if !okA || !okB {
				fmt.Fprintf(stdout, "%-18s %-16s missing: %s\n", wa.Name, sm.Name, verdictWorse)
				worse++
				continue
			}
			v, change, noise, bound := judge(sm, ma, mb, sameInputs)
			if v == verdictWorse {
				worse++
			}
			fmt.Fprintf(stdout, "%-18s %-16s %14.6g %14.6g %+8.2f%% %7.2f%% %6.1f%%  %s\n",
				wa.Name, sm.Name, ma.Value, mb.Value, 100*change, 100*noise, 100*bound, v)
		}
	}
	if worse > 0 {
		fmt.Fprintf(stdout, "check: %d rows worse\n", worse)
		return 1
	}
	fmt.Fprintln(stdout, "check: no row worse")
	return 0
}
