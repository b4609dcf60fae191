package main

import (
	"fmt"
	"sort"
)

// metric is one reported number. Runs holds the per-run values behind a
// median, which is what -check measures run-to-run spread on.
type metric struct {
	Value float64   `json:"value"`
	Unit  string    `json:"unit"`
	Runs  []float64 `json:"runs,omitempty"`
}

// metricDef names a metric the program emits; BENCHMARK.json lists the
// ones every workload reports (a test keeps the two in step).
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the log would see, reported per
// workload from untraced runs only.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"cmds_per_sec", "cmds/s", "higher"},
	{"commit_p50_ms", "ms", "lower"},
	{"commit_p99_ms", "ms", "lower"},
	{"cmds_per_tick", "cmds/tick", "higher"},
	{"bytes_per_cmd", "B/cmd", "lower"},
	{"allocs_per_cmd", "allocs/cmd", "lower"},
}

// inRun are the per-layer metrics of a workload's traced run (mem.* and
// trace.overhead_share come from its untraced twin).
var inRun = []metricDef{
	{"fabric.run.ticks", "count", "lower"},
	{"fabric.run.tick_us_p50", "us", "lower"},
	{"fabric.run.tick_us_p99", "us", "lower"},
	{"fabric.run.tick_us_max", "us", "lower"},
	{"mux.prepare.us_per_tick", "us", "lower"},
	{"mux.prepare.share", "ratio", "lower"},
	{"mux.deliver.us_per_tick", "us", "lower"},
	{"mux.deliver.share", "ratio", "lower"},
	{"fabric.exchange.us_per_tick", "us", "lower"},
	{"fabric.exchange.share", "ratio", "lower"},
	{"rsm.commit_p50_ticks", "ticks", "lower"},
	{"rsm.commit_p99_ticks", "ticks", "lower"},
	{"rsm.slot_ticks_mean", "ticks", "lower"},
	{"rsm.slot_us_p50", "us", "lower"},
	{"rsm.queue_share", "ratio", "lower"},
	{"rsm.batch_fill", "ratio", "higher"},
	{"rsm.burned_slot_share", "ratio", "lower"},
	{"gears.shifts", "count", "higher"},
	{"gears.low_share", "ratio", "higher"},
	{"gears.ticks_vs_static", "ratio", "lower"},
	{"wire.msgs_per_cmd", "msgs/cmd", "lower"},
	{"wire.max_frame_bytes", "B", "lower"},
	{"wire.bytes_per_replica_per_cmd", "B/cmd", "lower"},
	{"mem.allocs_per_tick", "allocs/tick", "lower"},
	{"mem.heap_bytes_per_cmd", "B/cmd", "lower"},
	{"mem.gc_cycles", "count", "lower"},
	{"mem.gc_pause_share", "ratio", "lower"},
	{"trace.overhead_share", "ratio", "lower"},
	{"trace.events_per_tick", "events/tick", "lower"},
}

// kernelDefs lists the layer matrix's metrics in the order layerMatrix
// measures them.
func kernelDefs() []metricDef {
	var defs []metricDef
	for _, sh := range shapes {
		defs = append(defs,
			metricDef{"eigtree.store_ns_per_node." + sh.name, "ns", "lower"},
			metricDef{"eigtree.resolve_ns_per_node." + sh.name, "ns", "lower"},
			metricDef{"faults.discover_ns_per_node." + sh.name, "ns", "lower"},
			metricDef{"eigtree.enum_build_us." + sh.name, "us", "lower"},
		)
	}
	for _, ca := range coreAlgs {
		for _, sh := range ca.shapes {
			defs = append(defs,
				metricDef{"core.instance_us." + ca.name + "." + sh.name, "us", "lower"},
				metricDef{"core.plan_compile_us." + ca.name + "." + sh.name, "us", "lower"},
			)
		}
	}
	defs = append(defs, metricDef{"consensus.codec_ns_per_frame", "ns", "lower"})
	for _, fp := range fabricPayloads {
		defs = append(defs,
			metricDef{"fabric.sim.exchange_ns." + fp.name, "ns", "lower"},
			metricDef{"fabric.mem.exchange_ns." + fp.name, "ns", "lower"},
			metricDef{"transport.mesh.exchange_us." + fp.name, "us", "lower"},
		)
	}
	return append(defs,
		metricDef{"shard.route_ns", "ns", "lower"},
		metricDef{"shard.drive_speedup_k2", "ratio", "higher"},
		metricDef{"obs.ring_emit_ns", "ns", "lower"},
		metricDef{"obs.jsonl_emit_ns", "ns", "lower"},
		metricDef{"obs.hist_observe_ns", "ns", "lower"},
	)
}

// onlyOn names the in-run metrics that are a constant 0 wherever their
// mechanism is absent. They are reported on the workloads that have it.
var onlyOn = map[string]func(workload) bool{
	"rsm.burned_slot_share": workload.burnsSlots,
	"gears.shifts":          workload.shiftsGears,
	"gears.low_share":       workload.shiftsGears,
}

// perLayer is what BENCHMARK.json lists and -workload -trace 1 prints:
// the in-run metrics every workload reports. The layer matrix is not
// among them: it does not depend on the workload, and measuring it again
// in every workload's run would take the time from the traced pairs.
func perLayer() []metricDef {
	var defs []metricDef
	for _, d := range inRun {
		if onlyOn[d.name] == nil {
			defs = append(defs, d)
		}
	}
	return defs
}

// options are the inputs shared by every measurement.
type options struct {
	seed  int64
	quick bool
	spans string // write the last traced run's span tree here
}

// budget decides how many fixed-size runs a median is taken over: min of
// them, then — when seconds is positive — as many more as fit in seconds.
// The size of a run never changes.
type budget struct {
	min     int
	seconds float64
}

// more reports whether another run fits: done runs took spent seconds.
func (b budget) more(done int, spent float64) bool {
	if done < b.min {
		return true
	}
	// Start a run only if at least half of it fits in what is left.
	return spent+0.5*spent/float64(done) < b.seconds
}

// workloadResult is everything measured on one workload.
type workloadResult struct {
	Name      string            `json:"name"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Pending   int               `json:"pending"`
	Samples   int               `json:"latency_samples"`
	Runs      int               `json:"runs"`
	Problems  []string          `json:"problems,omitempty"`
	EndToEnd  map[string]metric `json:"end_to_end,omitempty"`
	PerLayer  map[string]metric `json:"per_layer,omitempty"`
}

// absorb folds one run's output check into the workload's verdict. ref
// is the workload's first run: ticks, bytes and committed commands are
// logical counters and must repeat exactly, traced or not.
func (wr *workloadResult) absorb(rs, ref *runStats, label string) {
	wr.Attempted += rs.attempted
	wr.Failed += rs.failed
	wr.Pending += rs.pending
	for _, p := range rs.problems {
		wr.Problems = append(wr.Problems, label+": "+p)
	}
	if len(rs.problems) == 0 && (rs.ticks != ref.ticks || rs.bytes != ref.bytes || rs.committed != ref.committed) {
		wr.Failed += rs.attempted - rs.failed
		wr.Problems = append(wr.Problems, fmt.Sprintf("%s: ticks/bytes/committed %d/%d/%d differ from the first run's %d/%d/%d",
			label, rs.ticks, rs.bytes, rs.committed, ref.ticks, ref.bytes, ref.committed))
	}
}

func (wr *workloadResult) finish() {
	wr.Correct = len(wr.Problems) == 0 && wr.Failed == 0 && wr.Attempted > 0
}

// measureEndToEnd runs one discarded warm-up and then the measured,
// untraced runs of a workload, each on a fresh log after a forced GC.
func measureEndToEnd(w workload, o options, b budget) *workloadResult {
	wr := &workloadResult{Name: w.name, EndToEnd: map[string]metric{}}
	ref, _ := runOnce(w, o, nil)
	wr.absorb(ref, ref, "warm-up")

	runs := map[string][]float64{} // per metric, one value per run
	add := func(name string, v float64) { runs[name] = append(runs[name], v) }
	start := now()
	for wr.Runs = 0; b.more(wr.Runs, float64(now()-start)/1e9); wr.Runs++ {
		rs, _ := runOnce(w, o, nil)
		wr.absorb(rs, ref, fmt.Sprintf("run %d", wr.Runs+1))
		// Every run sets up in the same heap state (the previous run's
		// garbage just collected, its pages still mapped), which is what
		// keeps a millisecond-scale timing steady; set-ups made back to
		// back without running were measured 5× noisier.
		add("setup_s", rs.setupS)
		add("cmds_per_sec", rs.cmdsPerSec())
		add("allocs_per_cmd", ratio(float64(rs.mallocs), float64(rs.committed)))
		// Each run's percentiles are its own (the smallest run has 1,200
		// samples, so twelve lie beyond its p99); the median over runs
		// keeps one disturbed run from setting the tail.
		ms := make([]float64, len(rs.lat))
		for i, ns := range rs.lat {
			ms[i] = float64(ns) / 1e6
		}
		sort.Float64s(ms)
		wr.Samples += len(ms)
		add("commit_p50_ms", quantile(ms, 0.5))
		add("commit_p99_ms", quantile(ms, 0.99))
	}
	// The logical metrics are the first run's: every run repeats them.
	runs["cmds_per_tick"] = []float64{ratio(float64(ref.committed), float64(ref.ticks))}
	runs["bytes_per_cmd"] = []float64{ratio(float64(ref.bytes), float64(ref.committed))}
	for _, d := range endToEnd {
		wr.EndToEnd[d.name] = metric{Value: median(runs[d.name]), Unit: d.unit, Runs: runs[d.name]}
	}
	wr.finish()
	return wr
}

// measureLayers runs traced/untraced pairs of a workload and reports the
// per-layer metrics of the traced halves; the untraced half prices the
// tracing (trace.overhead_share) and supplies the memory counters, which
// the tracer's own bookkeeping would otherwise inflate.
func measureLayers(w workload, o options, b budget) *workloadResult {
	wr := &workloadResult{Name: w.name, PerLayer: map[string]metric{}}
	ref, _ := runOnce(w, o, nil)
	wr.absorb(ref, ref, "warm-up")

	per := map[string][]float64{}
	start := now()
	for wr.Runs = 0; b.more(wr.Runs, float64(now()-start)/1e9); wr.Runs++ {
		plain, _ := runOnce(w, o, nil)
		wr.absorb(plain, ref, fmt.Sprintf("pair %d untraced", wr.Runs+1))
		tr := newTracer(w.n, w.slotCount(o.quick), ref.ticks)
		traced, c := runOnce(w, o, tr)
		wr.absorb(traced, ref, fmt.Sprintf("pair %d traced", wr.Runs+1))
		if len(traced.problems) > 0 {
			continue
		}
		m := traceMetrics(tr, c, traced)
		m["mem.allocs_per_tick"] = ratio(float64(plain.mallocs), float64(plain.ticks))
		m["mem.heap_bytes_per_cmd"] = ratio(float64(plain.heapBytes), float64(plain.committed))
		m["mem.gc_cycles"] = float64(plain.gcCycles)
		m["mem.gc_pause_share"] = ratio(float64(plain.gcPauseNs)/1e9, plain.wallS)
		m["trace.overhead_share"] = 1 - ratio(traced.cmdsPerSec(), plain.cmdsPerSec())
		for k, v := range m {
			per[k] = append(per[k], v)
		}
		if o.spans != "" {
			if err := writeSpans(o.spans, buildSpans(tr, c)); err != nil {
				wr.Problems = append(wr.Problems, fmt.Sprintf("spans: %v", err))
			}
		}
	}
	for _, d := range inRun {
		if on := onlyOn[d.name]; on != nil && !on(w) {
			continue
		}
		wr.PerLayer[d.name] = metric{Value: median(per[d.name]), Unit: d.unit, Runs: per[d.name]}
	}
	wr.finish()
	return wr
}
