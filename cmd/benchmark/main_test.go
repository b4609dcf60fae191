package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"

	"shiftgears"
)

var quickOpts = options{seed: 1, quick: true}

// TestQuickWorkloads runs every workload end to end at the -quick sizes:
// an untraced measurement and a traced pair, with every output check.
func TestQuickWorkloads(t *testing.T) {
	ticks := map[string]float64{}
	for _, w := range workloads {
		e2e := measureEndToEnd(w, quickOpts, runBudget(0, true))
		if !e2e.Correct || e2e.Failed != 0 || e2e.Attempted == 0 {
			t.Fatalf("%s: end-to-end output check failed: %+v", w.name, e2e)
		}
		for _, d := range endToEnd {
			if m, ok := e2e.EndToEnd[d.name]; !ok || m.Value <= 0 || m.Unit != d.unit {
				t.Errorf("%s: end-to-end metric %s = %+v, want a positive value in %s", w.name, d.name, m, d.unit)
			}
		}
		layers := measureLayers(w, quickOpts, pairBudget(0, true))
		if !layers.Correct {
			t.Fatalf("%s: traced output check failed: %+v", w.name, layers)
		}
		for _, d := range perLayer() {
			if _, ok := layers.PerLayer[d.name]; !ok {
				t.Errorf("%s: per-layer metric %s missing", w.name, d.name)
			}
		}
		shares := layers.PerLayer["mux.prepare.share"].Value + layers.PerLayer["fabric.exchange.share"].Value + layers.PerLayer["mux.deliver.share"].Value
		if shares < 0.999 || shares > 1.001 {
			t.Errorf("%s: prepare + exchange + deliver shares sum to %v, want 1", w.name, shares)
		}
		ticks[w.name] = layers.PerLayer["fabric.run.ticks"].Value
		// The metrics of a mechanism are reported where the workload has
		// it, and are not zero there.
		for name, on := range onlyOn {
			if m, ok := layers.PerLayer[name]; ok != on(w) || ok && m.Value <= 0 {
				t.Errorf("%s: %s = %+v (reported: %v)", w.name, name, m, ok)
			}
		}
	}
	if ticks["faulty-downshift"] >= ticks["faulty-static"] {
		t.Errorf("downshift used %v ticks, static %v: shifting should save ticks", ticks["faulty-downshift"], ticks["faulty-static"])
	}
}

// TestClosedLoopClient pins the load model and the output check: every
// committed command yields exactly one latency sample, matched FIFO, and
// the check catches a lost, a foreign, and a reordered command.
func TestClosedLoopClient(t *testing.T) {
	w, _ := findWorkload("chaos-mem")
	rs, c := runOnce(w, quickOpts, nil)
	if len(rs.problems) > 0 || rs.failed != 0 {
		t.Fatalf("clean run failed its check: %+v", rs)
	}
	if len(rs.lat) != rs.committed || rs.committed == 0 {
		t.Fatalf("%d latency samples for %d committed commands", len(rs.lat), rs.committed)
	}
	slots := w.slotCount(true)
	if want := slots * 6 / 7 * w.batch; rs.committed != want {
		t.Errorf("committed %d, want every slot of the six client replicas full: %d", rs.committed, want)
	}
	for r := 0; r < w.n; r++ {
		outstanding := len(c.vals[r]) - c.head[r]
		if w.isClient(r) && outstanding != w.clientsPerReplica() {
			t.Errorf("replica %d ends with %d commands outstanding, want one per client (%d)", r, outstanding, w.clientsPerReplica())
		}
		if !w.isClient(r) && len(c.vals[r]) != 0 {
			t.Errorf("replica %d hosts no clients but submitted %d commands", r, len(c.vals[r]))
		}
	}
	if rs.pending != 6*w.clientsPerReplica() {
		t.Errorf("pending %d, want the %d commands submitted after the last slots opened", rs.pending, 6*w.clientsPerReplica())
	}

	entries := c.log.Replica(0).Entries()
	recheck := func(mutate func(es []shiftgears.LogEntry)) *runStats {
		es := make([]shiftgears.LogEntry, len(entries))
		for i, e := range entries {
			e.Commands = append([]shiftgears.Value(nil), e.Commands...)
			es[i] = e
		}
		mutate(es)
		got := &runStats{}
		c.check(outcome{agreement: true, entries: es}, got)
		return got
	}
	if got := recheck(func([]shiftgears.LogEntry) {}); got.failed != 0 || got.attempted != rs.attempted {
		t.Fatalf("unchanged log: %+v, want attempted %d and nothing failed", got, rs.attempted)
	}
	if got := recheck(func(es []shiftgears.LogEntry) { es[0].Commands = es[0].Commands[1:] }); got.failed != 1 {
		t.Errorf("a command lost from its slot: failed %d, want 1 (%v)", got.failed, got.problems)
	}
	if got := recheck(func(es []shiftgears.LogEntry) { es[6].Commands = append(es[6].Commands, 9) }); got.failed != 1 {
		t.Errorf("a command from the victim's slot: failed %d, want 1 (%v)", got.failed, got.problems)
	}
	if got := recheck(func(es []shiftgears.LogEntry) {
		cs := es[0].Commands
		for i := 1; i < len(cs); i++ {
			if cs[i] != cs[0] {
				cs[0], cs[i] = cs[i], cs[0]
				return
			}
		}
		t.Fatal("slot 0 carries one value four times; pick another seed")
	}); got.failed == 0 {
		t.Errorf("two commands out of FIFO order went unnoticed")
	}
	if got := recheck(func([]shiftgears.LogEntry) {}); got.failed != 0 {
		t.Errorf("check is not repeatable: %+v", got)
	}
	bad := &runStats{}
	c.check(outcome{agreement: false, entries: entries}, bad)
	if bad.failed != bad.attempted || bad.failed == 0 {
		t.Errorf("lost agreement: failed %d of %d, want all", bad.failed, bad.attempted)
	}
}

// TestSpanTree checks the traced run's span tree: children lie inside
// their parents, a tick's three phases never exceed it, and every
// command has its queue and agree halves under one request id.
func TestSpanTree(t *testing.T) {
	w, _ := findWorkload("faulty-downshift")
	tr := newTracer(w.n, w.slotCount(true), 64)
	rs, c := runOnce(w, quickOpts, tr)
	if len(rs.problems) > 0 {
		t.Fatal(rs.problems)
	}
	spans := buildSpans(tr, c)
	byID := map[int]span{}
	children := map[int][]span{}
	count := map[string]int{}
	for _, s := range spans {
		if _, dup := byID[s.ID]; dup || s.ID == 0 {
			t.Fatalf("span id %d reused or zero", s.ID)
		}
		byID[s.ID] = s
		children[s.Parent] = append(children[s.Parent], s)
		count[s.Name]++
		if s.End < s.Start {
			t.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
	}
	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			t.Fatalf("span %d names parent %d, which does not exist", s.ID, s.Parent)
		}
		if s.Start < p.Start || s.End > p.End {
			t.Errorf("%s %d [%d, %d] lies outside its parent %s [%d, %d]", s.Name, s.ID, s.Start, s.End, p.Name, p.Start, p.End)
		}
	}
	if count["run"] != 1 || count["tick"] != rs.ticks || count["slot"] != w.slotCount(true) || count["cmd"] != rs.committed {
		t.Errorf("span counts %v, want 1 run, %d ticks, %d slots, %d cmds", count, rs.ticks, w.slotCount(true), rs.committed)
	}
	gears := map[string]bool{}
	for _, s := range spans {
		switch s.Name {
		case "tick":
			var phases int64
			names := ""
			for _, k := range children[s.ID] {
				phases += k.End - k.Start
				names += k.Name + " "
			}
			if names != "prepare exchange deliver " || phases > s.End-s.Start {
				t.Errorf("tick %d: phases %q take %d ns of its %d", s.Tick, names, phases, s.End-s.Start)
			}
		case "slot":
			gears[s.Gear] = true
		case "cmd":
			ks := children[s.ID]
			if len(ks) != 2 || ks[0].Name != "queue" || ks[1].Name != "agree" ||
				ks[0].Req != s.Req || ks[1].Req != s.Req || s.Req == 0 ||
				ks[0].Start != s.Start || ks[0].End != ks[1].Start || ks[1].End != s.End {
				t.Errorf("cmd %d: children %+v do not split it into queue and agree", s.ID, ks)
			}
		}
	}
	if !gears["hybrid"] || !gears["B"] || len(gears) != 2 {
		t.Errorf("slot spans carry gears %v, want hybrid and B", gears)
	}

	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := writeSpans(path, spans); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	lines := 0
	for sc := bufio.NewScanner(f); sc.Scan(); lines++ {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil || s != spans[lines] {
			t.Fatalf("line %d: %v, read back %+v, wrote %+v", lines+1, err, s, spans[lines])
		}
	}
	if lines != len(spans) {
		t.Errorf("%d lines for %d spans", lines, len(spans))
	}
}

// TestSeedDeterminism: the seed fixes the inputs and the logical
// counters; another seed draws other commands.
func TestSeedDeterminism(t *testing.T) {
	w, _ := findWorkload("chaos-mem")
	a, ca := runOnce(w, quickOpts, nil)
	b, cb := runOnce(w, quickOpts, nil)
	if !reflect.DeepEqual(ca.vals, cb.vals) {
		t.Error("the same seed drew different command streams")
	}
	if a.ticks != b.ticks || a.bytes != b.bytes || a.messages != b.messages || a.committed != b.committed {
		t.Errorf("the same seed gave ticks/bytes/messages/committed %d/%d/%d/%d then %d/%d/%d/%d",
			a.ticks, a.bytes, a.messages, a.committed, b.ticks, b.bytes, b.messages, b.committed)
	}
	other := quickOpts
	other.seed = 2
	c, cc := runOnce(w, other, nil)
	if reflect.DeepEqual(ca.vals, cc.vals) {
		t.Error("seeds 1 and 2 drew the same command stream")
	}
	if c.bytes == a.bytes {
		t.Error("seeds 1 and 2 dropped the same frames: the chaos plan ignores the seed")
	}
	if c.ticks != a.ticks || c.committed != a.committed {
		t.Errorf("the schedule depends on the seed: ticks %d vs %d, committed %d vs %d", c.ticks, a.ticks, c.committed, a.committed)
	}
}

func TestJudge(t *testing.T) {
	lower := specMetric{Name: "commit_p50_ms", Better: "lower", Bound: 0.10}
	higher := specMetric{Name: "cmds_per_sec", Better: "higher", Bound: 0.10}
	logical := specMetric{Name: "bytes_per_cmd", Better: "lower", Bound: 0.002}
	setup := specMetric{Name: "setup_s", Better: "lower", Bound: 0.25}
	steady := []float64{99, 100, 100, 101, 100}
	noisy := []float64{80, 90, 100, 110, 120}
	for _, tc := range []struct {
		name     string
		sm       specMetric
		a, b     metric
		sameSeed bool
		want     string
	}{
		{"within the bound", lower, metric{Value: 100, Runs: steady}, metric{Value: 108, Runs: steady}, true, verdictOK},
		{"slower beyond the bound", lower, metric{Value: 100, Runs: steady}, metric{Value: 111, Runs: steady}, true, verdictWorse},
		{"faster is never worse", lower, metric{Value: 100, Runs: steady}, metric{Value: 50, Runs: steady}, true, verdictOK},
		{"direction-aware: throughput fell", higher, metric{Value: 100, Runs: steady}, metric{Value: 89, Runs: steady}, true, verdictWorse},
		{"direction-aware: throughput rose", higher, metric{Value: 100, Runs: steady}, metric{Value: 120, Runs: steady}, true, verdictOK},
		{"spread wider than the bound", lower, metric{Value: 100, Runs: noisy}, metric{Value: 104, Runs: steady}, true, verdictUnresolved},
		{"too few runs for a spread", lower, metric{Value: 100, Runs: steady[:3]}, metric{Value: 104, Runs: steady}, true, verdictUnresolved},
		{"worse even when noisy", lower, metric{Value: 100, Runs: noisy}, metric{Value: 130, Runs: noisy}, true, verdictWorse},
		{"logical metric repeats", logical, metric{Value: 392}, metric{Value: 392}, true, verdictOK},
		{"logical metric moved under one seed", logical, metric{Value: 392}, metric{Value: 392.5}, true, verdictWorse},
		{"logical metric moved across seeds, within the bound", logical, metric{Value: 392}, metric{Value: 392.5}, false, verdictOK},
		{"logical metric moved across seeds, beyond the bound", logical, metric{Value: 392}, metric{Value: 394}, false, verdictWorse},
		{"set-up under the 5 ms floor", setup, metric{Value: 0.001, Runs: steady}, metric{Value: 0.004, Runs: steady}, true, verdictOK},
		{"set-up over the floor", setup, metric{Value: 0.010, Runs: steady}, metric{Value: 0.016, Runs: steady}, true, verdictWorse},
	} {
		if got, _, _, _ := judge(tc.sm, tc.a, tc.b, tc.sameSeed); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestCheckFiles drives -check over synthetic result files.
func TestCheckFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, v any) string {
		path := filepath.Join(dir, name)
		if err := writeJSON(path, v); err != nil {
			t.Fatal(err)
		}
		return path
	}
	spec := write("spec.json", specFile{EndToEnd: []specMetric{
		{Name: "cmds_per_sec", Unit: "cmds/s", Better: "higher", Bound: 0.10},
		{Name: "bytes_per_cmd", Unit: "B/cmd", Better: "lower", Bound: 0.002},
	}})
	file := func(cps float64, runs []float64, bytes float64, failed int) *results {
		return &results{Workloads: []*workloadResult{{
			Name: "steady-n7", Correct: failed == 0, Attempted: 100, Failed: failed,
			EndToEnd: map[string]metric{
				"cmds_per_sec":  {Value: cps, Unit: "cmds/s", Runs: runs},
				"bytes_per_cmd": {Value: bytes, Unit: "B/cmd"},
			},
		}}}
	}
	steady := []float64{99, 100, 100, 101, 100}
	base := write("a.json", file(100, steady, 392, 0))
	otherSeed := file(100, steady, 392.5, 0)
	otherSeed.Header.Seed = 2
	for _, tc := range []struct {
		name string
		b    *results
		code int
		want []string
	}{
		{"same", file(101, steady, 392, 0), 0, []string{"cmds_per_sec", "bytes_per_cmd", "failed_share", "check: no row worse"}},
		{"slower", file(80, steady, 392, 0), 1, []string{verdictWorse, "check: 1 rows worse"}},
		{"noisy", file(100, []float64{70, 90, 100, 110, 130}, 392, 0), 0, []string{verdictUnresolved}},
		{"three runs", file(100, steady[:3], 392, 0), 0, []string{verdictUnresolved}},
		{"a logical counter drifted under one seed", file(100, steady, 392.5, 0), 1, []string{verdictWorse}},
		{"another seed's fault plan", otherSeed, 0, []string{"note: the files differ in seed", "check: no row worse"}},
		{"failing", file(100, steady, 392, 3), 1, []string{verdictWorse}},
		{"missing workload", &results{}, 1, []string{"missing"}},
	} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"-check", "-spec", spec, base, write("b.json", tc.b)}, &stdout, &stderr)
		if code != tc.code {
			t.Errorf("%s: exit code %d, want %d\n%s%s", tc.name, code, tc.code, stdout.String(), stderr.String())
		}
		for _, want := range tc.want {
			if !strings.Contains(stdout.String(), want) {
				t.Errorf("%s: output lacks %q:\n%s", tc.name, want, stdout.String())
			}
		}
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-check", base}, &stdout, &stderr); code != 2 {
		t.Errorf("-check with one file: exit code %d, want 2", code)
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to the driver's contract and to
// the program: every name is well-formed, and the names are exactly what
// the program emits for -trace 0 and -trace 1.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	if got := sortedKeys(keys); !reflect.DeepEqual(got, []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}) {
		t.Errorf("top-level keys %v", got)
	}
	var spec specFile
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.Paths, []string{"cmd/benchmark"}) || !reflect.DeepEqual(spec.Command, []string{"go", "run", "./cmd/benchmark"}) {
		t.Errorf("command %v over paths %v", spec.Command, spec.Paths)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d", spec.RunSeconds)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, the program has %d", len(spec.Workloads), len(workloads))
	}
	for i, sw := range spec.Workloads {
		name(sw.Name)
		if sw.Name != workloads[i].name || sw.Why != workloads[i].why {
			t.Errorf("workload %d is %q (%q), the program has %q (%q)", i, sw.Name, sw.Why, workloads[i].name, workloads[i].why)
		}
		if len(sw.Why) > 200 || strings.Contains(sw.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", sw.Name)
		}
	}
	same := func(kind string, listed []specMetric, defs []metricDef, bounded bool) {
		if len(listed) != len(defs) {
			t.Fatalf("%d %s metrics listed, the program emits %d", len(listed), kind, len(defs))
		}
		for i, sm := range listed {
			name(sm.Name)
			d := defs[i]
			if sm.Name != d.name || sm.Unit != d.unit || sm.Better != d.better || !unitRE.MatchString(sm.Unit) {
				t.Errorf("%s metric %d is %+v, the program emits %+v", kind, i, sm, d)
			}
			if bounded && (sm.Bound < 0 || sm.Bound > 0.25) || !bounded && sm.Bound != 0 {
				t.Errorf("%s metric %s: bound %v", kind, sm.Name, sm.Bound)
			}
		}
	}
	same("end-to-end", spec.EndToEnd, endToEnd, true)
	same("per-layer", spec.PerLayer, perLayer(), false)
	if len(spec.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", len(spec.PerLayer))
	}

	// What the program prints under the contract's flags.
	for trace, listed := range map[string][]specMetric{"0": spec.EndToEnd, "1": spec.PerLayer} {
		var stdout, stderr bytes.Buffer
		args := []string{"--workload", "faulty-downshift", "--seed", "3", "--seconds", "0", "--trace", trace, "-quick"}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("%v: exit code %d\n%s%s", args, code, stdout.String(), stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var line map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatalf("last line is not JSON: %v\n%s", err, lines[len(lines)-1])
		}
		if got := sortedKeys(line); !reflect.DeepEqual(got, []string{"attempted", "correct", "failed", "metrics"}) {
			t.Errorf("-trace %s: result line has keys %v", trace, got)
		}
		var res driverLine
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
			t.Errorf("-trace %s: result %+v", trace, res)
		}
		var want []string
		for _, sm := range listed {
			want = append(want, sm.Name)
			if res.Metrics[sm.Name].Unit != sm.Unit {
				t.Errorf("-trace %s: %s printed in %q, listed in %q", trace, sm.Name, res.Metrics[sm.Name].Unit, sm.Unit)
			}
		}
		got := sortedKeys(res.Metrics)
		if len(got) != len(want) {
			t.Errorf("-trace %s: %d metrics printed, %d listed:\n%v", trace, len(got), len(want), got)
		}
	}
}

func TestUnknownWorkload(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-workload", "nope"}, &stdout, &stderr); code != 2 || !strings.Contains(stderr.String(), "unknown workload") {
		t.Errorf("exit code %d, stderr %q", code, stderr.String())
	}
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
