package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"shiftgears/internal/obs"
)

// reservePorts grabs n ephemeral loopback ports and releases them, so the
// logserver processes (goroutines here) can re-bind them moments later.
func reservePorts(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	listeners := make([]net.Listener, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range listeners {
		_ = ln.Close()
	}
	return addrs
}

// runReplicas runs n logserver replicas concurrently, replica id with
// args(id) plus the shared -id/-n/-addrs flags, and returns their outputs.
func runReplicas(t *testing.T, n int, args func(id int) []string) []string {
	t.Helper()
	list := strings.Join(reservePorts(t, n), ",")
	var wg sync.WaitGroup
	outs := make([]strings.Builder, n)
	errs := make([]error, n)
	for id := 0; id < n; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			argv := append([]string{"-id", fmt.Sprint(id), "-n", fmt.Sprint(n), "-addrs", list}, args(id)...)
			errs[id] = run(argv, &outs[id])
		}(id)
	}
	wg.Wait()
	res := make([]string, n)
	for id, err := range errs {
		if err != nil {
			t.Fatalf("replica %d: %v\n%s", id, err, outs[id].String())
		}
		res[id] = outs[id].String()
	}
	return res
}

func TestLogServerEndToEnd(t *testing.T) {
	cmds := []string{"11,12,13", "21", "", ""}
	outs := runReplicas(t, 4, func(id int) []string {
		args := []string{"-t", "1", "-slots", "8", "-window", "2", "-batch", "2", "-cmds", cmds[id]}
		if id == 3 {
			args = append(args, "-byzantine", "splitbrain")
		}
		return args
	})

	// Correct replicas print identical snapshots carrying every command a
	// correct replica proposed.
	var snapshot string
	for id := 0; id < 3; id++ {
		out := outs[id]
		i := strings.Index(out, "snapshot")
		if i < 0 {
			t.Fatalf("replica %d printed no snapshot:\n%s", id, out)
		}
		if snapshot == "" {
			snapshot = out[i:]
			continue
		}
		if out[i:] != snapshot {
			t.Fatalf("replica %d snapshot %q diverges from %q", id, out[i:], snapshot)
		}
	}
	for _, cmd := range []string{"11", "12", "13", "21"} {
		if !strings.Contains(snapshot, cmd) {
			t.Errorf("snapshot %q misses command %s", snapshot, cmd)
		}
	}
	if !strings.Contains(outs[3], "BYZANTINE (splitbrain)") {
		t.Error("byzantine banner missing")
	}
}

// TestLogServerOneSlotEndToEnd: a single agreement instance over a
// multi-process mesh is a 1-slot log. Replica 0 sources the value 7,
// replica 3 is a split-brain Byzantine, and every correct replica commits
// [7] in slot 0.
func TestLogServerOneSlotEndToEnd(t *testing.T) {
	outs := runReplicas(t, 4, func(id int) []string {
		args := []string{"-t", "1", "-alg", "exponential", "-slots", "1", "-window", "1", "-batch", "1"}
		switch id {
		case 0:
			args = append(args, "-cmds", "7")
		case 3:
			args = append(args, "-byzantine", "splitbrain")
		}
		return args
	})
	for id := 0; id < 3; id++ {
		if want := fmt.Sprintf("replica %d: slot 0 (source 0) committed [7]", id); !strings.Contains(outs[id], want) {
			t.Errorf("replica %d did not commit [7] in slot 0:\n%s", id, outs[id])
		}
	}
	if !strings.Contains(outs[3], "BYZANTINE (splitbrain)") {
		t.Error("byzantine banner missing")
	}
}

// TestLogServerDebugSurface: a replica started with -debug serves live
// metrics while the mesh runs, and -trace leaves a parseable JSONL
// flight record covering the whole schedule.
func TestLogServerDebugSurface(t *testing.T) {
	const n, slots = 4, 8
	addrs := reservePorts(t, n)
	debugAddr := reservePorts(t, 1)[0]
	tracePath := filepath.Join(t.TempDir(), "rep0.jsonl")
	list := strings.Join(addrs, ",")

	cmds := []string{"11,12,13", "21", "", ""}
	var wg sync.WaitGroup
	outs := make([]strings.Builder, n)
	errs := make([]error, n)
	for id := 0; id < n; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			args := []string{
				"-id", fmt.Sprint(id), "-n", "4", "-t", "1",
				"-slots", fmt.Sprint(slots), "-window", "2", "-batch", "2",
				"-addrs", list, "-cmds", cmds[id],
			}
			if id == 0 {
				args = append(args, "-debug", debugAddr, "-linger", "2s", "-trace", tracePath)
			}
			errs[id] = run(args, &outs[id])
		}(id)
	}

	// Scrape the surface while replica 0 is up (run + linger window).
	deadline := time.Now().Add(10 * time.Second)
	var metricsBody string
	for time.Now().Before(deadline) {
		resp, err := http.Get("http://" + debugAddr + "/metrics")
		if err == nil {
			b, _ := io.ReadAll(resp.Body)
			_ = resp.Body.Close()
			metricsBody = string(b)
			if strings.Contains(metricsBody, fmt.Sprintf("shiftgears_commits_total %d", slots)) {
				break
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !strings.Contains(metricsBody, fmt.Sprintf("shiftgears_commits_total %d", slots)) {
		t.Fatalf("/metrics never showed %d commits:\n%s", slots, metricsBody)
	}
	if !strings.Contains(metricsBody, "shiftgears_commit_latency_ticks_count") {
		t.Errorf("/metrics missing the latency histogram:\n%s", metricsBody)
	}
	resp, err := http.Get("http://" + debugAddr + "/debug/gears")
	if err != nil {
		t.Fatal(err)
	}
	gears, _ := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if !strings.Contains(string(gears), "gear exponential") {
		t.Errorf("/debug/gears missing the gear schedule:\n%s", gears)
	}

	wg.Wait()
	for id, err := range errs {
		if err != nil {
			t.Fatalf("replica %d: %v\n%s", id, err, outs[id].String())
		}
	}
	if !strings.Contains(outs[0].String(), "commit latency") {
		t.Errorf("replica 0 printed no latency summary:\n%s", outs[0].String())
	}

	f, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = f.Close() }()
	events, err := obs.ReadJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	commits, ticks := 0, 0
	for _, ev := range events {
		switch ev.Type {
		case obs.SlotCommitted:
			commits++
		case obs.TickStart:
			ticks++
		}
	}
	if commits != slots || ticks == 0 {
		t.Fatalf("trace has %d commits over %d ticks, want %d commits over >0 ticks (%d events)", commits, ticks, slots, len(events))
	}
}

func TestLogServerValidation(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-alg", "bogus", "-addrs", "a,b,c,d"}, &out); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if err := run([]string{"-n", "4", "-addrs", "a,b"}, &out); err == nil {
		t.Error("addrs/n mismatch accepted")
	}
	if err := run([]string{"-addrs", "a,b,c,d", "-cmds", "300"}, &out); err == nil {
		t.Error("out-of-range command accepted")
	}
	if err := run([]string{"-addrs", "a,b,c,d", "-cmds", "0"}, &out); err == nil {
		t.Error("no-op command accepted")
	}
	if err := run([]string{"-addrs", "a,b,c,d", "-byzantine", "bogus"}, &out); err == nil {
		t.Error("unknown strategy accepted")
	}
}

// TestLogServerOneSlotValidation: the single-instance (1-slot) invocation
// rejects bad configurations before it touches the network.
func TestLogServerOneSlotValidation(t *testing.T) {
	oneSlot := []string{"-slots", "1", "-window", "1", "-batch", "1", "-cmds", "7"}
	var out strings.Builder
	if err := run(append([]string{"-alg", "exponential", "-n", "4", "-addrs", "a,b"}, oneSlot...), &out); err == nil {
		t.Error("addrs/n mismatch accepted")
	}
	if err := run(append([]string{"-alg", "bogus", "-addrs", "a,b,c,d"}, oneSlot...), &out); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if err := run(append([]string{"-alg", "exponential", "-n", "5", "-t", "2",
		"-addrs", "a,b,c,d,e"}, oneSlot...), &out); err == nil {
		t.Error("bad resilience accepted")
	}
}
