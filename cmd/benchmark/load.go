package main

import (
	"fmt"
	"runtime"
	"time"

	"shiftgears"
	"shiftgears/internal/fabric"
	"shiftgears/internal/rsm"
	"shiftgears/internal/transport"
)

// epoch anchors every timestamp of the process; now is nanoseconds since.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// stream is one receiver's command generator: a splitmix64 sequence
// seeded from (-seed, receiver), so a receiver's commands depend on the
// seed alone and not on how the replicas' commits interleave.
type stream uint64

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

func newStream(seed int64, receiver int) stream {
	return stream(splitmix64(splitmix64(uint64(seed)) ^ uint64(receiver+1)))
}

// next draws a command in 1..255 (0 is the log's reserved no-op).
func (s *stream) next() shiftgears.Value {
	*s = stream(splitmix64(uint64(*s)))
	return shiftgears.Value(1 + uint64(*s)%255)
}

// clients is the closed-loop load: every client replica hosts
// clientsPerReplica clients, each with one command outstanding. A client
// submits its next command when its receiver applies the slot that
// carried the previous one. Commands of one receiver commit in FIFO
// order, so the per-receiver submit record matches commits to submits.
//
// It is driven from the log's single drive goroutine (Parallel false,
// Workers 1) and is not safe for concurrent use.
type clients struct {
	w       workload
	cfg     shiftgears.LogConfig
	log     *shiftgears.ReplicatedLog
	streams []stream
	vals    [][]shiftgears.Value // per receiver: every command submitted, in order
	at      [][]int64            // per command: submit time
	head    []int                // per receiver: oldest command not yet applied
	lat     []int64              // submit→apply latency of every applied command
	strays  int                  // applied commands that were not the receiver's FIFO head
	err     error                // first Submit error

	// Traced runs only: per receiver, one record per command.
	tr     *tracer
	traced [][]cmdTrace
}

// cmdTrace is what a traced run keeps about one command beyond its value
// and submit time: the slot that carried it (-1 until applied), when the
// receiver applied it, and the global ticks of submit and apply.
type cmdTrace struct {
	appliedAt             int64
	slot                  int32
	submitTick, applyTick int32
}

func newClients(w workload, cfg shiftgears.LogConfig, seed int64, tr *tracer) *clients {
	slots := cfg.Slots
	c := &clients{
		w: w, cfg: cfg, tr: tr,
		streams: make([]stream, w.n),
		vals:    make([][]shiftgears.Value, w.n),
		at:      make([][]int64, w.n),
		head:    make([]int, w.n),
	}
	if tr != nil {
		c.traced = make([][]cmdTrace, w.n)
	}
	// Everything the loop appends to is sized up front, so the harness
	// adds nothing to the run's allocation count.
	total := 0
	for r := 0; r < w.n; r++ {
		if !w.isClient(r) {
			continue
		}
		sourced := slots / w.n
		if r < slots%w.n {
			sourced++
		}
		max := sourced*w.batch + w.clientsPerReplica()
		total += max
		c.streams[r] = newStream(seed, r)
		c.vals[r] = make([]shiftgears.Value, 0, max)
		c.at[r] = make([]int64, 0, max)
		if tr != nil {
			c.traced[r] = make([]cmdTrace, 0, max)
		}
	}
	c.lat = make([]int64, 0, total)
	return c
}

// topUp submits at receiver r until every one of its clients has a
// command outstanding.
func (c *clients) topUp(r int) {
	for len(c.vals[r])-c.head[r] < c.w.clientsPerReplica() {
		v := c.streams[r].next()
		c.vals[r] = append(c.vals[r], v)
		c.at[r] = append(c.at[r], now())
		if c.tr != nil {
			c.traced[r] = append(c.traced[r], cmdTrace{slot: -1, submitTick: int32(c.tr.tick)})
		}
		if err := c.log.Submit(r, v); err != nil && c.err == nil {
			c.err = err
		}
	}
}

// start submits every client's first command.
func (c *clients) start() {
	for r := 0; r < c.w.n; r++ {
		if c.w.isClient(r) {
			c.topUp(r)
		}
	}
}

// onApply is the log's apply callback. Receiver r learns that its
// commands committed when r itself applies a slot it sourced; that is
// the reply its clients wait for.
func (c *clients) onApply(replica int, e shiftgears.LogEntry) {
	r := e.Source
	if replica != r || !c.w.isClient(r) {
		return
	}
	t := now()
	for _, v := range e.Commands {
		h := c.head[r]
		if h >= len(c.vals[r]) || c.vals[r][h] != v {
			c.strays++
			continue
		}
		c.lat = append(c.lat, t-c.at[r][h])
		if c.tr != nil {
			ct := &c.traced[r][h]
			ct.slot, ct.appliedAt, ct.applyTick = int32(e.Slot), t, int32(c.tr.tick)
		}
		c.head[r] = h + 1
	}
	c.topUp(r)
}

// outcome is what a drive of the log produced, from either drive path.
type outcome struct {
	err                             error
	agreement                       bool
	entries                         []shiftgears.LogEntry
	ticks, bytes, messages, maxSize int
}

// driveTraced runs the log's replicas through rsm.Run over a fabric the
// benchmark builds itself, wrapped so the start and end of every
// Exchange are recorded — the one place the drive loop's tick can be
// split from outside. ReplicatedLog.Run builds the same fabric
// internally; the untraced runs use it.
func driveTraced(c *clients, tr *tracer) outcome {
	w, cfg, log := c.w, c.cfg, c.log
	var fab fabric.Fabric
	var err error
	switch w.fabric {
	case "tcp":
		fab, err = transport.NewMesh(w.n)
	case "mem":
		var mem *fabric.Mem
		mem, err = fabric.NewMem(w.n, *cfg.Chaos)
		if err == nil {
			mem.SetTracer(tr)
			fab = mem
		}
	default:
		fab, err = fabric.NewSim(w.n)
	}
	if err != nil {
		return outcome{err: err}
	}
	replicas := make([]*rsm.Replica, w.n)
	for id := range replicas {
		replicas[id] = log.Replica(id)
	}
	tr.runStart = now()
	stats, err := rsm.Run(&timedFabric{Fabric: fab, tr: tr}, replicas, false)
	tr.runEnd = now()
	if err != nil {
		return outcome{err: err}
	}
	out := outcome{
		agreement: true,
		ticks:     stats.Rounds, bytes: stats.Bytes, messages: stats.Messages, maxSize: stats.MaxPayload,
	}
	for id, rep := range replicas {
		if !w.isClient(id) {
			continue // Byzantine shadow state or a chaos-degraded log
		}
		if err := rep.Err(); err != nil {
			return outcome{err: fmt.Errorf("replica %d: %w", id, err)}
		}
		entries := rep.Entries()
		if out.entries == nil {
			out.entries = entries
		} else if !sameLog(out.entries, entries) {
			out.agreement = false
		}
	}
	if len(out.entries) != cfg.Slots {
		out.agreement = false
	}
	return out
}

func sameLog(a, b []shiftgears.LogEntry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Slot != b[i].Slot || a[i].Source != b[i].Source || len(a[i].Batch) != len(b[i].Batch) {
			return false
		}
		for p := range a[i].Batch {
			if a[i].Batch[p] != b[i].Batch[p] {
				return false
			}
		}
	}
	return true
}

// runStats is one run of one workload: timings, logical counters, the
// output check's verdict, and the process's memory counters across Run.
type runStats struct {
	setupS, wallS                         float64
	ticks, bytes, messages, maxSize       int
	committed, pending, attempted, failed int
	mallocs, heapBytes, gcPauseNs         uint64
	gcCycles                              uint32
	lat                                   []int64
	problems                              []string
}

func (rs *runStats) cmdsPerSec() float64 { return ratio(float64(rs.committed), rs.wallS) }

// setUp is the part of a run setup_s times: build a fresh log and submit
// every client's first command.
func setUp(w workload, o options, tr *tracer) (c *clients, seconds float64, err error) {
	runtime.GC()
	cfg := w.config(o.seed, o.quick)
	if tr != nil {
		cfg.Tracer = tr
	}
	c = newClients(w, cfg, o.seed, tr)
	t0 := now()
	c.log, err = shiftgears.NewReplicatedLog(cfg, shiftgears.WithLogApply(c.onApply))
	if err != nil {
		return c, 0, err
	}
	c.start()
	return c, float64(now()-t0) / 1e9, nil
}

// runOnce builds a fresh log, loads it, runs it, and checks its output.
// With tr == nil the log runs through ReplicatedLog.Run, tracing off;
// otherwise through driveTraced with tr installed as the log's Tracer.
func runOnce(w workload, o options, tr *tracer) (*runStats, *clients) {
	rs := &runStats{}
	c, setupS, err := setUp(w, o, tr)
	if err != nil {
		rs.problems = append(rs.problems, fmt.Sprintf("NewReplicatedLog: %v", err))
		rs.attempted, rs.failed = 1, 1
		return rs, c
	}
	rs.setupS = setupS

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var out outcome
	t1 := now()
	if tr == nil {
		res, err := c.log.Run()
		if err != nil {
			out.err = err
		} else {
			out = outcome{
				agreement: res.Agreement, entries: res.Entries,
				ticks: res.Ticks, bytes: res.TotalBytes, messages: res.Messages, maxSize: res.MaxMessageBytes,
			}
		}
	} else {
		out = driveTraced(c, tr)
	}
	rs.wallS = float64(now()-t1) / 1e9
	runtime.ReadMemStats(&after)
	rs.mallocs = after.Mallocs - before.Mallocs
	rs.heapBytes = after.TotalAlloc - before.TotalAlloc
	rs.gcCycles = after.NumGC - before.NumGC
	rs.gcPauseNs = after.PauseTotalNs - before.PauseTotalNs

	rs.ticks, rs.bytes, rs.messages, rs.maxSize = out.ticks, out.bytes, out.messages, out.maxSize
	rs.lat = c.lat
	c.check(out, rs)
	return rs, c
}

// check is the output check of one run. Attempted operations are the
// commands a slot carried (or should have carried): everything a client
// replica submitted except the tail still queued when the log ran out of
// slots. Each must appear in the agreed log exactly once, in its
// receiver's FIFO order, in a slot that receiver sourced; nothing else
// may be committed. A run that errors or loses agreement fails every
// operation it attempted.
func (c *clients) check(out outcome, rs *runStats) {
	submitted := 0
	for r := range c.vals {
		submitted += len(c.vals[r])
	}
	if c.err != nil {
		rs.problems = append(rs.problems, fmt.Sprintf("submit: %v", c.err))
	}
	if out.err != nil {
		rs.problems = append(rs.problems, fmt.Sprintf("run: %v", out.err))
	} else if !out.agreement {
		rs.problems = append(rs.problems, "correct replicas committed diverging logs")
	}
	if len(rs.problems) > 0 {
		rs.attempted, rs.failed = submitted, submitted
		return
	}

	committed := make([][]shiftgears.Value, c.w.n)
	for _, e := range out.entries {
		committed[e.Source] = append(committed[e.Source], e.Commands...)
	}
	for r := 0; r < c.w.n; r++ {
		got := committed[r]
		if !c.w.isClient(r) {
			if len(got) > 0 {
				rs.failed += len(got)
				rs.problems = append(rs.problems, fmt.Sprintf("replica %d hosts no clients but its slots committed %d commands", r, len(got)))
			}
			continue
		}
		pending := c.log.Replica(r).Pending()
		carried := c.vals[r][:len(c.vals[r])-pending]
		rs.pending += pending
		rs.attempted += len(carried)
		rs.committed += len(got)
		// Walk the committed commands through the carried ones: a carried
		// command the walk skips was lost from its slot, a committed one
		// it cannot place was never submitted (or is out of order).
		matched, i := 0, 0
		for _, v := range got {
			j := i
			for j < len(carried) && carried[j] != v {
				j++
			}
			if j < len(carried) {
				matched++
				i = j + 1
			}
		}
		if bad := (len(carried) - matched) + (len(got) - matched); bad > 0 {
			rs.failed += bad
			rs.problems = append(rs.problems, fmt.Sprintf("replica %d: %d carried, %d committed, only %d in FIFO order", r, len(carried), len(got), matched))
		}
	}
	if len(c.lat) != rs.committed || c.strays > 0 {
		rs.failed += c.strays
		rs.problems = append(rs.problems, fmt.Sprintf("%d latency samples for %d committed commands (%d strays)", len(c.lat), rs.committed, c.strays))
	}
	if rs.failed > rs.attempted {
		rs.failed = rs.attempted
	}
}
