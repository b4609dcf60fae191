package main

import (
	"bufio"
	"encoding/json"
	"os"

	"shiftgears"
	"shiftgears/internal/fabric"
	"shiftgears/internal/sim"
)

// tracer is the benchmark-owned flight-recorder sink of a traced run. It
// stamps wall-clock time on the events that bound a layer (tick start,
// slot open, slot commit), folds per-link traffic into per-sender byte
// counts, and only counts the rest (window motion, the chaos fabric's
// fault decisions). Like clients it relies on the sequential drive loop
// and is not safe for concurrent Emit.
type tracer struct {
	events int // every event seen
	tick   int // current global tick; 0 before the run

	runStart, runEnd              int64
	tickStart, exchStart, exchEnd []int64 // per tick

	// Per slot, from the first replica to report it (the sequential
	// loop visits replicas in id order within one phase of a tick).
	slotOpen, slotCommit         []int64
	slotOpenTick, slotCommitTick []int32
	slotRounds                   []int32
	slotGear                     []string

	sentBytes []int64 // per sender, over all links
}

func newTracer(n, slots, ticksHint int) *tracer {
	return &tracer{
		tickStart:      make([]int64, 0, ticksHint),
		exchStart:      make([]int64, 0, ticksHint),
		exchEnd:        make([]int64, 0, ticksHint),
		slotOpen:       make([]int64, slots),
		slotCommit:     make([]int64, slots),
		slotOpenTick:   make([]int32, slots),
		slotCommitTick: make([]int32, slots),
		slotRounds:     make([]int32, slots),
		slotGear:       make([]string, slots),
		sentBytes:      make([]int64, n),
	}
}

// Emit implements shiftgears.Tracer.
func (t *tracer) Emit(ev shiftgears.TraceEvent) {
	t.events++
	switch ev.Type {
	case shiftgears.TraceTickStart:
		t.tick = ev.Tick
		t.tickStart = append(t.tickStart, now())
	case shiftgears.TraceSlotOpen:
		if t.slotOpen[ev.Slot] == 0 {
			t.slotOpen[ev.Slot] = now()
			t.slotOpenTick[ev.Slot] = int32(ev.Tick)
		}
	case shiftgears.TraceGearResolved:
		if t.slotGear[ev.Slot] == "" {
			t.slotGear[ev.Slot] = ev.Gear
			t.slotRounds[ev.Slot] = int32(ev.Round)
		}
	case shiftgears.TraceSlotCommitted:
		if t.slotCommit[ev.Slot] == 0 {
			t.slotCommit[ev.Slot] = now()
			t.slotCommitTick[ev.Slot] = int32(ev.Tick)
		}
	case shiftgears.TraceFrameBatch:
		t.sentBytes[ev.From] += int64(ev.Bytes)
	}
}

// tickEnd is when tick i (0-based) ended: the next tick's start, or the
// run's end for the last one.
func (t *tracer) tickEnd(i int) int64 {
	if i+1 < len(t.tickStart) {
		return t.tickStart[i+1]
	}
	return t.runEnd
}

// timedFabric records when each Exchange starts and returns; the other
// Fabric methods pass through.
type timedFabric struct {
	fabric.Fabric
	tr *tracer
}

func (f *timedFabric) Exchange(tick int, outs [][]sim.MuxFrame, ins [][][][]byte) error {
	f.tr.exchStart = append(f.tr.exchStart, now())
	err := f.Fabric.Exchange(tick, outs, ins)
	f.tr.exchEnd = append(f.tr.exchEnd, now())
	return err
}

// span is one traced interval. Parent is the id of the span that
// contains it (0 for a root); the cmd, queue and agree spans of one
// command share its Req id.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Req    int    `json:"req,omitempty"`
	Tick   int    `json:"tick,omitempty"`
	Slot   int    `json:"slot"` // -1 when not slot-scoped, as in TraceEvent
	Gear   string `json:"gear,omitempty"`
}

// spans lays the recorded timestamps out as the span tree:
//
//	run ⊃ tick ⊃ {prepare, exchange, deliver}
//	run ⊃ slot                      (SlotOpen → SlotCommitted, tagged with its gear)
//	cmd ⊃ {queue, agree}            (submit → SlotOpen of its slot → apply)
//
// prepare is TickStart → Exchange entry (sim.Mux fill + rsm + core send
// halves), deliver is Exchange return → the next TickStart (traffic
// accounting, then the receive halves: store, discover, resolve, commit,
// apply). A cmd span may start before run does: the first commands are
// submitted during set-up.
func buildSpans(tr *tracer, c *clients) []span {
	var out []span
	add := func(s span) int {
		s.ID = len(out) + 1
		out = append(out, s)
		return s.ID
	}
	run := add(span{Name: "run", Start: tr.runStart, End: tr.runEnd, Slot: -1})
	for i := range tr.exchEnd {
		end := tr.tickEnd(i)
		tick := add(span{Parent: run, Name: "tick", Start: tr.tickStart[i], End: end, Tick: i + 1, Slot: -1})
		add(span{Parent: tick, Name: "prepare", Start: tr.tickStart[i], End: tr.exchStart[i], Tick: i + 1, Slot: -1})
		add(span{Parent: tick, Name: "exchange", Start: tr.exchStart[i], End: tr.exchEnd[i], Tick: i + 1, Slot: -1})
		add(span{Parent: tick, Name: "deliver", Start: tr.exchEnd[i], End: end, Tick: i + 1, Slot: -1})
	}
	for s := range tr.slotOpen {
		if tr.slotOpen[s] == 0 || tr.slotCommit[s] == 0 {
			continue
		}
		add(span{Parent: run, Name: "slot", Start: tr.slotOpen[s], End: tr.slotCommit[s], Slot: s, Gear: tr.slotGear[s]})
	}
	req := 0
	for r := range c.vals {
		for i, ct := range c.traced[r][:c.head[r]] {
			req++
			slot := int(ct.slot)
			open := tr.slotOpen[slot]
			cmd := add(span{Name: "cmd", Start: c.at[r][i], End: ct.appliedAt, Req: req, Slot: slot})
			add(span{Parent: cmd, Name: "queue", Start: c.at[r][i], End: open, Req: req, Slot: slot})
			add(span{Parent: cmd, Name: "agree", Start: open, End: ct.appliedAt, Req: req, Slot: slot})
		}
	}
	return out
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			_ = f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// traceMetrics derives a traced run's per-layer numbers straight from
// the recorded timestamps (the same data buildSpans lays out as a tree).
func traceMetrics(tr *tracer, c *clients, rs *runStats) map[string]float64 {
	m, cfg := map[string]float64{}, c.cfg
	ticks := len(tr.exchEnd)
	var prepare, exchange, deliver, total float64
	durs := make([]float64, ticks)
	for i := 0; i < ticks; i++ {
		end := tr.tickEnd(i)
		durs[i] = float64(end-tr.tickStart[i]) / 1e3
		prepare += float64(tr.exchStart[i] - tr.tickStart[i])
		exchange += float64(tr.exchEnd[i] - tr.exchStart[i])
		deliver += float64(end - tr.exchEnd[i])
		total += float64(end - tr.tickStart[i])
	}
	ds := sorted(durs)
	m["fabric.run.ticks"] = float64(ticks)
	m["fabric.run.tick_us_p50"] = quantile(ds, 0.5)
	m["fabric.run.tick_us_p99"] = quantile(ds, 0.99)
	m["fabric.run.tick_us_max"] = quantile(ds, 1)
	m["mux.prepare.us_per_tick"] = ratio(prepare/1e3, float64(ticks))
	m["mux.prepare.share"] = ratio(prepare, total)
	m["mux.deliver.us_per_tick"] = ratio(deliver/1e3, float64(ticks))
	m["mux.deliver.share"] = ratio(deliver, total)
	m["fabric.exchange.us_per_tick"] = ratio(exchange/1e3, float64(ticks))
	m["fabric.exchange.share"] = ratio(exchange, total)

	// rsm: where a command's time goes, in ticks and in wall time.
	var cmdTicks []float64
	var queueNs, cmdNs float64
	filled := map[int32]bool{} // slots that carried a command
	for r := range c.vals {
		for i, ct := range c.traced[r][:c.head[r]] {
			cmdTicks = append(cmdTicks, float64(ct.applyTick-ct.submitTick))
			queueNs += float64(tr.slotOpen[ct.slot] - c.at[r][i])
			cmdNs += float64(ct.appliedAt - c.at[r][i])
			filled[ct.slot] = true
		}
	}
	sortedTicks := sorted(cmdTicks)
	m["rsm.commit_p50_ticks"] = quantile(sortedTicks, 0.5)
	m["rsm.commit_p99_ticks"] = quantile(sortedTicks, 0.99)
	m["rsm.queue_share"] = ratio(queueNs, cmdNs)
	var slotTicks float64
	var slotUs []float64
	for s := range tr.slotOpen {
		if tr.slotOpen[s] == 0 || tr.slotCommit[s] == 0 {
			continue
		}
		slotTicks += float64(tr.slotCommitTick[s]-tr.slotOpenTick[s]) + 1
		slotUs = append(slotUs, float64(tr.slotCommit[s]-tr.slotOpen[s])/1e3)
	}
	m["rsm.slot_ticks_mean"] = ratio(slotTicks, float64(len(slotUs)))
	m["rsm.slot_us_p50"] = median(slotUs)
	m["rsm.batch_fill"] = ratio(float64(rs.committed), float64(cfg.Slots*cfg.BatchSize))
	// A burned slot committed nothing: its source was Byzantine, degraded
	// by the chaos plan, or had no command queued.
	m["rsm.burned_slot_share"] = 1 - ratio(float64(len(filled)), float64(cfg.Slots))

	// gears: how often the schedule left the gear it started in, and
	// what that bought against running the first gear throughout.
	shifts, low := 0, 0
	static := make([]int, cfg.Slots)
	for s := range tr.slotGear {
		if s > 0 && tr.slotGear[s] != tr.slotGear[s-1] {
			shifts++
		}
		if tr.slotGear[s] != tr.slotGear[0] {
			low++
		}
		static[s] = int(tr.slotRounds[0])
	}
	m["gears.shifts"] = float64(shifts)
	m["gears.low_share"] = ratio(float64(low), float64(cfg.Slots))
	m["gears.ticks_vs_static"] = ratio(float64(ticks), float64(sim.MuxTicks(static, cfg.Window)))

	// wire: exact counts; King–Saia's cost is per processor, so the
	// busiest sender is reported next to the aggregate.
	var maxSent int64
	for _, b := range tr.sentBytes {
		if b > maxSent {
			maxSent = b
		}
	}
	m["wire.msgs_per_cmd"] = ratio(float64(rs.messages), float64(rs.committed))
	m["wire.max_frame_bytes"] = float64(rs.maxSize)
	m["wire.bytes_per_replica_per_cmd"] = ratio(float64(maxSent), float64(rs.committed))

	m["trace.events_per_tick"] = ratio(float64(tr.events), float64(ticks))
	return m
}
