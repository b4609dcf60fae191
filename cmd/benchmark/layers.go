package main

import (
	"fmt"
	"io"
	"time"

	"shiftgears"
	"shiftgears/internal/consensus"
	"shiftgears/internal/core"
	"shiftgears/internal/eigtree"
	"shiftgears/internal/fabric"
	"shiftgears/internal/faults"
	"shiftgears/internal/obs"
	"shiftgears/internal/shard"
	"shiftgears/internal/sim"
	"shiftgears/internal/transport"
)

// The layer matrix: each layer's exported functions in a timed loop of
// their own, on inputs built from -seed at the two tree shapes the
// workloads use. It bounds from outside what the traced run cannot split
// (the deliver half into rsm, core, faults and eigtree) and guards the
// layers no workload exercises (shard, the obs sinks).

type shape struct {
	name string
	n, t int
}

var shapes = []shape{{"n7t2", 7, 2}, {"n13t3", 13, 3}}

// coreAlgs are the core algorithms the workloads run (hybrid's low gear
// B included), each at the shapes where (n, t, b=3) admits it.
var coreAlgs = []struct {
	name   string
	alg    core.Algorithm
	shapes []shape
}{
	{"exponential", core.Exponential, shapes},
	{"hybrid", core.Hybrid, shapes[1:]},
	{"B", core.AlgorithmB, shapes[1:]},
}

// Synthetic fabric tick: steady-n7's cluster and window, at a payload
// near its real frames and at one that makes copying dominate.
const (
	fabricN         = 7
	fabricInstances = 8
)

var fabricPayloads = []struct {
	name string
	size int
}{{"28b", 28}, {"1k", 1024}}

// layerTimer runs one layer's loop: a doubling calibration pass (which
// also warms caches and pools), then samples loops of about loop each,
// reporting the median nanoseconds per call.
type layerTimer struct {
	loop    time.Duration
	samples int
}

func (lt layerTimer) nsPerOp(op func()) float64 {
	iters, per := 1, 0.0
	for {
		t0 := now()
		for i := 0; i < iters; i++ {
			op()
		}
		el := float64(now() - t0)
		per = el / float64(iters)
		if el >= float64(lt.loop)/4 || iters >= 1<<28 {
			break
		}
		iters *= 2
	}
	iters = int(float64(lt.loop) / per)
	if iters < 1 {
		iters = 1
	}
	vals := make([]float64, lt.samples)
	for s := range vals {
		t0 := now()
		for i := 0; i < iters; i++ {
			op()
		}
		vals[s] = float64(now()-t0) / float64(iters)
	}
	return median(vals)
}

// layerMatrix measures every kernel and returns the metrics by name. An
// error means a layer produced a wrong output, not a slow one.
func layerMatrix(seed int64, lt layerTimer, quick bool) (map[string]float64, error) {
	m := map[string]float64{}
	rng := newStream(seed, -1)
	for _, sh := range shapes {
		if err := eigtreeKernels(m, sh, lt, &rng); err != nil {
			return nil, fmt.Errorf("eigtree %s: %w", sh.name, err)
		}
	}
	for _, ca := range coreAlgs {
		for _, sh := range ca.shapes {
			if err := coreKernels(m, ca.name, ca.alg, sh, lt, &rng); err != nil {
				return nil, fmt.Errorf("core %s %s: %w", ca.name, sh.name, err)
			}
		}
	}
	if err := codecKernel(m, lt, &rng); err != nil {
		return nil, fmt.Errorf("consensus codec: %w", err)
	}
	if err := fabricKernels(m, seed, lt, &rng); err != nil {
		return nil, fmt.Errorf("fabric tick: %w", err)
	}
	if err := shardKernels(m, seed, lt, quick); err != nil {
		return nil, fmt.Errorf("shard: %w", err)
	}
	obsKernels(m, lt)
	return m, nil
}

// eigtreeKernels times the Exponential Algorithm's tree at one shape: the
// deepest level's store from every sender's payload, the full recursive
// majority, the fault discovery pass over the stored level, and building
// the enumeration itself.
func eigtreeKernels(m map[string]float64, sh shape, lt layerTimer, rng *stream) error {
	enum, err := eigtree.NewEnum(sh.n, 0, false, sh.t)
	if err != nil {
		return err
	}
	tr := eigtree.NewTree(enum)
	tr.SetRoot(1)
	for h := 1; h <= sh.t; h++ {
		if _, err := tr.AddLevel(); err != nil {
			return err
		}
	}
	payload := make([]byte, enum.Size(sh.t-1))
	for i := range payload {
		payload[i] = byte(rng.next() % 3)
	}
	var opErr error
	ns := lt.nsPerOp(func() {
		for r := 1; r < sh.n; r++ {
			if err := tr.StoreFromPayload(r, payload); err != nil {
				opErr = err
			}
		}
	})
	if opErr != nil {
		return opErr
	}
	m["eigtree.store_ns_per_node."+sh.name] = ns / float64((sh.n-1)*len(payload))

	// A tree of random values makes resolve do its general-case work; the
	// root it reports is checked against a second, fresh resolution.
	for h := 1; h <= sh.t; h++ {
		lvl := tr.LevelValues(h)
		for i := range lvl {
			lvl[i] = eigtree.Value(rng.next() % 3)
		}
	}
	ref, err := tr.Clone().Resolve(eigtree.ResolveMajority, sh.t)
	if err != nil {
		return err
	}
	want := ref.Root()
	ns = lt.nsPerOp(func() {
		res, err := tr.Resolve(eigtree.ResolveMajority, sh.t)
		if err != nil {
			opErr = err
		} else if res.Root() != want {
			opErr = fmt.Errorf("resolve root %v, want %v", res.Root(), want)
		}
	})
	if opErr != nil {
		return opErr
	}
	m["eigtree.resolve_ns_per_node."+sh.name] = ns / float64(tr.NodeCount())

	// Discovery on an honest tree (every node agrees): the full scan with
	// no accusation, which is what the fault-free workloads pay per round.
	for h := 1; h <= sh.t; h++ {
		lvl := tr.LevelValues(h)
		for i := range lvl {
			lvl[i] = 1
		}
	}
	list := faults.NewList(sh.n)
	reads := 0
	ns = lt.nsPerOp(func() {
		accused, stats := faults.DiscoverStored(tr, list, sh.t, sh.t+1)
		if len(accused) > 0 {
			opErr = fmt.Errorf("honest tree accused %v", accused)
		}
		reads = stats.ChildReads
	})
	if opErr != nil {
		return opErr
	}
	m["faults.discover_ns_per_node."+sh.name] = ns / float64(reads)

	ns = lt.nsPerOp(func() {
		if _, err := eigtree.NewEnum(sh.n, 0, false, sh.t); err != nil {
			opErr = err
		}
	})
	m["eigtree.enum_build_us."+sh.name] = ns / 1e3
	return opErr
}

// coreKernels times one whole agreement instance — n replicas through
// every round of the plan, by direct PrepareRound/DeliverRound calls —
// with replicas drawn from and released to the Env pool exactly as the
// log engine does, and the plan's compilation.
func coreKernels(m map[string]float64, name string, alg core.Algorithm, sh shape, lt layerTimer, rng *stream) error {
	plan, err := core.NewPlan(alg, sh.n, sh.t, blockParam, 0)
	if err != nil {
		return err
	}
	env, err := core.NewEnv(plan)
	if err != nil {
		return err
	}
	if err := env.Prewarm(sh.n); err != nil {
		return err
	}
	reps := make([]*core.Replica, sh.n)
	outs := make([][][]byte, sh.n)
	inbox := make([][]byte, sh.n)
	var opErr error
	ns := lt.nsPerOp(func() {
		v := rng.next()
		for id := range reps {
			r, err := env.GetReplica(id, v, nil)
			if err != nil {
				opErr = err
				return
			}
			reps[id] = r
		}
		for round := 1; round <= plan.TotalRounds; round++ {
			for id, r := range reps {
				outs[id] = r.PrepareRound(round)
			}
			for j, r := range reps {
				for i := range inbox {
					inbox[i] = nil
					if outs[i] != nil {
						inbox[i] = outs[i][j]
					}
				}
				r.DeliverRound(round, inbox)
			}
		}
		for id, r := range reps {
			if d, ok := r.Decided(); !ok || d != v || r.Err() != nil {
				opErr = fmt.Errorf("replica %d decided (%v, %v), want %v (err %v)", id, d, ok, v, r.Err())
			}
			r.Release()
		}
	})
	if opErr != nil {
		return opErr
	}
	suffix := name + "." + sh.name
	m["core.instance_us."+suffix] = ns / 1e3

	ns = lt.nsPerOp(func() {
		p, err := core.NewPlan(alg, sh.n, sh.t, blockParam, 0)
		if err == nil {
			_, err = core.NewEnv(p)
		}
		if err != nil {
			opErr = err
		}
	})
	m["core.plan_compile_us."+suffix] = ns / 1e3
	return opErr
}

// codecKernel times the rsm inner codec: a batch of four position frames
// packed into the slot arena and split back out.
func codecKernel(m map[string]float64, lt layerTimer, rng *stream) error {
	frames := make([][]byte, 4)
	for p := range frames {
		frames[p] = make([]byte, 28)
		for i := range frames[p] {
			frames[p][i] = byte(rng.next())
		}
	}
	dec := make([][]byte, len(frames))
	var arena []byte
	bad := false
	ns := lt.nsPerOp(func() {
		var ok bool
		arena, ok = consensus.AppendFrames(arena[:0], frames)
		if !ok || !consensus.DecodeFramesInto(dec, arena) || len(dec[3]) != len(frames[3]) {
			bad = true
		}
	})
	if bad {
		return fmt.Errorf("frames did not round-trip")
	}
	m["consensus.codec_ns_per_frame"] = ns / float64(len(frames))
	return nil
}

// fabricKernels times one synthetic tick's Exchange on each fabric.
func fabricKernels(m map[string]float64, seed int64, lt layerTimer, rng *stream) error {
	for _, fp := range fabricPayloads {
		payload := make([]byte, fp.size)
		for i := range payload {
			payload[i] = byte(rng.next())
		}
		outs := make([][]sim.MuxFrame, fabricN)
		ins := make([][][][]byte, fabricN)
		for id := range outs {
			outs[id] = make([]sim.MuxFrame, fabricInstances)
			for f := range outs[id] {
				outs[id][f] = sim.MuxFrame{Instance: f, Round: 1, Outbox: sim.Broadcast(fabricN, payload)}
			}
			ins[id] = make([][][]byte, fabricN)
			for s := range ins[id] {
				ins[id][s] = make([][]byte, fabricInstances)
			}
		}
		simFab, err := fabric.NewSim(fabricN)
		if err != nil {
			return err
		}
		// The chaos-mem workload's drop filter, without the tick-ranged
		// windows (a synthetic loop has no schedule for them to land on).
		memFab, err := fabric.NewMem(fabricN, fabric.Plan{Seed: seed, Victims: []int{fabricN - 1}, Drop: 0.3})
		if err != nil {
			return err
		}
		mesh, err := transport.NewMesh(fabricN)
		if err != nil {
			return err
		}
		for _, fk := range []struct {
			name  string
			fab   fabric.Fabric
			scale float64
		}{
			{"fabric.sim.exchange_ns.", simFab, 1},
			{"fabric.mem.exchange_ns.", memFab, 1},
			{"transport.mesh.exchange_us.", mesh, 1e3},
		} {
			tick := 0
			var opErr error
			ns := lt.nsPerOp(func() {
				tick++
				if err := fk.fab.Exchange(tick, outs, ins); err != nil {
					opErr = err
				}
			})
			if opErr == nil && len(ins[0][1][fabricInstances-1]) != fp.size {
				opErr = fmt.Errorf("node 0 holds %d bytes from node 1, want %d", len(ins[0][1][fabricInstances-1]), fp.size)
			}
			if opErr != nil {
				_ = mesh.Close()
				return fmt.Errorf("%s%s: %w", fk.name, fp.name, opErr)
			}
			m[fk.name+fp.name] = ns / fk.scale
		}
		if err := mesh.Close(); err != nil {
			return err
		}
	}
	return nil
}

// shardKernels times the command router and the sharded drive: a
// preloaded MultiLog of two steady-n7-shaped shards against one. On two
// cores a parallel shard.Drive doubles the commands per second.
func shardKernels(m map[string]float64, seed int64, lt layerTimer, quick bool) error {
	router, err := shard.NewRouter(4, uint64(seed), nil)
	if err != nil {
		return err
	}
	var opErr error
	cmd := 0
	m["shard.route_ns"] = lt.nsPerOp(func() {
		cmd++
		if _, err := router.Route(shard.Value(1 + cmd%255)); err != nil {
			opErr = err
		}
	})
	if opErr != nil {
		return opErr
	}

	w, _ := findWorkload("steady-n7")
	slots := 2100
	if quick {
		slots = 14
	}
	cps := func(k int) (float64, error) {
		vals := make([]float64, lt.samples)
		for s := range vals {
			cfg := w.config(seed, quick)
			cfg.Slots = slots
			ml, err := shiftgears.NewMultiLog(shiftgears.MultiLogConfig{Shards: k, Log: cfg})
			if err != nil {
				return 0, err
			}
			// Preloaded, open loop: every slot of every shard gets a full
			// batch, submitted to the shard's log directly (the router
			// is timed above).
			rng := newStream(seed, -2)
			for sh := 0; sh < k; sh++ {
				for i := 0; i < slots*w.batch; i++ {
					if err := ml.Shard(sh).Submit(i/w.batch%w.n, rng.next()); err != nil {
						return 0, err
					}
				}
			}
			t0 := now()
			res, err := ml.Run()
			wall := float64(now()-t0) / 1e9
			if err != nil {
				return 0, err
			}
			if !res.Agreement || res.Committed != k*slots*w.batch {
				return 0, fmt.Errorf("K=%d committed %d of %d commands (agreement %v)", k, res.Committed, k*slots*w.batch, res.Agreement)
			}
			vals[s] = float64(res.Committed) / wall
		}
		return median(vals), nil
	}
	k1, err := cps(1)
	if err != nil {
		return err
	}
	k2, err := cps(2)
	if err != nil {
		return err
	}
	m["shard.drive_speedup_k2"] = ratio(k2, k1)
	return nil
}

// obsKernels times the flight recorder's sinks, the cost behind
// trace.overhead_share.
func obsKernels(m map[string]float64, lt layerTimer) {
	ev := obs.At(obs.FrameBatch, 1)
	ev.From, ev.To, ev.Frames, ev.Bytes = 1, 2, 8, 224
	ring := obs.NewRing(0)
	m["obs.ring_emit_ns"] = lt.nsPerOp(func() { ring.Emit(ev) })
	jsonl := obs.NewJSONL(io.Discard)
	m["obs.jsonl_emit_ns"] = lt.nsPerOp(func() { jsonl.Emit(ev) })
	var hist obs.Histogram
	i := 0
	m["obs.hist_observe_ns"] = lt.nsPerOp(func() { i++; hist.Observe(i & 127) })
}
