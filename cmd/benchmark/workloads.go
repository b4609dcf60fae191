package main

import (
	"shiftgears"
)

// blockParam is the paper's block parameter b, shared by every workload
// and layer shape.
const blockParam = 3

// workload is one fixed-size input to the replicated log. Sizes are
// constants — never calibrated to the machine — so the two sides of a
// comparison always do identical work; -seconds only decides how many
// times the fixed-size run is repeated.
type workload struct {
	name, why string
	n, t      int
	alg       shiftgears.Algorithm
	window    int
	batch     int
	slots     int // log length of one measured run
	quick     int // log length under -quick (tests)
	fabric    string
	faulty    []int // Byzantine replicas (strategy "silent")
	downshift bool  // GearPolicyWithBase(Downshift, alg)
	chaos     bool  // the mem fabric's fault plan on victim n-1
}

var workloads = []workload{
	{
		name: "pipeline-n4", n: 4, t: 1, alg: shiftgears.Exponential,
		window: 8, batch: 4, slots: 80000, quick: 64, fabric: "sim",
		why: "trivial trees: rsm + sim.Mux + fabric.Run dominate, so engine-overhead changes show here and eigtree changes do not",
	},
	{
		name: "steady-n7", n: 7, t: 2, alg: shiftgears.Exponential,
		window: 8, batch: 4, slots: 21000, quick: 56, fabric: "sim",
		why: "the canonical mixed case (core about half, engine about 40%); sim leg of the three-fabric comparison",
	},
	{
		name: "bigtree-n13", n: 13, t: 3, alg: shiftgears.Exponential,
		window: 4, batch: 4, slots: 520, quick: 13, fabric: "sim",
		why: "core, faults.DiscoverStored and eigtree are ~97% of CPU: tree and discovery changes show here, engine and fabric changes do not",
	},
	{
		name: "steady-n7-tcp", n: 7, t: 2, alg: shiftgears.Exponential,
		window: 8, batch: 4, slots: 10500, quick: 28, fabric: "tcp",
		why: "steady-n7's schedule with every frame through a loopback socket: transport.Mesh changes show here and must leave steady-n7 unmoved",
	},
	{
		name: "chaos-mem", n: 7, t: 2, alg: shiftgears.Exponential,
		window: 8, batch: 4, slots: 21000, quick: 56, fabric: "mem", chaos: true,
		why: "seeded drops, a partition and a crash on replica 6: the fabric's fault filter runs and the victim's slots burn",
	},
	{
		name: "faulty-static", n: 13, t: 3, alg: shiftgears.Hybrid,
		window: 4, batch: 2, slots: 780, quick: 13, fabric: "sim", faulty: []int{2, 5, 8},
		why: "the paper's setting with f = t silent faults and no shifting: baseline twin of faulty-downshift",
	},
	{
		name: "faulty-downshift", n: 13, t: 3, alg: shiftgears.Hybrid,
		window: 4, batch: 2, slots: 780, quick: 13, fabric: "sim", faulty: []int{2, 5, 8}, downshift: true,
		why: "shifting gears on the fly: fewer ticks than faulty-static, plans compiled mid-run; its wall-clock gain is the paper's claim",
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func (w workload) slotCount(quick bool) int {
	if quick {
		return w.quick
	}
	return w.slots
}

// victim is the chaos plan's degraded replica.
func (w workload) victim() int { return w.n - 1 }

// isClient reports whether replica r hosts clients: correct and untouched
// by the chaos plan, so every command it submits must commit.
func (w workload) isClient(r int) bool {
	for _, f := range w.faulty {
		if f == r {
			return false
		}
	}
	return !(w.chaos && r == w.victim())
}

// burnsSlots reports whether some slots commit nothing by design: their
// source is Byzantine or degraded by the chaos plan.
func (w workload) burnsSlots() bool { return w.chaos || len(w.faulty) > 0 }

// shiftsGears reports whether a gear policy may change a slot's algorithm.
func (w workload) shiftsGears() bool { return w.downshift }

// clientsPerReplica is the smallest closed-loop client count that fills
// every slot a replica sources: a window holds ⌈window/n⌉ of its slots at
// once, each carrying batch commands.
func (w workload) clientsPerReplica() int {
	return w.batch * ((w.window + w.n - 1) / w.n)
}

// chaosPlan is the chaos-mem fault schedule. The tick windows assume the
// full-size run (7,875 ticks); -quick runs last ~21 ticks and shrink
// them so the partition and the crash still happen.
func (w workload) chaosPlan(seed int64, quick bool) *shiftgears.Chaos {
	v := w.victim()
	plan := &shiftgears.Chaos{
		Seed: seed, Victims: []int{v}, Drop: 0.3,
		Partitions: []shiftgears.ChaosPartition{{From: 40, Until: 400, Group: []int{v}}},
		Crashes:    []shiftgears.ChaosCrash{{Node: v, From: 1000, Until: 1400}},
	}
	if quick {
		plan.Partitions[0].From, plan.Partitions[0].Until = 3, 8
		plan.Crashes[0].From, plan.Crashes[0].Until = 12, 16
	}
	return plan
}

// config is the log configuration of one run. The engine sees the seed
// only where the workload's faults are seeded (chaos plan, adversary);
// commands come from the benchmark's own stream.
func (w workload) config(seed int64, quick bool) shiftgears.LogConfig {
	cfg := shiftgears.LogConfig{
		Algorithm: w.alg,
		N:         w.n, T: w.t, B: blockParam,
		Slots: w.slotCount(quick), Window: w.window, BatchSize: w.batch,
		Workers: 1, Parallel: false, Fabric: w.fabric,
	}
	if len(w.faulty) > 0 {
		cfg.Faulty, cfg.Strategy, cfg.Seed = w.faulty, "silent", seed
	}
	if w.downshift {
		cfg.GearPolicy = shiftgears.GearPolicyWithBase(shiftgears.Downshift{}, w.alg)
	}
	if w.chaos {
		cfg.Chaos = w.chaosPlan(seed, quick)
	}
	return cfg
}
