package shiftgears_test

// One benchmark per experiment table/figure of DESIGN.md. Each bench runs
// the workload that regenerates its table's headline row and reports the
// paper's observables (rounds, message bytes, local ops) as custom metrics,
// so `go test -bench=. -benchmem` reproduces the evaluation's shape.

import (
	"fmt"
	"testing"

	"shiftgears"
	"shiftgears/internal/baseline"
	"shiftgears/internal/core"
	"shiftgears/internal/experiments"
)

// runBench executes one configuration b.N times and reports paper metrics.
func runBench(b *testing.B, cfg shiftgears.Config) {
	b.Helper()
	var last *shiftgears.Result
	for i := 0; i < b.N; i++ {
		res, err := shiftgears.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Agreement || !res.Validity {
			b.Fatalf("agreement=%v validity=%v", res.Agreement, res.Validity)
		}
		last = res
	}
	b.ReportMetric(float64(last.Rounds), "rounds")
	b.ReportMetric(float64(last.MaxMessageBytes), "maxMsgB")
	b.ReportMetric(float64(last.ResolveOps+last.DiscoveryReads), "localOps")
}

// BenchmarkE1Exponential — Proposition 1: t+1 rounds, exponential messages.
func BenchmarkE1Exponential(b *testing.B) {
	runBench(b, shiftgears.Config{
		Algorithm: shiftgears.Exponential, N: 13, T: 4, SourceValue: 1,
		Faulty: []int{0, 2, 5, 9}, Strategy: "splitbrain",
	})
}

// BenchmarkE2AlgorithmB — Theorem 3: t+1+⌊(t−1)/(b−1)⌋ rounds, O(n^b) bits.
func BenchmarkE2AlgorithmB(b *testing.B) {
	runBench(b, shiftgears.Config{
		Algorithm: shiftgears.AlgorithmB, N: 21, T: 5, B: 3, SourceValue: 1,
		Faulty: []int{0, 2, 5, 9, 12}, Strategy: "splitbrain",
	})
}

// BenchmarkE3AlgorithmA — Theorem 2: t+2+2⌊(t−1)/(b−2)⌋ rounds, O(n^b) bits.
func BenchmarkE3AlgorithmA(b *testing.B) {
	runBench(b, shiftgears.Config{
		Algorithm: shiftgears.AlgorithmA, N: 16, T: 5, B: 3, SourceValue: 1,
		Faulty: []int{0, 2, 5, 9, 12}, Strategy: "splitbrain",
	})
}

// BenchmarkE4AlgorithmC — Theorem 4: t+1 rounds, O(n)-byte messages.
func BenchmarkE4AlgorithmC(b *testing.B) {
	runBench(b, shiftgears.Config{
		Algorithm: shiftgears.AlgorithmC, N: 32, T: 4, SourceValue: 1,
		Faulty: []int{0, 7, 14, 21}, Strategy: "splitbrain",
	})
}

// BenchmarkE5Hybrid — Theorem 1: the headline hybrid at full resilience.
func BenchmarkE5Hybrid(b *testing.B) {
	runBench(b, shiftgears.Config{
		Algorithm: shiftgears.Hybrid, N: 16, T: 5, B: 3, SourceValue: 1,
		Faulty: []int{0, 2, 5, 9, 12}, Strategy: "splitbrain",
	})
}

// BenchmarkE5HybridVsA reports the Main Theorem's round saving directly.
func BenchmarkE5HybridVsA(b *testing.B) {
	var saved int
	for i := 0; i < b.N; i++ {
		h, err := shiftgears.Run(shiftgears.Config{Algorithm: shiftgears.Hybrid, N: 31, T: 10, B: 3, SourceValue: 1})
		if err != nil {
			b.Fatal(err)
		}
		a, err := shiftgears.Run(shiftgears.Config{Algorithm: shiftgears.AlgorithmA, N: 31, T: 10, B: 3, SourceValue: 1})
		if err != nil {
			b.Fatal(err)
		}
		saved = a.Rounds - h.Rounds
	}
	b.ReportMetric(float64(saved), "roundsSaved")
}

// BenchmarkE6Tradeoff — one sweep of the rounds/message trade-off point
// (b=4) plus the Coan-model comparison.
func BenchmarkE6Tradeoff(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		res, err := shiftgears.Run(shiftgears.Config{Algorithm: shiftgears.AlgorithmB, N: 21, T: 5, B: 4, SourceValue: 1})
		if err != nil {
			b.Fatal(err)
		}
		coan := baseline.CoanModel(21, 5, 4)
		ratio = float64(res.ResolveOps+res.DiscoveryReads) / float64(20) / coan.LocalOps
	}
	b.ReportMetric(ratio, "opsVsCoan")
}

// BenchmarkE7PSL — the original Pease–Shostak–Lamport baseline OM(t).
func BenchmarkE7PSL(b *testing.B) {
	runBench(b, shiftgears.Config{
		Algorithm: shiftgears.PSL, N: 10, T: 3, SourceValue: 1,
		Faulty: []int{2, 5, 8}, Strategy: "crash",
	})
}

// BenchmarkE7PSLVsExponential contrasts wire formats on the same tree.
func BenchmarkE7PSLVsExponential(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		eig, err := shiftgears.Run(shiftgears.Config{Algorithm: shiftgears.Exponential, N: 10, T: 3, SourceValue: 1})
		if err != nil {
			b.Fatal(err)
		}
		psl, err := shiftgears.Run(shiftgears.Config{Algorithm: shiftgears.PSL, N: 10, T: 3, SourceValue: 1})
		if err != nil {
			b.Fatal(err)
		}
		ratio = float64(psl.MaxMessageBytes) / float64(eig.MaxMessageBytes)
	}
	b.ReportMetric(ratio, "pslMsgOverhead")
}

// BenchmarkE8FaultDetection — the adversarial run behind the per-block
// detection accounting (Propositions 2/3).
func BenchmarkE8FaultDetection(b *testing.B) {
	var detections int
	for i := 0; i < b.N; i++ {
		res, err := shiftgears.Run(shiftgears.Config{
			Algorithm: shiftgears.AlgorithmB, N: 21, T: 5, B: 3, SourceValue: 1,
			Faulty: []int{0, 5, 8, 11, 14}, Strategy: "splitbrain",
		})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Agreement {
			b.Fatal("agreement lost")
		}
		detections = len(res.GlobalDetections)
	}
	b.ReportMetric(float64(detections), "globalDetections")
}

// BenchmarkE9PhaseQueen — the Section 5 constant-message-size comparison.
func BenchmarkE9PhaseQueen(b *testing.B) {
	runBench(b, shiftgears.Config{
		Algorithm: shiftgears.PhaseQueen, N: 21, T: 5, SourceValue: 1,
		Faulty: []int{0, 3, 6, 9, 12}, Strategy: "splitbrain",
	})
}

// BenchmarkE10Ablation measures the full rules against the
// discovery-disabled variant (the ablation's cost side: the rules' overhead
// is what buys the block-progress guarantee).
func BenchmarkE10Ablation(b *testing.B) {
	plan, err := core.NewPlan(core.AlgorithmB, 17, 4, 3, 0)
	if err != nil {
		b.Fatal(err)
	}
	_ = plan
	for _, variant := range []struct {
		name string
		opts core.Options
	}{
		{"full-rules", core.Options{}},
		{"no-discovery", core.Options{DisableDiscovery: true}},
	} {
		b.Run(variant.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := experiments.RunCoreScenario(plan, variant.opts, []int{0, 4, 8, 12}, "splitbrain", int64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE11Vector — interactive consistency: n multiplexed broadcast
// instances (the PSL 1980 goal) under split-brain faults.
func BenchmarkE11Vector(b *testing.B) {
	inputs := make([]shiftgears.Value, 10)
	for i := range inputs {
		inputs[i] = shiftgears.Value(i % 3)
	}
	var last *shiftgears.VectorResult
	for i := 0; i < b.N; i++ {
		res, err := shiftgears.RunVector(shiftgears.VectorConfig{
			Algorithm: shiftgears.Exponential, N: 10, T: 3,
			Inputs: inputs, Faulty: []int{0, 4, 8}, Strategy: "splitbrain",
		})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Agreement || !res.SlotValidity {
			b.Fatal("interactive consistency violated")
		}
		last = res
	}
	b.ReportMetric(float64(last.Rounds), "rounds")
	b.ReportMetric(float64(last.MaxMessageBytes), "maxMsgB")
}

// BenchmarkE12Multivalued — the Section 2 remark: a large value domain
// reduced to a bit at the cost of two rounds.
func BenchmarkE12Multivalued(b *testing.B) {
	runBench(b, shiftgears.Config{
		Algorithm: shiftgears.Multivalued, N: 17, T: 4, SourceValue: 201,
		Faulty: []int{0, 4, 8, 12}, Strategy: "splitbrain",
	})
}

// BenchmarkF1TreeBuild — the Figure 1 artifact: building and resolving one
// processor's Information Gathering Tree for a full Exponential run.
func BenchmarkF1TreeBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiments.F1Tree()
		if err != nil {
			b.Fatal(err)
		}
		if len(tab.Text) == 0 {
			b.Fatal("empty rendering")
		}
	}
}

// BenchmarkF2PlanB — compiling Algorithm B schedules across the (t, b) grid.
func BenchmarkF2PlanB(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for t := 2; t <= 12; t++ {
			for bb := 2; bb <= t; bb++ {
				if _, err := core.NewPlan(core.AlgorithmB, 4*t+1, t, bb, 0); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// BenchmarkF3PlanHybrid — deriving Main Theorem parameters and schedules.
func BenchmarkF3PlanHybrid(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for t := 3; t <= 15; t++ {
			for bb := 3; bb <= t; bb++ {
				if _, err := core.NewPlan(core.Hybrid, 3*t+1, t, bb, 0); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// BenchmarkRSMThroughput sweeps the replicated log's two amortization
// knobs — pipelining window and batch size — over a fixed 84-command
// workload (n=7, t=2, two Byzantine replicas) and reports committed
// commands per synchronous tick. window=1/batch=1 is the sequential
// single-shot baseline (one agreement per command); the pipelined+batched
// corners demonstrate the multiplicative win: cmds/tick grows with both
// knobs while ns/op shrinks.
func BenchmarkRSMThroughput(b *testing.B) {
	const (
		n, t     = 7, 2
		commands = 84
	)
	for _, mode := range []struct{ window, batch int }{
		{1, 1}, {1, 4}, {4, 1}, {4, 4}, {7, 4},
	} {
		name := fmt.Sprintf("window=%d/batch=%d", mode.window, mode.batch)
		b.Run(name, func(b *testing.B) {
			perReplica := (commands + n - 1) / n
			slots := n * ((perReplica + mode.batch - 1) / mode.batch)
			var last *shiftgears.LogResult
			for i := 0; i < b.N; i++ {
				log, err := shiftgears.NewReplicatedLog(shiftgears.LogConfig{
					Algorithm: shiftgears.Exponential,
					N:         n, T: t,
					Slots: slots, Window: mode.window, BatchSize: mode.batch,
					Faulty: []int{2, 5}, Strategy: "splitbrain", Seed: 7,
				})
				if err != nil {
					b.Fatal(err)
				}
				for c := 0; c < commands; c++ {
					if err := log.Submit(c%n, shiftgears.Value(1+c%255)); err != nil {
						b.Fatal(err)
					}
				}
				res, err := log.Run()
				if err != nil {
					b.Fatal(err)
				}
				if !res.Agreement {
					b.Fatal("agreement lost")
				}
				last = res
			}
			b.ReportMetric(float64(last.Committed)/float64(last.Ticks), "cmds/tick")
			b.ReportMetric(float64(last.Ticks), "ticks")
			b.ReportMetric(float64(last.SequentialTicks)/float64(last.Ticks), "pipelineSpeedup")
		})
	}
}

// BenchmarkRSMThroughputTCP measures the pipelined log with every frame
// crossing a loopback socket: the wall-clock side of the window knob (the
// mesh pays one latency barrier per tick, so fewer ticks = faster log).
func BenchmarkRSMThroughputTCP(b *testing.B) {
	for _, window := range []int{1, 4} {
		b.Run(fmt.Sprintf("window=%d", window), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				log, err := shiftgears.NewReplicatedLog(shiftgears.LogConfig{
					Algorithm: shiftgears.Exponential,
					N:         4, T: 1,
					Slots: 8, Window: window, BatchSize: 2,
					TCP: true,
				})
				if err != nil {
					b.Fatal(err)
				}
				for c := 0; c < 16; c++ {
					if err := log.Submit(c%4, shiftgears.Value(1+c)); err != nil {
						b.Fatal(err)
					}
				}
				res, err := log.Run()
				if err != nil {
					b.Fatal(err)
				}
				if !res.Agreement {
					b.Fatal("agreement lost")
				}
			}
		})
	}
}

// BenchmarkGearedThroughput pits the static Hybrid log against the two
// built-in gear policies on an identical Byzantine workload (n=13, t=3,
// three silent sources, saturated queues). The static log pays Hybrid's 7
// rounds for every slot; Downshift drops to Algorithm B's 4 rounds once a
// burned slot convicts a source, and Blacklist gives convicted sources
// one-round no-op slots — so both geared logs commit the same commands in
// fewer synchronous ticks, which the "ticks" metric (and the asserted
// comparison) makes visible.
func BenchmarkGearedThroughput(b *testing.B) {
	const (
		n, t, blk     = 13, 3, 3
		slots         = 39
		window, batch = 4, 2
		commands      = 52
	)
	run := func(b *testing.B, policy shiftgears.GearPolicy) *shiftgears.LogResult {
		cfg := shiftgears.LogConfig{
			N: n, T: t, B: blk,
			Slots: slots, Window: window, BatchSize: batch,
			Faulty: []int{2, 5, 8}, Strategy: "silent", Seed: 7,
		}
		if policy == nil {
			cfg.Algorithm = shiftgears.Hybrid
		} else {
			cfg.GearPolicy = policy
		}
		log, err := shiftgears.NewReplicatedLog(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for c := 0; c < commands; c++ {
			if err := log.Submit(c%n, shiftgears.Value(1+c%255)); err != nil {
				b.Fatal(err)
			}
		}
		res, err := log.Run()
		if err != nil {
			b.Fatal(err)
		}
		if !res.Agreement {
			b.Fatal("agreement lost")
		}
		return res
	}
	staticTicks := 0
	for _, mode := range []struct {
		name   string
		policy shiftgears.GearPolicy
	}{
		{"static-hybrid", nil},
		{"downshift", shiftgears.Downshift{}},
		{"blacklist", shiftgears.Blacklist{}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			var last *shiftgears.LogResult
			for i := 0; i < b.N; i++ {
				last = run(b, mode.policy)
			}
			if mode.policy == nil {
				staticTicks = last.Ticks
			} else if staticTicks > 0 && last.Ticks >= staticTicks {
				b.Fatalf("%s saved nothing: %d ticks vs static %d", mode.name, last.Ticks, staticTicks)
			}
			b.ReportMetric(float64(last.Ticks), "ticks")
			b.ReportMetric(float64(last.Committed)/float64(last.Ticks), "cmds/tick")
		})
	}
}

// BenchmarkEngineParallelVsSequential contrasts the sequential and
// parallel drive modes on the same workload (the parallel mode pays
// synchronization for per-processor parallelism).
func BenchmarkEngineParallelVsSequential(b *testing.B) {
	for _, mode := range []struct {
		name     string
		parallel bool
	}{{"sequential", false}, {"parallel", true}} {
		b.Run(mode.name, func(b *testing.B) {
			runBench(b, shiftgears.Config{
				Algorithm: shiftgears.AlgorithmA, N: 16, T: 5, B: 4, SourceValue: 1,
				Faulty: []int{1, 3, 5, 7, 9}, Strategy: "noise", Parallel: mode.parallel,
			})
		})
	}
}
