package shiftgears

import (
	"fmt"
	"sort"

	"shiftgears/internal/adversary"
	"shiftgears/internal/baseline"
	"shiftgears/internal/core"
	"shiftgears/internal/eigtree"
	"shiftgears/internal/extensions"
	"shiftgears/internal/fabric"
	"shiftgears/internal/sim"
	"shiftgears/internal/trace"
)

// Value is an element of the agreement value set V; 0 is the default value.
type Value = eigtree.Value

// Algorithm selects the protocol a Run executes.
type Algorithm int

const (
	// Exponential is the paper's Section 3 algorithm (n ≥ 3t+1).
	Exponential Algorithm = iota + 1
	// AlgorithmA is the Theorem 2 family (n ≥ 3t+1, parameter B).
	AlgorithmA
	// AlgorithmB is the Theorem 3 family (n ≥ 4t+1, parameter B).
	AlgorithmB
	// AlgorithmC is the Theorem 4 algorithm (t ≤ ⌊√(n/2)⌋).
	AlgorithmC
	// Hybrid is the Main Theorem algorithm: A, then B, then C.
	Hybrid
	// PSL is the Pease–Shostak–Lamport oral-messages baseline OM(t).
	PSL
	// PhaseQueen is the Berman–Garay–Perry style extension (n ≥ 4t+1).
	PhaseQueen
	// Multivalued is the paper's Section 2 remark made concrete: a
	// Turpin–Coan-style two-round reduction from a large value domain to
	// one bit, decided by the phase protocol (n ≥ 4t+1). Messages after
	// the reduction are one byte regardless of |V|.
	Multivalued
	// NoOpSlot is the replicated log's degenerate gear: a one-round,
	// zero-message slot in which every replica decides the no-op without
	// agreement machinery. Gear policies assign it to slots whose source
	// the committed prefix has already convicted (Blacklist); it is not a
	// single-shot agreement algorithm and Run rejects it.
	NoOpSlot
)

// String names the algorithm.
func (a Algorithm) String() string {
	switch a {
	case Exponential:
		return "exponential"
	case AlgorithmA:
		return "A"
	case AlgorithmB:
		return "B"
	case AlgorithmC:
		return "C"
	case Hybrid:
		return "hybrid"
	case PSL:
		return "psl"
	case PhaseQueen:
		return "phasequeen"
	case Multivalued:
		return "multivalued"
	case NoOpSlot:
		return "noop"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// ParseAlgorithm resolves a CLI name to an Algorithm.
func ParseAlgorithm(s string) (Algorithm, error) {
	switch s {
	case "exponential", "exp":
		return Exponential, nil
	case "A", "a":
		return AlgorithmA, nil
	case "B", "b":
		return AlgorithmB, nil
	case "C", "c":
		return AlgorithmC, nil
	case "hybrid":
		return Hybrid, nil
	case "psl":
		return PSL, nil
	case "phasequeen", "queen":
		return PhaseQueen, nil
	case "multivalued", "reduce":
		return Multivalued, nil
	case "noop":
		return NoOpSlot, nil
	default:
		return 0, fmt.Errorf("shiftgears: unknown algorithm %q", s)
	}
}

// Config describes one agreement instance.
type Config struct {
	// Algorithm is the protocol to run.
	Algorithm Algorithm
	// N is the number of processors; T the resilience parameter.
	N, T int
	// B is the block parameter of Algorithms A, B, and Hybrid (rounds of
	// information gathering per block after round 1); ignored otherwise.
	B int
	// Source is the distinguished source processor (default 0).
	Source int
	// SourceValue is the source's initial value.
	SourceValue Value
	// Faulty lists the adversary-controlled processors. It may include the
	// source and may exceed T (for over-resilience experiments; the
	// paper's guarantees then no longer apply).
	Faulty []int
	// Strategy is the adversary strategy name (see adversary.Names);
	// defaults to "splitbrain" when Faulty is non-empty.
	Strategy string
	// Seed drives all adversary randomness deterministically.
	Seed int64
	// Parallel fans each round's processor calls across one goroutine per
	// processor (fabric.WithParallel); results are identical to the
	// sequential run.
	Parallel bool
	// CollectEvents includes the merged protocol event timeline in the
	// Result.
	CollectEvents bool
}

// ProcessorResult is one processor's outcome.
type ProcessorResult struct {
	ID       int
	Correct  bool
	Decided  bool
	Decision Value
	// Discovered lists the processors this replica put in its list L_p
	// (core algorithms only).
	Discovered []int
}

// Result reports a completed run.
type Result struct {
	Algorithm Algorithm
	N, T, B   int

	// Rounds actually executed; equals the plan schedule exactly.
	Rounds int
	// PaperRoundBound is the round count the corresponding theorem states.
	PaperRoundBound int

	Processors []ProcessorResult
	// Agreement: all correct processors decided on one common value.
	Agreement bool
	// Validity: the source is correct and all correct processors decided
	// its value, or the source is faulty (vacuously true).
	Validity bool
	// DecisionValue is the common decision when Agreement holds.
	DecisionValue Value

	// MaxMessageBytes is the largest single payload (the paper's message
	// length); TotalBytes and Messages aggregate traffic.
	MaxMessageBytes int
	TotalBytes      int
	Messages        int

	// ResolveOps, DiscoveryReads, PeakTreeNodes sum/maximize the local
	// computation and space counters over correct replicas.
	ResolveOps     int
	DiscoveryReads int
	PeakTreeNodes  int

	// GlobalDetections maps each faulty processor discovered by every
	// correct replica to the round its detection became global.
	GlobalDetections map[int]int

	// Events is the merged protocol timeline (with CollectEvents).
	Events []trace.Event
}

// protocol is what Run needs from every replica implementation.
type protocol interface {
	sim.Processor
	Decided() (Value, bool)
	Err() error
}

// Validate checks a configuration against the paper's constraints without
// running it.
func Validate(cfg Config) error {
	_, err := buildPlanInfo(cfg)
	return err
}

// planInfo captures the per-algorithm schedule facts Run needs.
type planInfo struct {
	rounds     int
	paperBound int
	plan       *core.Plan // nil for PSL / PhaseQueen
}

func buildPlanInfo(cfg Config) (planInfo, error) {
	if cfg.Source < 0 || cfg.Source >= cfg.N {
		return planInfo{}, fmt.Errorf("shiftgears: source %d out of range [0, %d)", cfg.Source, cfg.N)
	}
	for _, f := range cfg.Faulty {
		if f < 0 || f >= cfg.N {
			return planInfo{}, fmt.Errorf("shiftgears: faulty id %d out of range [0, %d)", f, cfg.N)
		}
	}
	switch cfg.Algorithm {
	case PSL:
		if cfg.N < 3*cfg.T+1 {
			return planInfo{}, fmt.Errorf("shiftgears: PSL requires n ≥ 3t+1 (n=%d, t=%d)", cfg.N, cfg.T)
		}
		if cfg.T < 1 {
			return planInfo{}, fmt.Errorf("shiftgears: t must be ≥ 1")
		}
		return planInfo{rounds: cfg.T + 1, paperBound: cfg.T + 1}, nil
	case PhaseQueen:
		if cfg.N < 4*cfg.T+1 {
			return planInfo{}, fmt.Errorf("shiftgears: PhaseQueen requires n ≥ 4t+1 (n=%d, t=%d)", cfg.N, cfg.T)
		}
		if cfg.T < 1 {
			return planInfo{}, fmt.Errorf("shiftgears: t must be ≥ 1")
		}
		return planInfo{rounds: 1 + 2*(cfg.T+1), paperBound: 1 + 2*(cfg.T+1)}, nil
	case Multivalued:
		if cfg.N < 4*cfg.T+1 {
			return planInfo{}, fmt.Errorf("shiftgears: Multivalued requires n ≥ 4t+1 (n=%d, t=%d)", cfg.N, cfg.T)
		}
		if cfg.T < 1 {
			return planInfo{}, fmt.Errorf("shiftgears: t must be ≥ 1")
		}
		return planInfo{rounds: 3 + 2*(cfg.T+1), paperBound: 3 + 2*(cfg.T+1)}, nil
	case Exponential, AlgorithmA, AlgorithmB, AlgorithmC, Hybrid:
		plan, err := core.NewPlan(coreAlgorithm(cfg.Algorithm), cfg.N, cfg.T, cfg.B, cfg.Source)
		if err != nil {
			return planInfo{}, err
		}
		return planInfo{rounds: plan.TotalRounds, paperBound: plan.PaperRoundBound(), plan: plan}, nil
	case NoOpSlot:
		return planInfo{}, fmt.Errorf("shiftgears: noop is a replicated-log gear, not a single-shot algorithm")
	default:
		return planInfo{}, fmt.Errorf("shiftgears: unknown algorithm %v", cfg.Algorithm)
	}
}

func coreAlgorithm(a Algorithm) core.Algorithm {
	switch a {
	case Exponential:
		return core.Exponential
	case AlgorithmA:
		return core.AlgorithmA
	case AlgorithmB:
		return core.AlgorithmB
	case AlgorithmC:
		return core.AlgorithmC
	case Hybrid:
		return core.Hybrid
	default:
		return 0
	}
}

// Run executes one agreement instance and reports the outcome.
func Run(cfg Config) (*Result, error) {
	info, err := buildPlanInfo(cfg)
	if err != nil {
		return nil, err
	}

	faulty := make(map[int]bool, len(cfg.Faulty))
	for _, f := range cfg.Faulty {
		faulty[f] = true
	}

	stratName := cfg.Strategy
	if stratName == "" {
		stratName = "splitbrain"
	}

	// Build replicas; faulty ones are wrapped shadow copies.
	replicas := make([]protocol, cfg.N)
	logs := make([]*trace.Log, cfg.N)
	procs := make([]sim.Processor, cfg.N)
	var env *core.Env
	if info.plan != nil {
		env, err = core.NewEnv(info.plan)
		if err != nil {
			return nil, err
		}
	}
	var pslEnum *eigtree.Enum
	if cfg.Algorithm == PSL {
		pslEnum, err = baseline.NewPSLEnum(cfg.N, cfg.Source, cfg.T)
		if err != nil {
			return nil, err
		}
	}
	for id := 0; id < cfg.N; id++ {
		logs[id] = trace.NewLog(id)
		var rep protocol
		switch cfg.Algorithm {
		case PSL:
			rep, err = baseline.NewPSLReplica(pslEnum, id, cfg.T, cfg.SourceValue, logs[id])
		case PhaseQueen:
			rep, err = extensions.NewQueenReplica(cfg.N, cfg.T, cfg.Source, id, cfg.SourceValue, logs[id])
		case Multivalued:
			rep, err = extensions.NewReducerReplica(cfg.N, cfg.T, cfg.Source, id, cfg.SourceValue, logs[id])
		default:
			rep, err = core.NewReplica(env, id, cfg.SourceValue, logs[id])
		}
		if err != nil {
			return nil, err
		}
		replicas[id] = rep
		if faulty[id] {
			// One strategy instance per faulty processor: stateful
			// strategies (stutter) keep per-processor state and never race
			// under the Parallel engine's concurrent PrepareRound calls.
			strat, err := adversary.New(stratName, info.rounds)
			if err != nil {
				return nil, err
			}
			procs[id] = adversary.NewProcessor(rep, strat, cfg.Seed, cfg.N)
		} else {
			procs[id] = rep
		}
	}

	stats, err := runRounds(procs, info.rounds, cfg.Parallel)
	if err != nil {
		return nil, err
	}

	return assemble(cfg, info, replicas, logs, stats, faulty)
}

// runRounds drives a single-shot run in-process: one window-1 schedule per
// processor over fabric.RunRounds, fanned across goroutines when parallel.
func runRounds(procs []sim.Processor, rounds int, parallel bool) (*sim.Stats, error) {
	f, err := fabric.NewSim(len(procs))
	if err != nil {
		return nil, err
	}
	var opts []fabric.Option
	if parallel {
		opts = append(opts, fabric.WithParallel())
	}
	return fabric.RunRounds(f, procs, rounds, opts...)
}

func assemble(cfg Config, info planInfo, replicas []protocol, logs []*trace.Log, stats *sim.Stats, faulty map[int]bool) (*Result, error) {
	res := &Result{
		Algorithm:       cfg.Algorithm,
		N:               cfg.N,
		T:               cfg.T,
		B:               cfg.B,
		Rounds:          stats.Rounds,
		PaperRoundBound: info.paperBound,
		MaxMessageBytes: stats.MaxPayload,
		TotalBytes:      stats.Bytes,
		Messages:        stats.Messages,
	}

	var correctLogs []*trace.Log
	agreement := true
	var common Value
	haveCommon := false
	for id, rep := range replicas {
		if err := rep.Err(); err != nil && !faulty[id] {
			return nil, fmt.Errorf("shiftgears: internal protocol error: %w", err)
		}
		v, ok := rep.Decided()
		pr := ProcessorResult{ID: id, Correct: !faulty[id], Decided: ok, Decision: v}
		if cr, isCore := rep.(*core.Replica); isCore {
			pr.Discovered = cr.Faults().Members()
			res.ResolveOps += boolInt(pr.Correct) * cr.Counters().ResolveOps
			res.DiscoveryReads += boolInt(pr.Correct) * cr.Counters().DiscoveryReads
			if pr.Correct && cr.Counters().PeakTreeNodes > res.PeakTreeNodes {
				res.PeakTreeNodes = cr.Counters().PeakTreeNodes
			}
		}
		if psl, isPSL := rep.(*baseline.PSLReplica); isPSL && pr.Correct {
			res.ResolveOps += psl.ResolveOps()
		}
		res.Processors = append(res.Processors, pr)

		if pr.Correct {
			correctLogs = append(correctLogs, logs[id])
			if !ok {
				agreement = false
				continue
			}
			if !haveCommon {
				common, haveCommon = v, true
			} else if v != common {
				agreement = false
			}
		}
	}
	res.Agreement = agreement && haveCommon
	if res.Agreement {
		res.DecisionValue = common
	}
	res.Validity = true
	if !faulty[cfg.Source] {
		res.Validity = res.Agreement && common == cfg.SourceValue
	}

	// Global detections: faulty processors present in every correct L_p,
	// excluding the source's replica log (the source halts immediately and
	// keeps no list).
	nonSourceCorrect := make([]*trace.Log, 0, len(correctLogs))
	for id := range replicas {
		if !faulty[id] && id != cfg.Source {
			nonSourceCorrect = append(nonSourceCorrect, logs[id])
		}
	}
	res.GlobalDetections = trace.GlobalDetections(nonSourceCorrect)

	if cfg.CollectEvents {
		res.Events = trace.Merge(logs...)
	}
	sort.Slice(res.Processors, func(i, j int) bool { return res.Processors[i].ID < res.Processors[j].ID })
	return res, nil
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
