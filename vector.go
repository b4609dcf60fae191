package shiftgears

import (
	"fmt"

	"shiftgears/internal/adversary"
	"shiftgears/internal/consensus"
	"shiftgears/internal/sim"
)

// VectorConfig describes an interactive-consistency run: n simultaneous
// broadcast-agreement instances (one per source) multiplexed over the same
// rounds, after which all correct processors hold the same vector of
// initial values.
type VectorConfig struct {
	// Algorithm must be one of the paper's algorithms (Exponential,
	// AlgorithmA, AlgorithmB, AlgorithmC, Hybrid).
	Algorithm Algorithm
	// N, T, B as in Config; every instance shares them.
	N, T, B int
	// Inputs holds each processor's initial value (length N).
	Inputs []Value
	// Faulty, Strategy, Seed, Parallel as in Config.
	Faulty   []int
	Strategy string
	Seed     int64
	Parallel bool
}

// VectorResult reports an interactive-consistency run.
type VectorResult struct {
	// Vectors maps each correct processor to its decided vector.
	Vectors map[int][]Value
	// Agreement: all correct processors decided the same vector.
	Agreement bool
	// SlotValidity: in the agreed vector, every correct processor's slot
	// equals its input (interactive consistency's validity condition).
	SlotValidity bool
	// AgreedVector is the common vector when Agreement holds.
	AgreedVector []Value
	// Consensus is Reduce(AgreedVector): the most frequent value — a
	// multi-valued consensus decision with standard validity.
	Consensus Value

	Rounds          int
	MaxMessageBytes int
	TotalBytes      int
}

// RunVector executes an interactive-consistency instance.
func RunVector(cfg VectorConfig) (*VectorResult, error) {
	switch cfg.Algorithm {
	case Exponential, AlgorithmA, AlgorithmB, AlgorithmC, Hybrid:
	default:
		return nil, fmt.Errorf("shiftgears: RunVector supports the paper's algorithms, not %v", cfg.Algorithm)
	}
	if len(cfg.Inputs) != cfg.N {
		return nil, fmt.Errorf("shiftgears: %d inputs for %d processors", len(cfg.Inputs), cfg.N)
	}
	for _, f := range cfg.Faulty {
		if f < 0 || f >= cfg.N {
			return nil, fmt.Errorf("shiftgears: faulty id %d out of range [0, %d)", f, cfg.N)
		}
	}
	env, err := consensus.NewEnv(coreAlgorithm(cfg.Algorithm), cfg.N, cfg.T, cfg.B)
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
	replicas := make([]*consensus.VectorReplica, cfg.N)
	procs := make([]sim.Processor, cfg.N)
	for id := 0; id < cfg.N; id++ {
		rep, err := consensus.NewVectorReplica(env, id, cfg.Inputs[id], nil)
		if err != nil {
			return nil, err
		}
		replicas[id] = rep
		if faulty[id] {
			// One strategy instance per faulty processor: stateful
			// strategies (stutter) carry per-processor state, and sharing
			// one instance would mix the processors' payload histories —
			// and race under the parallel engine.
			strat, err := adversary.New(stratName, env.Rounds())
			if err != nil {
				return nil, err
			}
			procs[id] = consensus.NewFaultyVector(rep, strat, cfg.Seed)
		} else {
			procs[id] = rep
		}
	}

	stats, err := runRounds(procs, env.Rounds(), cfg.Parallel)
	if err != nil {
		return nil, err
	}

	res := &VectorResult{
		Vectors:         make(map[int][]Value),
		Agreement:       true,
		SlotValidity:    true,
		Rounds:          stats.Rounds,
		MaxMessageBytes: stats.MaxPayload,
		TotalBytes:      stats.Bytes,
	}
	var common consensus.Vector
	for id, rep := range replicas {
		if faulty[id] {
			continue
		}
		if err := rep.Err(); err != nil {
			return nil, fmt.Errorf("shiftgears: internal protocol error: %w", err)
		}
		vec, ok := rep.Decided()
		if !ok {
			res.Agreement = false
			continue
		}
		res.Vectors[id] = append([]Value(nil), vec...)
		if common == nil {
			common = vec
		} else if !equalVectors(common, vec) {
			res.Agreement = false
		}
	}
	if !res.Agreement || common == nil {
		res.Agreement = false
		res.SlotValidity = false
		return res, nil
	}
	res.AgreedVector = append([]Value(nil), common...)
	res.Consensus = common.Reduce()
	for id := range replicas {
		if !faulty[id] && common[id] != cfg.Inputs[id] {
			res.SlotValidity = false
		}
	}
	return res, nil
}

func equalVectors(a, b consensus.Vector) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
