package experiments

import (
	"fmt"

	"shiftgears/internal/adversary"
	"shiftgears/internal/core"
	"shiftgears/internal/eigtree"
	"shiftgears/internal/fabric"
	"shiftgears/internal/sim"
)

// runCore executes a plan directly on the core layer (the experiments that
// need round-boundary snapshots or ablation options bypass the public API).
func runCore(plan *core.Plan, opts core.Options, faulty []int, strat string, seed int64,
	hook func(round int, reps []*core.Replica)) ([]*core.Replica, error) {

	env, err := core.NewEnv(plan)
	if err != nil {
		return nil, err
	}
	env.Opts = opts
	isFaulty := map[int]bool{}
	for _, f := range faulty {
		isFaulty[f] = true
	}
	reps := make([]*core.Replica, plan.N)
	procs := make([]sim.Processor, plan.N)
	for id := 0; id < plan.N; id++ {
		rep, err := core.NewReplica(env, id, 1, nil)
		if err != nil {
			return nil, err
		}
		reps[id] = rep
		if isFaulty[id] {
			// One strategy instance per faulty processor: stateful
			// strategies (stutter) carry per-processor state, and sharing
			// one instance would mix the processors' payload histories.
			st, err := adversary.New(strat, plan.TotalRounds)
			if err != nil {
				return nil, err
			}
			procs[id] = adversary.NewProcessor(rep, st, seed, plan.N)
		} else {
			procs[id] = rep
		}
	}
	f, err := fabric.NewSim(plan.N)
	if err != nil {
		return nil, err
	}
	var runOpts []fabric.Option
	if hook != nil {
		runOpts = append(runOpts, fabric.WithTickHook(func(r int) error {
			hook(r, reps)
			return nil
		}))
	}
	if _, err := fabric.RunRounds(f, procs, plan.TotalRounds, runOpts...); err != nil {
		return nil, err
	}
	return reps, nil
}

// correctOf filters the correct non-source replicas.
func correctOf(plan *core.Plan, reps []*core.Replica, faulty []int) []*core.Replica {
	isFaulty := map[int]bool{}
	for _, f := range faulty {
		isFaulty[f] = true
	}
	var out []*core.Replica
	for id, rep := range reps {
		if !isFaulty[id] && id != plan.Source {
			out = append(out, rep)
		}
	}
	return out
}

// globalOf intersects the correct replicas' fault lists, minus the source.
func globalOf(plan *core.Plan, correct []*core.Replica) map[int]bool {
	out := map[int]bool{}
	if len(correct) == 0 {
		return out
	}
	for _, p := range correct[0].Faults().Members() {
		out[p] = true
	}
	for _, rep := range correct[1:] {
		for p := range out {
			if !rep.Faults().Contains(p) {
				delete(out, p)
			}
		}
	}
	delete(out, plan.Source)
	return out
}

// agreementOf checks whether all correct replicas decided one value.
func agreementOf(correct []*core.Replica) (eigtree.Value, bool) {
	var common eigtree.Value
	for i, rep := range correct {
		v, ok := rep.Decided()
		if !ok {
			return 0, false
		}
		if i == 0 {
			common = v
		} else if v != common {
			return 0, false
		}
	}
	return common, true
}

// RunCoreScenario executes one core-level run with ablation options and
// reports whether the correct replicas reached agreement. It is the entry
// point the benchmark harness uses for the E10 ablation.
func RunCoreScenario(plan *core.Plan, opts core.Options, faulty []int, strat string, seed int64) (bool, error) {
	reps, err := runCore(plan, opts, faulty, strat, seed, nil)
	if err != nil {
		return false, err
	}
	_, ok := agreementOf(correctOf(plan, reps, faulty))
	return ok, nil
}

// E8FaultDetection traces the per-block accounting behind Propositions 2
// and 3: a block that ends without a persistent value globally detects at
// least b−1 (Algorithm B) / b−2 (Algorithm A) new faults besides the source.
func E8FaultDetection() (*Table, error) {
	tab := &Table{
		ID:    "E8",
		Title: "Per-block fault detection (Propositions 2 and 3)",
		PaperClaim: "\"Each block of b rounds that produces trees without a common frontier results in the " +
			"global detection of at least b−1 [B] / b−2 [A] new faults besides the source.\" Detection + " +
			"masking launder equivocation into common subtree values; removing masking lets splits survive.",
		Headers: []string{"algorithm", "t", "b", "variant", "block (end round)", "unanimous pref?", "new global detections", "required", "check"},
	}
	type scenario struct {
		alg     core.Algorithm
		n, t, b int
		minNew  int
		strat   string
		opts    core.Options
		variant string
	}
	for _, sc := range []scenario{
		{core.AlgorithmB, 21, 5, 3, 2, "splitbrain", core.Options{}, "full rules"},
		{core.AlgorithmA, 16, 5, 4, 2, "splitbrain", core.Options{}, "full rules"},
		{core.AlgorithmA, 16, 5, 4, 2, "splitbrain", core.Options{DisableMasking: true}, "no masking"},
		{core.AlgorithmA, 13, 4, 3, 1, "splitbrain", core.Options{DisableMasking: true}, "no masking"},
	} {
		plan, err := core.NewPlan(sc.alg, sc.n, sc.t, sc.b, 0)
		if err != nil {
			return nil, err
		}
		faulty := faultsIncludingSource(sc.n, sc.t)

		boundaries := map[int]int{} // round → block index
		r, blk := 1, 0
		for _, seg := range plan.Segments {
			r += seg.Rounds
			boundaries[r] = blk
			blk++
		}

		type snap struct {
			round     int
			unanimous bool
			global    int
			fullBlock bool
		}
		var snaps []snap
		hook := func(round int, reps []*core.Replica) {
			bi, ok := boundaries[round]
			if !ok {
				return
			}
			correct := correctOf(plan, reps, faulty)
			prefs := map[eigtree.Value]bool{}
			for _, rep := range correct {
				prefs[rep.Preferred()] = true
			}
			snaps = append(snaps, snap{
				round:     round,
				unanimous: len(prefs) == 1,
				global:    len(globalOf(plan, correct)),
				fullBlock: plan.Segments[bi].Rounds == sc.b,
			})
		}
		reps, err := runCore(plan, sc.opts, faulty, sc.strat, 3, hook)
		if err != nil {
			return nil, err
		}
		fullRules := sc.variant == "full rules"
		if _, ok := agreementOf(correctOf(plan, reps, faulty)); !ok && fullRules {
			return nil, fmt.Errorf("E8: agreement lost in %v scenario", sc.alg)
		}

		prev := 0
		for _, s := range snaps {
			required := "-"
			check := "ok"
			switch {
			case !fullRules:
				required, check = "n/a", "-"
			case !s.unanimous && s.fullBlock:
				required = fmt.Sprintf("≥ %d", sc.minNew)
				check = okFail(s.global-prev >= sc.minNew)
			}
			tab.Rows = append(tab.Rows, []string{
				sc.alg.String(), itoa(sc.t), itoa(sc.b), sc.variant,
				itoa(s.round), fmt.Sprintf("%v", s.unanimous),
				itoa(s.global - prev), required, check,
			})
			prev = s.global
		}
	}
	tab.Notes = append(tab.Notes,
		"Under the full rules every split-brain equivocation is discovered inside its block, masked, and "+
			"laundered into a common subtree value, so a persistent value exists by the first boundary and the "+
			"quota never has to fire — the guarantee working as designed, not a vacuous check.",
		"With masking disabled (Algorithm A at n = 3t+1) the same adversary keeps correct preferences split "+
			"across block boundaries (unanimous=false rows) and agreement eventually fails (see E10): the "+
			"mechanisms, not redundancy, carry the block-progress guarantee at optimal resilience.")
	return tab, nil
}

// E10Ablation disables fault discovery or masking and measures how often
// Algorithm B then fails agreement under equivocating faults — showing both
// mechanisms are load-bearing for the block-progress guarantee.
func E10Ablation() (*Table, error) {
	tab := &Table{
		ID:    "E10",
		Title: "Ablation: fault discovery and fault masking",
		PaperClaim: "The proofs hang on discovery+masking: \"once a processor is globally detected, ... its " +
			"ability to prevent emergence of a persistent value is destroyed\" (Section 4.4). Removing either " +
			"mechanism forfeits the fixed-round guarantee.",
		Headers: []string{"algorithm", "t", "b", "variant", "runs", "agreement failures", "validity failures"},
	}
	type variant struct {
		name string
		opts core.Options
	}
	variants := []variant{
		{"paper (full rules)", core.Options{}},
		{"no discovery", core.Options{DisableDiscovery: true}},
		{"no masking", core.Options{DisableMasking: true}},
	}
	type scenario struct {
		alg     core.Algorithm
		n, t, b int
	}
	for _, sc := range []scenario{
		{core.AlgorithmB, 17, 4, 3},
		{core.AlgorithmA, 13, 4, 3},
	} {
		for _, v := range variants {
			runs, agreeFail, validFail := 0, 0, 0
			for _, strat := range []string{"splitbrain", "collude", "noise"} {
				for seed := int64(0); seed < 8; seed++ {
					plan, err := core.NewPlan(sc.alg, sc.n, sc.t, sc.b, 0)
					if err != nil {
						return nil, err
					}
					faulty := faultsIncludingSource(sc.n, sc.t)
					reps, err := runCore(plan, v.opts, faulty, strat, seed, nil)
					if err != nil {
						return nil, err
					}
					correct := correctOf(plan, reps, faulty)
					runs++
					val, ok := agreementOf(correct)
					if !ok {
						agreeFail++
					}
					_ = val
				}
			}
			// Validity scenario: correct source, sleeper faults.
			for seed := int64(0); seed < 8; seed++ {
				plan, err := core.NewPlan(sc.alg, sc.n, sc.t, sc.b, 0)
				if err != nil {
					return nil, err
				}
				faulty := faultsAvoidingSource(sc.n, sc.t)
				reps, err := runCore(plan, v.opts, faulty, "splitbrain", seed, nil)
				if err != nil {
					return nil, err
				}
				correct := correctOf(plan, reps, faulty)
				runs++
				val, ok := agreementOf(correct)
				if !ok {
					agreeFail++
				} else if val != 1 {
					validFail++
				}
			}
			tab.Rows = append(tab.Rows, []string{
				sc.alg.String(), itoa(sc.t), itoa(sc.b), v.name,
				itoa(runs), itoa(agreeFail), itoa(validFail),
			})
		}
	}
	tab.Notes = append(tab.Notes,
		"With the paper's full rules every run agrees. At optimal resilience (Algorithm A, n = 3t+1), "+
			"disabling discovery or masking lets equivocators keep correct preferences split block after "+
			"block and agreement fails within the fixed schedule.",
		"Algorithm B's extra redundancy (n = 4t+1) happens to absorb this strategy library even when "+
			"ablated — its majorities are too wide for generic equivocation — but the round bound's proof "+
			"still needs the mechanisms; the failures at n = 3t+1 show they are load-bearing exactly where "+
			"resilience is tight.")
	return tab, nil
}
