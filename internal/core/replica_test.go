package core

import (
	"testing"

	"shiftgears/internal/adversary"
	"shiftgears/internal/eigtree"
	"shiftgears/internal/fabric"
	"shiftgears/internal/sim"
	"shiftgears/internal/trace"
)

type runResult struct {
	replicas []*Replica
	logs     []*trace.Log
	stats    *sim.Stats
	faulty   map[int]bool
}

// correct returns the correct non-source replicas (the interesting ones:
// the source halts at round 1).
func (rr runResult) correct(plan *Plan) []*Replica {
	var out []*Replica
	for id, rep := range rr.replicas {
		if !rr.faulty[id] && id != plan.Source {
			out = append(out, rep)
		}
	}
	return out
}

// globalDetections intersects the correct replicas' fault lists.
func (rr runResult) globalDetections(plan *Plan) map[int]bool {
	out := map[int]bool{}
	correct := rr.correct(plan)
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
	return out
}

func runPlan(t *testing.T, plan *Plan, val eigtree.Value, faultyIDs []int, strat string, seed int64, hook func(int)) runResult {
	t.Helper()
	env, err := NewEnv(plan)
	if err != nil {
		t.Fatal(err)
	}
	faulty := map[int]bool{}
	for _, f := range faultyIDs {
		faulty[f] = true
	}
	var st adversary.Strategy
	if len(faultyIDs) > 0 {
		st, err = adversary.New(strat, plan.TotalRounds)
		if err != nil {
			t.Fatal(err)
		}
	}
	rr := runResult{faulty: faulty}
	procs := make([]sim.Processor, plan.N)
	for id := 0; id < plan.N; id++ {
		log := trace.NewLog(id)
		rep, err := NewReplica(env, id, val, log)
		if err != nil {
			t.Fatal(err)
		}
		rr.replicas = append(rr.replicas, rep)
		rr.logs = append(rr.logs, log)
		if faulty[id] {
			procs[id] = adversary.NewProcessor(rep, st, seed, plan.N)
		} else {
			procs[id] = rep
		}
	}
	var opts []fabric.Option
	if hook != nil {
		opts = append(opts, fabric.WithTickHook(func(round int) error {
			hook(round)
			return nil
		}))
	}
	fab, err := fabric.NewSim(len(procs))
	if err != nil {
		t.Fatal(err)
	}
	rr.stats, err = fabric.RunRounds(fab, procs, plan.TotalRounds, opts...)
	if err != nil {
		t.Fatal(err)
	}
	for id, rep := range rr.replicas {
		if !faulty[id] {
			if err := rep.Err(); err != nil {
				t.Fatalf("replica %d internal error: %v", id, err)
			}
		}
	}
	return rr
}

func checkAgreementValidity(t *testing.T, plan *Plan, rr runResult, sourceVal eigtree.Value) eigtree.Value {
	t.Helper()
	var common eigtree.Value
	first := true
	for id, rep := range rr.replicas {
		if rr.faulty[id] || id == plan.Source {
			continue
		}
		v, ok := rep.Decided()
		if !ok {
			t.Fatalf("correct replica %d did not decide", id)
		}
		if first {
			common, first = v, false
		} else if v != common {
			t.Fatalf("disagreement: replica %d decided %d, others %d", id, v, common)
		}
	}
	if !rr.faulty[plan.Source] && common != sourceVal {
		t.Fatalf("validity violated: source correct with %d, decision %d", sourceVal, common)
	}
	return common
}

func allPlans(t *testing.T) []*Plan {
	return []*Plan{
		mustPlan(t, Exponential, 7, 2, 0),
		mustPlan(t, AlgorithmB, 13, 3, 2),
		mustPlan(t, AlgorithmA, 13, 4, 3),
		mustPlan(t, AlgorithmC, 18, 3, 0),
		mustPlan(t, Hybrid, 13, 4, 3),
	}
}

func TestFaultFreeRunsDecideSourceValue(t *testing.T) {
	for _, plan := range allPlans(t) {
		rr := runPlan(t, plan, 7, nil, "", 0, nil)
		if got := checkAgreementValidity(t, plan, rr, 7); got != 7 {
			t.Errorf("%v: decided %d, want 7", plan.Algorithm, got)
		}
		if rr.stats.Rounds != plan.TotalRounds {
			t.Errorf("%v: ran %d rounds, plan says %d", plan.Algorithm, rr.stats.Rounds, plan.TotalRounds)
		}
		// The source itself decides its own value at round 1.
		if v, ok := rr.replicas[plan.Source].Decided(); !ok || v != 7 {
			t.Errorf("%v: source decision = %d, %v", plan.Algorithm, v, ok)
		}
	}
}

func TestMessageSizesWithinPaperBound(t *testing.T) {
	for _, plan := range allPlans(t) {
		rr := runPlan(t, plan, 1, []int{1, 2}, "garbage", 3, nil)
		bound := plan.MessageBoundNodes()
		// Correct processors never exceed the bound. (Garbage adversaries
		// may send up to ~2× the honest length; measure per-round honest
		// maximum instead via a fault-free run.)
		_ = rr
		clean := runPlan(t, plan, 1, nil, "", 0, nil)
		if clean.stats.MaxPayload > bound {
			t.Errorf("%v: max payload %d exceeds paper bound %d", plan.Algorithm, clean.stats.MaxPayload, bound)
		}
	}
}

func TestNoFalseAccusations(t *testing.T) {
	// "no correct processor p ever puts the name of a correct processor
	// into L_p" (Section 3) — across every strategy and algorithm.
	for _, plan := range allPlans(t) {
		for _, strat := range adversary.Names() {
			faulty := make([]int, 0, plan.T)
			for i := 0; len(faulty) < plan.T; i++ {
				faulty = append(faulty, 2*i) // 0, 2, 4, ... (includes the source)
			}
			rr := runPlan(t, plan, 1, faulty, strat, 11, nil)
			for _, rep := range rr.correct(plan) {
				for _, accused := range rep.Faults().Members() {
					if !rr.faulty[accused] {
						t.Fatalf("%v/%s: correct replica %d accused correct processor %d (L=%v)",
							plan.Algorithm, strat, rep.ID(), accused, rep.Faults().Members())
					}
				}
			}
			checkAgreementValidity(t, plan, rr, 1)
		}
	}
}

func TestPersistenceOfUnanimousPreference(t *testing.T) {
	// Persistence Lemma (Lemma 3 / Lemma 6): a consistently lying faulty
	// source (the "flip" strategy sends the same flipped value to every
	// processor) makes all correct processors prefer v⊕1 after round 1;
	// that unanimity must persist to the decision, whatever the later
	// rounds bring.
	for _, plan := range allPlans(t) {
		faulty := []int{plan.Source}
		rr := runPlan(t, plan, 6, faulty, "flip", 0, nil)
		want := eigtree.Value(6 ^ 1)
		got := checkAgreementValidity(t, plan, rr, 6)
		if got != want {
			t.Errorf("%v: decision %d, want persistent value %d", plan.Algorithm, got, want)
		}
	}
}

func TestLateFaultsCannotDestroyPersistence(t *testing.T) {
	// Sleeper faults behave correctly until two-thirds through the run; by
	// then a correct source's value is persistent and the decision must be
	// the source's value (Persistence + Strong Persistence Lemmas).
	for _, plan := range allPlans(t) {
		faulty := make([]int, 0, plan.T)
		for i := 1; len(faulty) < plan.T; i++ {
			faulty = append(faulty, i)
		}
		rr := runPlan(t, plan, 3, faulty, "sleeper", 5, nil)
		if got := checkAgreementValidity(t, plan, rr, 3); got != 3 {
			t.Errorf("%v: decision %d, want 3", plan.Algorithm, got)
		}
	}
}

func TestSplitBrainSourceGloballyDetectedInRound2(t *testing.T) {
	// Algorithm C's proof (Proposition 4) hinges on the source being
	// discovered in round 2 when it equivocates; a half/half split source
	// leaves no majority at the root.
	plan := mustPlan(t, AlgorithmC, 18, 3, 0)
	rr := runPlan(t, plan, 1, []int{plan.Source}, "splitbrain", 0, nil)
	for _, rep := range rr.correct(plan) {
		round, ok := rep.Faults().DiscoveryRound(plan.Source)
		if !ok || round != 2 {
			t.Fatalf("replica %d: source discovery round = %d, %v; want round 2", rep.ID(), round, ok)
		}
	}
	checkAgreementValidity(t, plan, rr, 1)
}

func TestBlockProgressAccounting(t *testing.T) {
	// Propositions 2 and 3: every block that ends without a persistent
	// value globally detects at least b−1 (Algorithm B) or b−2 (Algorithm
	// A) new faults besides the source. Verified via round-boundary
	// snapshots under a split-brain adversary with a faulty source.
	cases := []struct {
		plan     *Plan
		minNew   int
		strategy string
	}{
		{mustPlan(t, AlgorithmB, 17, 4, 3), 2, "splitbrain"},
		{mustPlan(t, AlgorithmB, 21, 5, 3), 2, "collude"},
		{mustPlan(t, AlgorithmA, 13, 4, 3), 1, "splitbrain"},
		{mustPlan(t, AlgorithmA, 16, 5, 4), 2, "collude"},
	}
	for _, tc := range cases {
		plan := tc.plan
		faulty := []int{plan.Source}
		for i := 1; len(faulty) < plan.T; i++ {
			faulty = append(faulty, 2*i)
		}

		// Segment boundaries (rounds after which a shift happened).
		boundaries := map[int]bool{}
		r := 1
		for _, seg := range plan.Segments {
			r += seg.Rounds
			boundaries[r] = true
		}

		var rr runResult
		type snapshot struct {
			unanimous bool
			global    int // globally detected non-source faults
		}
		var snaps []snapshot
		hook := func(round int) error {
			if !boundaries[round] {
				return nil
			}
			correct := rr.correct(plan)
			prefs := map[eigtree.Value]bool{}
			for _, rep := range correct {
				prefs[rep.Preferred()] = true
			}
			global := rr.globalDetections(plan)
			delete(global, plan.Source)
			snaps = append(snaps, snapshot{unanimous: len(prefs) == 1, global: len(global)})
			return nil
		}

		env, err := NewEnv(plan)
		if err != nil {
			t.Fatal(err)
		}
		st, err := adversary.New(tc.strategy, plan.TotalRounds)
		if err != nil {
			t.Fatal(err)
		}
		rr.faulty = map[int]bool{}
		for _, f := range faulty {
			rr.faulty[f] = true
		}
		procs := make([]sim.Processor, plan.N)
		for id := 0; id < plan.N; id++ {
			rep, err := NewReplica(env, id, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			rr.replicas = append(rr.replicas, rep)
			if rr.faulty[id] {
				procs[id] = adversary.NewProcessor(rep, st, 7, plan.N)
			} else {
				procs[id] = rep
			}
		}
		fab, err := fabric.NewSim(len(procs))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fabric.RunRounds(fab, procs, plan.TotalRounds, fabric.WithTickHook(hook)); err != nil {
			t.Fatal(err)
		}

		prevGlobal := 0
		for i, s := range snaps {
			isFullBlock := plan.Segments[i].Rounds == plan.B
			if !s.unanimous && isFullBlock {
				if s.global-prevGlobal < tc.minNew {
					t.Errorf("%v(b=%d) %s: block %d ended without persistence but detected only %d new faults (want ≥ %d)",
						plan.Algorithm, plan.B, tc.strategy, i, s.global-prevGlobal, tc.minNew)
				}
			}
			prevGlobal = s.global
		}
		checkAgreementValidity(t, plan, rr, 1)
	}
}

func TestHybridPhaseTransitions(t *testing.T) {
	// The hybrid enters its Algorithm C phase exactly at round KAB+KBC, on
	// every correct replica (Fig. 3's schedule).
	plan := mustPlan(t, Hybrid, 16, 5, 3)
	rr := runPlan(t, plan, 1, []int{0, 2, 4, 6, 8}, "splitbrain", 1, nil)
	want := plan.Hybrid.KAB + plan.Hybrid.KBC
	for id, log := range rr.logs {
		if rr.faulty[id] || id == plan.Source {
			continue
		}
		found := false
		for _, ev := range log.Events() {
			if ev.Kind == trace.KindPhase {
				if ev.Round != want {
					t.Fatalf("replica %d entered echo phase at round %d, want %d", id, ev.Round, want)
				}
				found = true
			}
		}
		if !found {
			t.Fatalf("replica %d never entered the echo phase", id)
		}
	}
	checkAgreementValidity(t, plan, rr, 1)
}

func TestHybridSegGatherEnumIsSharedAcrossPhases(t *testing.T) {
	// The A and B phases of the hybrid use the same (no-repetition) tree
	// shape; only the C phase switches enumerations. One Env must serve
	// both.
	plan := mustPlan(t, Hybrid, 13, 4, 3)
	env, err := NewEnv(plan)
	if err != nil {
		t.Fatal(err)
	}
	if env.gather == nil || env.echo == nil {
		t.Fatal("hybrid env must carry both enumerations")
	}
	if env.gather.MaxLevel() != plan.MaxGatherLevel {
		t.Fatalf("gather enum depth %d, want %d", env.gather.MaxLevel(), plan.MaxGatherLevel)
	}
	if env.echo.MaxLevel() != 2 {
		t.Fatalf("echo enum depth %d, want 2", env.echo.MaxLevel())
	}
}

func TestReplicaValidation(t *testing.T) {
	plan := mustPlan(t, Exponential, 7, 2, 0)
	env, err := NewEnv(plan)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewReplica(env, -1, 0, nil); err == nil {
		t.Error("negative id accepted")
	}
	if _, err := NewReplica(env, 7, 0, nil); err == nil {
		t.Error("out-of-range id accepted")
	}
}

func TestSourceSendsOnlyRoundOne(t *testing.T) {
	plan := mustPlan(t, AlgorithmB, 13, 3, 2)
	env, _ := NewEnv(plan)
	src, err := NewReplica(env, plan.Source, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := src.PrepareRound(1)
	if out == nil || len(out) != 13 || len(out[3]) != 1 || out[3][0] != 5 {
		t.Fatalf("round 1 outbox = %v", out)
	}
	if v, ok := src.Decided(); !ok || v != 5 {
		t.Fatal("source must decide its own value at round 1")
	}
	for r := 2; r <= plan.TotalRounds; r++ {
		if src.PrepareRound(r) != nil {
			t.Fatalf("source sent in round %d", r)
		}
	}
}

func TestNonSourceSilentInRoundOne(t *testing.T) {
	plan := mustPlan(t, Exponential, 7, 2, 0)
	env, _ := NewEnv(plan)
	rep, err := NewReplica(env, 3, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.PrepareRound(1) != nil {
		t.Fatal("non-source replica sent in round 1")
	}
	if rep.Preferred() != eigtree.Default {
		t.Fatal("preferred value before round 1 should be the default")
	}
}

func TestDeterministicRuns(t *testing.T) {
	plan := mustPlan(t, Hybrid, 13, 4, 3)
	run := func() []eigtree.Value {
		rr := runPlan(t, plan, 1, []int{0, 3, 6, 9}, "noise", 42, nil)
		var out []eigtree.Value
		for _, rep := range rr.replicas {
			v, _ := rep.Decided()
			out = append(out, v)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic decision at replica %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestCountersPopulated(t *testing.T) {
	plan := mustPlan(t, AlgorithmA, 13, 4, 3)
	rr := runPlan(t, plan, 1, []int{1, 2, 5, 7}, "splitbrain", 0, nil)
	for _, rep := range rr.correct(plan) {
		c := rep.Counters()
		if c.ResolveOps == 0 || c.DiscoveryNodes == 0 || c.PeakTreeNodes == 0 || c.Shifts == 0 {
			t.Fatalf("replica %d counters not populated: %+v", rep.ID(), c)
		}
		// Peak tree: levels 0..b of the no-repetition tree.
		want := 1 + 12 + 12*11 + 12*11*10
		if c.PeakTreeNodes != want {
			t.Fatalf("peak tree nodes = %d, want %d", c.PeakTreeNodes, want)
		}
	}
}

func TestEchoTreeStaysSmall(t *testing.T) {
	// Algorithm C's tree never exceeds three levels: 1 + n + n².
	plan := mustPlan(t, AlgorithmC, 18, 3, 0)
	rr := runPlan(t, plan, 1, []int{1, 2, 3}, "noise", 0, nil)
	for _, rep := range rr.correct(plan) {
		if c := rep.Counters(); c.PeakTreeNodes > 1+18+18*18 {
			t.Fatalf("echo tree grew to %d nodes", c.PeakTreeNodes)
		}
	}
}

func TestDecisionEventLogged(t *testing.T) {
	plan := mustPlan(t, Exponential, 7, 2, 0)
	rr := runPlan(t, plan, 9, nil, "", 0, nil)
	for id, log := range rr.logs {
		if id == plan.Source {
			continue
		}
		events := log.Events()
		last := events[len(events)-1]
		if last.Kind != trace.KindDecision || last.Round != plan.TotalRounds || last.Target != 9 {
			t.Fatalf("replica %d last event = %+v", id, last)
		}
	}
}

func TestOverResilienceFailsGracefully(t *testing.T) {
	// With t+1 two-faced faults the guarantees are forfeit, but replicas
	// must still terminate with *some* decision and no internal error.
	plan := mustPlan(t, Exponential, 7, 2, 0)
	rr := runPlan(t, plan, 1, []int{0, 2, 4}, "splitbrain", 0, nil)
	for id, rep := range rr.replicas {
		if rr.faulty[id] || id == plan.Source {
			continue
		}
		if _, ok := rep.Decided(); !ok {
			t.Fatalf("replica %d did not decide under excess faults", id)
		}
	}
}
