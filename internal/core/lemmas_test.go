package core

// Lemma-level tests: these exercise the paper's central lemmas directly on
// protocol executions, complementing the end-to-end agreement tests.

import (
	"testing"

	"shiftgears/internal/adversary"
	"shiftgears/internal/eigtree"
	"shiftgears/internal/fabric"
	"shiftgears/internal/sim"
)

// TestCorrectnessLemmaOnWire is Lemma 1 at the system level: in a real
// execution, for every correct processor q, the round-2 tree node s·q is
// common across correct processors with value equal to q's preferred value
// after round 1.
func TestCorrectnessLemmaOnWire(t *testing.T) {
	plan := mustPlan(t, Exponential, 10, 3, 0)
	faulty := []int{2, 5, 8}
	hook := func(round int, rr *runResult) {
		if round != 3 { // after two gathering rounds: levels 0..2 stored
			return
		}
		correct := rr.correct(plan)
		enum := correct[0].tree.Enum()
		for i := 0; i < enum.Size(1); i++ {
			q := enum.LastLabel(1, i)
			if q == 2 || q == 5 || q == 8 {
				continue
			}
			// Resolve the subtree rooted at s·q at every correct processor:
			// all must agree (q is correct).
			var want eigtree.CValue
			for j, rep := range correct {
				res, err := rep.tree.Resolve(eigtree.ResolveMajority, plan.T)
				if err != nil {
					t.Fatal(err)
				}
				if j == 0 {
					want = res.At(1, i)
				} else if res.At(1, i) != want {
					t.Fatalf("node s·%d not common: %v vs %v", q, res.At(1, i), want)
				}
			}
		}
	}
	rr := runLemma(t, plan, faulty, "splitbrain", hook)
	checkAgreementValidity(t, plan, rr, 1)
}

// TestFrontierLemmaDirect is Lemma 2 on a hand-built tree: if every
// root-to-leaf path contains a common node, the root is common. We build
// two processors' trees that differ wildly below a common frontier and
// check resolve agrees.
func TestFrontierLemmaDirect(t *testing.T) {
	enum, err := eigtree.NewEnum(7, 0, false, 2)
	if err != nil {
		t.Fatal(err)
	}
	build := func(noise eigtree.Value) *eigtree.Tree {
		tr := eigtree.NewTree(enum)
		tr.SetRoot(1)
		if _, err := tr.AddLevel(); err != nil {
			t.Fatal(err)
		}
		// Level 1 is the common frontier: same at both processors.
		lvl1 := tr.LevelValues(1)
		for i := range lvl1 {
			lvl1[i] = eigtree.Value(i % 2)
		}
		if _, err := tr.AddLevel(); err != nil {
			t.Fatal(err)
		}
		// Level 2 backs up the frontier values unanimously (so level-1
		// stays common under resolve) — a node's children echo its value —
		// except one subtree where the processors differ in a minority of
		// children (noise), which must not change any converted value.
		cc := enum.ChildCount(1)
		lvl2 := tr.LevelValues(2)
		for i := 0; i < enum.Size(1); i++ {
			for k := 0; k < cc; k++ {
				lvl2[i*cc+k] = lvl1[i]
			}
		}
		lvl2[0] = noise // one dissenting child in the first subtree
		return tr
	}
	trA := build(7)
	trB := build(9)
	resA, err := trA.Resolve(eigtree.ResolveMajority, 2)
	if err != nil {
		t.Fatal(err)
	}
	resB, err := trB.Resolve(eigtree.ResolveMajority, 2)
	if err != nil {
		t.Fatal(err)
	}
	if resA.Root() != resB.Root() {
		t.Fatalf("common frontier did not force a common root: %v vs %v", resA.Root(), resB.Root())
	}
}

// TestCorollary1OnWire checks Corollary 1 of the Hidden Fault Lemma in its
// contrapositive form on live Algorithm B executions: at a block's
// conversion, an internal node whose whole path is faulty either converts
// to a common value at every correct processor, or its processor is in
// EVERY correct processor's list ("if an internal node is not common then
// its corresponding processor is globally detected").
func TestCorollary1OnWire(t *testing.T) {
	plan := mustPlan(t, AlgorithmB, 17, 4, 3)
	faulty := []int{0, 4, 8, 12} // the source is faulty, so all-faulty paths exist
	isFaulty := map[int]bool{0: true, 4: true, 8: true, 12: true}

	boundaries := map[int]bool{}
	r := 1
	for _, seg := range plan.Segments {
		r += seg.Rounds
		boundaries[r] = true
	}

	// The shift at a boundary round collapses the tree before the hook can
	// see it, so the check runs one round earlier: the tree then holds all
	// of the block's levels but the last, and conversion applied there
	// corresponds to a (b−1)-round block, for which the corollary equally
	// holds (it is proved per-node from the Hidden Fault Lemma).
	hook := func(round int, rr *runResult) {
		if !boundaries[round+1] {
			return
		}
		correct := rr.correct(plan)
		if correct[0].tree.Levels() < 2 {
			return
		}
		enum := correct[0].tree.Enum()
		type conv struct {
			rep *Replica
			res *eigtree.Resolution
		}
		var convs []conv
		for _, rep := range correct {
			res, err := rep.tree.Resolve(eigtree.ResolveMajority, plan.T)
			if err != nil {
				t.Fatal(err)
			}
			convs = append(convs, conv{rep, res})
		}
		levels := correct[0].tree.Levels()
		for h := 1; h < levels-1; h++ { // internal nodes below the root
			for idx := 0; idx < enum.Size(h); idx++ {
				seq := enum.Level(h)[idx]
				allFaulty := true
				for _, label := range seq.Labels() {
					if !isFaulty[label] {
						allFaulty = false
						break
					}
				}
				if !allFaulty {
					continue
				}
				common := true
				for _, c := range convs[1:] {
					if c.res.At(h, idx) != convs[0].res.At(h, idx) {
						common = false
						break
					}
				}
				if common {
					continue
				}
				r := enum.LastLabel(h, idx)
				for _, c := range convs {
					if !c.rep.list.Contains(r) {
						t.Fatalf("round %d: node %v not common, yet p%d has not discovered %d (L=%v)",
							round, seq.Labels(), c.rep.ID(), r, c.rep.list.Members())
					}
				}
			}
		}
	}
	rr := runLemma(t, plan, faulty, "splitbrain", hook)
	checkAgreementValidity(t, plan, rr, 1)
}

// TestStrongPersistenceAcrossShift is the Strong Persistence Lemma: a value
// preferred by a majority of ALL processors (not n−t) survives a resolve
// shift. We check it at the hybrid's A→B boundary under adversarial load.
func TestStrongPersistenceAcrossShift(t *testing.T) {
	plan := mustPlan(t, Hybrid, 13, 4, 3)
	faulty := []int{1, 4, 7, 10} // source correct → all correct prefer 1 forever
	boundary := plan.Hybrid.KAB
	hook := func(round int, rr *runResult) {
		if round != boundary {
			return
		}
		for _, rep := range rr.correct(plan) {
			if rep.Preferred() != 1 {
				t.Fatalf("preferred value %d at the A→B shift, want the persistent 1", rep.Preferred())
			}
		}
	}
	rr := runLemma(t, plan, faulty, "sleeper", hook)
	if got := checkAgreementValidity(t, plan, rr, 1); got != 1 {
		t.Fatalf("decision %d", got)
	}
}

// runLemma is runPlan with a round hook that receives the live run state
// (replicas are registered before the network starts).
func runLemma(t *testing.T, plan *Plan, faulty []int, strat string, hook func(round int, rr *runResult)) runResult {
	t.Helper()
	env, err := NewEnv(plan)
	if err != nil {
		t.Fatal(err)
	}
	var st adversary.Strategy
	if len(faulty) > 0 {
		st, err = adversary.New(strat, plan.TotalRounds)
		if err != nil {
			t.Fatal(err)
		}
	}
	rr := runResult{faulty: map[int]bool{}}
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
	var opts []fabric.Option
	if hook != nil {
		opts = append(opts, fabric.WithTickHook(func(round int) error {
			hook(round, &rr)
			return nil
		}))
	}
	fab, err := fabric.NewSim(len(procs))
	if err != nil {
		t.Fatal(err)
	}
	if rr.stats, err = fabric.RunRounds(fab, procs, plan.TotalRounds, opts...); err != nil {
		t.Fatal(err)
	}
	return rr
}

// TestAblationOptionsChangeBehavior sanity-checks the E10 hooks: with
// discovery disabled no replica ever populates its list; with masking
// disabled the list still grows.
func TestAblationOptionsChangeBehavior(t *testing.T) {
	plan := mustPlan(t, AlgorithmB, 17, 4, 3)
	run := func(opts Options) []*Replica {
		env, err := NewEnv(plan)
		if err != nil {
			t.Fatal(err)
		}
		env.Opts = opts
		st, err := adversary.New("splitbrain", plan.TotalRounds)
		if err != nil {
			t.Fatal(err)
		}
		procs := make([]sim.Processor, plan.N)
		var reps []*Replica
		for id := 0; id < plan.N; id++ {
			rep, err := NewReplica(env, id, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			reps = append(reps, rep)
			if id == 0 || id == 4 || id == 8 || id == 12 {
				procs[id] = adversary.NewProcessor(rep, st, 3, plan.N)
			} else {
				procs[id] = rep
			}
		}
		fab, err := fabric.NewSim(len(procs))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fabric.RunRounds(fab, procs, plan.TotalRounds); err != nil {
			t.Fatal(err)
		}
		return reps
	}

	noDisc := run(Options{DisableDiscovery: true})
	for _, rep := range noDisc {
		if rep.Faults().Len() != 0 {
			t.Fatal("discovery disabled but list non-empty")
		}
	}
	noMask := run(Options{DisableMasking: true})
	grew := false
	for _, rep := range noMask {
		if rep.Faults().Len() > 0 {
			grew = true
		}
	}
	if !grew {
		t.Fatal("masking-only ablation should still discover faults")
	}
}
