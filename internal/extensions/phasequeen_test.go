package extensions

import (
	"testing"

	"shiftgears/internal/adversary"
	"shiftgears/internal/eigtree"
	"shiftgears/internal/fabric"
	"shiftgears/internal/sim"
)

func runQueen(t *testing.T, n, tt int, val eigtree.Value, faulty []int, strat string, seed int64) []*QueenReplica {
	t.Helper()
	isFaulty := map[int]bool{}
	for _, f := range faulty {
		isFaulty[f] = true
	}
	reps := make([]*QueenReplica, n)
	procs := make([]sim.Processor, n)
	rounds := 1 + 2*(tt+1)
	var st adversary.Strategy
	var err error
	if len(faulty) > 0 {
		st, err = adversary.New(strat, rounds)
		if err != nil {
			t.Fatal(err)
		}
	}
	for id := 0; id < n; id++ {
		rep, err := NewQueenReplica(n, tt, 0, id, val, nil)
		if err != nil {
			t.Fatal(err)
		}
		reps[id] = rep
		if isFaulty[id] {
			procs[id] = adversary.NewProcessor(rep, st, seed, n)
		} else {
			procs[id] = rep
		}
	}
	fab, err := fabric.NewSim(len(procs))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fabric.RunRounds(fab, procs, rounds); err != nil {
		t.Fatal(err)
	}
	return reps
}

func checkQueen(t *testing.T, reps []*QueenReplica, faulty []int, sourceVal eigtree.Value) {
	t.Helper()
	isFaulty := map[int]bool{}
	for _, f := range faulty {
		isFaulty[f] = true
	}
	var common eigtree.Value
	first := true
	for id, rep := range reps {
		if isFaulty[id] {
			continue
		}
		v, ok := rep.Decided()
		if !ok {
			t.Fatalf("correct replica %d undecided", id)
		}
		if first {
			common, first = v, false
		} else if v != common {
			t.Fatalf("disagreement: replica %d decided %d vs %d", id, v, common)
		}
	}
	if !isFaulty[0] && common != sourceVal {
		t.Fatalf("validity: decided %d, source sent %d", common, sourceVal)
	}
}

func TestQueenValidation(t *testing.T) {
	if _, err := NewQueenReplica(12, 3, 0, 0, 0, nil); err == nil {
		t.Error("n < 4t+1 accepted")
	}
	if _, err := NewQueenReplica(13, 0, 0, 0, 0, nil); err == nil {
		t.Error("t = 0 accepted")
	}
	if _, err := NewQueenReplica(13, 3, 13, 0, 0, nil); err == nil {
		t.Error("source out of range accepted")
	}
	rep, err := NewQueenReplica(13, 3, 0, 5, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rounds() != 1+2*4 {
		t.Fatalf("rounds = %d, want 9", rep.Rounds())
	}
	if rep.Err() != nil {
		t.Fatal("Err must be nil")
	}
}

func TestQueenQueensExcludeSource(t *testing.T) {
	rep, err := NewQueenReplica(13, 3, 2, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range rep.queens {
		if q == 2 {
			t.Fatal("the source must not be a queen (it may already be the equivocator)")
		}
	}
	if len(rep.queens) != 4 {
		t.Fatalf("%d queens, want t+1 = 4", len(rep.queens))
	}
}

func TestQueenFaultFree(t *testing.T) {
	reps := runQueen(t, 13, 3, 5, nil, "", 0)
	checkQueen(t, reps, nil, 5)
}

func TestQueenConstantMessageSize(t *testing.T) {
	n, tt := 13, 3
	reps := make([]*QueenReplica, n)
	procs := make([]sim.Processor, n)
	for id := 0; id < n; id++ {
		rep, err := NewQueenReplica(n, tt, 0, id, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		reps[id] = rep
		procs[id] = rep
	}
	fab, err := fabric.NewSim(len(procs))
	if err != nil {
		t.Fatal(err)
	}
	stats, err := fabric.RunRounds(fab, procs, reps[0].Rounds())
	if err != nil {
		t.Fatal(err)
	}
	if stats.MaxPayload != 1 {
		t.Fatalf("max payload = %d bytes, want 1 (constant-size messages)", stats.MaxPayload)
	}
}

func TestQueenAgreementUnderAllStrategies(t *testing.T) {
	for _, strat := range adversary.Names() {
		for _, faulty := range [][]int{{0, 3, 7}, {1, 2, 3}, {5}} {
			for seed := int64(0); seed < 3; seed++ {
				reps := runQueen(t, 13, 3, 1, faulty, strat, seed)
				checkQueen(t, reps, faulty, 1)
			}
		}
	}
}

func TestQueenFaultyQueensCannotBreakUnanimity(t *testing.T) {
	// All t faulty processors are queens of the early phases; with a
	// correct source, unanimity must survive their reigns (persistence:
	// n ≥ 4t+1 makes the keep-threshold unreachable by lies).
	reps := runQueen(t, 13, 3, 1, []int{1, 2, 3}, "splitbrain", 3)
	checkQueen(t, reps, []int{1, 2, 3}, 1)
}

func TestQueenSourceEquivocates(t *testing.T) {
	// A split-brain source divides initial preferences; the first correct
	// queen's phase must still force agreement.
	for seed := int64(0); seed < 5; seed++ {
		reps := runQueen(t, 13, 3, 1, []int{0, 1, 4}, "splitbrain", seed)
		checkQueen(t, reps, []int{0, 1, 4}, 1)
	}
}
