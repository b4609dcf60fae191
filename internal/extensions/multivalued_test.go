package extensions

import (
	"testing"

	"shiftgears/internal/adversary"
	"shiftgears/internal/eigtree"
	"shiftgears/internal/fabric"
	"shiftgears/internal/sim"
)

func runReducer(t *testing.T, n, tt int, val eigtree.Value, faulty []int, strat string, seed int64) []*ReducerReplica {
	t.Helper()
	isFaulty := map[int]bool{}
	for _, f := range faulty {
		isFaulty[f] = true
	}
	reps := make([]*ReducerReplica, n)
	procs := make([]sim.Processor, n)
	var st adversary.Strategy
	var err error
	rounds := 3 + 2*(tt+1)
	if len(faulty) > 0 {
		st, err = adversary.New(strat, rounds)
		if err != nil {
			t.Fatal(err)
		}
	}
	for id := 0; id < n; id++ {
		rep, err := NewReducerReplica(n, tt, 0, id, val, nil)
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

func checkReducer(t *testing.T, reps []*ReducerReplica, faulty []int, sourceVal eigtree.Value) eigtree.Value {
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
			t.Fatalf("disagreement: %d decided %d vs %d", id, v, common)
		}
	}
	if !isFaulty[0] && common != sourceVal {
		t.Fatalf("validity: decided %d, source sent %d", common, sourceVal)
	}
	return common
}

func TestReducerValidation(t *testing.T) {
	if _, err := NewReducerReplica(12, 3, 0, 0, 0, nil); err == nil {
		t.Error("n < 4t+1 accepted")
	}
	if _, err := NewReducerReplica(13, 0, 0, 0, 0, nil); err == nil {
		t.Error("t = 0 accepted")
	}
	rep, err := NewReducerReplica(13, 3, 0, 1, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rounds() != 3+2*4 {
		t.Fatalf("rounds = %d, want 11", rep.Rounds())
	}
}

func TestReducerLargeDomainValidity(t *testing.T) {
	// The whole point: the source value can be any byte, and after the two
	// reduction rounds every message is one byte.
	for _, v := range []eigtree.Value{0, 1, 77, 200, 255} {
		reps := runReducer(t, 13, 3, v, nil, "", 0)
		if got := checkReducer(t, reps, nil, v); got != v {
			t.Fatalf("decided %d, want %d", got, v)
		}
	}
}

func TestReducerAgreementUnderAllStrategies(t *testing.T) {
	for _, strat := range adversary.Names() {
		for _, faulty := range [][]int{{0, 3, 7}, {1, 2, 3}, {5}} {
			for seed := int64(0); seed < 3; seed++ {
				reps := runReducer(t, 13, 3, 142, faulty, strat, seed)
				checkReducer(t, reps, faulty, 142)
			}
		}
	}
}

func TestReducerEquivocatingSourceYieldsCommonValue(t *testing.T) {
	// A split-brain source with a large-domain value: correct processors
	// must converge on SOME common byte (often the default, since no value
	// reaches the n−t anchor quorum).
	for seed := int64(0); seed < 5; seed++ {
		reps := runReducer(t, 13, 3, 99, []int{0, 2, 4}, "splitbrain", seed)
		checkReducer(t, reps, []int{0, 2, 4}, 99)
	}
}

// roundMaxRecorder wraps a processor and records the largest payload it
// sends in each round.
type roundMaxRecorder struct {
	sim.Processor
	max map[int]int // round → largest payload
}

func (r *roundMaxRecorder) PrepareRound(round int) [][]byte {
	out := r.Processor.PrepareRound(round)
	for _, p := range out {
		r.max[round] = max(r.max[round], len(p))
	}
	return out
}

func TestReducerConstantMessagesAfterReduction(t *testing.T) {
	n, tt := 13, 3
	reps := make([]*ReducerReplica, n)
	recs := make([]*roundMaxRecorder, n)
	procs := make([]sim.Processor, n)
	for id := 0; id < n; id++ {
		rep, err := NewReducerReplica(n, tt, 0, id, 231, nil)
		if err != nil {
			t.Fatal(err)
		}
		reps[id] = rep
		recs[id] = &roundMaxRecorder{Processor: rep, max: map[int]int{}}
		procs[id] = recs[id]
	}
	fab, err := fabric.NewSim(len(procs))
	if err != nil {
		t.Fatal(err)
	}
	stats, err := fabric.RunRounds(fab, procs, reps[0].Rounds())
	if err != nil {
		t.Fatal(err)
	}
	// The anchor round costs 2 bytes; everything else is 1 byte.
	if stats.MaxPayload != anchorFrameLen {
		t.Fatalf("max payload = %d, want %d", stats.MaxPayload, anchorFrameLen)
	}
	for id, rec := range recs {
		for round, size := range rec.max {
			if round != 3 && size > 1 {
				t.Fatalf("processor %d round %d payload %d > 1 byte", id, round, size)
			}
		}
	}
}

func TestReducerAnchorQuorumIntersection(t *testing.T) {
	// Two correct processors can never anchor different values: drive many
	// adversarial runs and inspect the anchors after round 3.
	for seed := int64(0); seed < 10; seed++ {
		n, tt := 13, 3
		faulty := map[int]bool{0: true, 5: true, 9: true}
		reps := make([]*ReducerReplica, n)
		procs := make([]sim.Processor, n)
		st, err := adversary.New("splitbrain", 11)
		if err != nil {
			t.Fatal(err)
		}
		for id := 0; id < n; id++ {
			rep, err := NewReducerReplica(n, tt, 0, id, 50, nil)
			if err != nil {
				t.Fatal(err)
			}
			reps[id] = rep
			if faulty[id] {
				procs[id] = adversary.NewProcessor(rep, st, seed, n)
			} else {
				procs[id] = rep
			}
		}
		fab, err := fabric.NewSim(len(procs))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fabric.RunRounds(fab, procs, 3); err != nil { // just through the anchor round
			t.Fatal(err)
		}
		var anchored *eigtree.Value
		for id, rep := range reps {
			if faulty[id] || !rep.hasAnchor {
				continue
			}
			if anchored == nil {
				v := rep.anchor
				anchored = &v
			} else if rep.anchor != *anchored {
				t.Fatalf("seed %d: correct anchors differ: %d vs %d", seed, rep.anchor, *anchored)
			}
		}
	}
}
