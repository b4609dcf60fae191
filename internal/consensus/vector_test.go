package consensus

import (
	"bytes"
	"testing"
	"testing/quick"

	"shiftgears/internal/adversary"
	"shiftgears/internal/core"
	"shiftgears/internal/eigtree"
	"shiftgears/internal/fabric"
	"shiftgears/internal/sim"
)

func TestEncodeDecodeFrames(t *testing.T) {
	frames := [][]byte{{1, 2, 3}, nil, {}, {9}}
	payload := EncodeFrames(frames)
	got := DecodeFrames(payload, 4)
	if got == nil {
		t.Fatal("decode failed")
	}
	if !bytes.Equal(got[0], []byte{1, 2, 3}) || got[1] != nil || got[2] != nil || !bytes.Equal(got[3], []byte{9}) {
		t.Fatalf("decoded %v", got)
	}
}

func TestEncodeFramesAllNil(t *testing.T) {
	if EncodeFrames([][]byte{nil, nil}) != nil {
		t.Fatal("all-nil frames must encode to nil (no message)")
	}
}

func TestDecodeFramesRejectsMalformed(t *testing.T) {
	if DecodeFrames(nil, 3) != nil {
		t.Error("nil payload")
	}
	if DecodeFrames([]byte{5, 1, 2}, 1) != nil {
		t.Error("truncated frame accepted")
	}
	good := EncodeFrames([][]byte{{1}, {2}})
	if DecodeFrames(good, 3) != nil {
		t.Error("frame-count mismatch accepted")
	}
	if DecodeFrames(append(good, 0xff), 2) != nil {
		t.Error("trailing bytes accepted")
	}
}

func TestFramesRoundTripProperty(t *testing.T) {
	f := func(a, b, c []byte, skipB bool) bool {
		frames := [][]byte{a, b, c}
		if skipB {
			frames[1] = nil
		}
		payload := EncodeFrames(frames)
		got := DecodeFrames(payload, 3)
		if payload == nil {
			// Only possible when every frame was nil/empty.
			for _, fr := range frames {
				if len(fr) > 0 {
					return false
				}
			}
			return got == nil
		}
		for i := range frames {
			want := frames[i]
			if len(want) == 0 {
				if got[i] != nil {
					return false
				}
				continue
			}
			if !bytes.Equal(got[i], want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func runVector(t *testing.T, alg core.Algorithm, n, tt, b int, inputs []eigtree.Value, faultyIDs []int, strat string, seed int64) []*VectorReplica {
	t.Helper()
	env, err := NewEnv(alg, n, tt, b)
	if err != nil {
		t.Fatal(err)
	}
	isFaulty := map[int]bool{}
	for _, f := range faultyIDs {
		isFaulty[f] = true
	}
	var st adversary.Strategy
	if len(faultyIDs) > 0 {
		st, err = adversary.New(strat, env.Rounds())
		if err != nil {
			t.Fatal(err)
		}
	}
	reps := make([]*VectorReplica, n)
	procs := make([]sim.Processor, n)
	for id := 0; id < n; id++ {
		rep, err := NewVectorReplica(env, id, inputs[id], nil)
		if err != nil {
			t.Fatal(err)
		}
		reps[id] = rep
		if isFaulty[id] {
			procs[id] = NewFaultyVector(rep, st, seed)
		} else {
			procs[id] = rep
		}
	}
	fab, err := fabric.NewSim(len(procs))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fabric.RunRounds(fab, procs, env.Rounds()); err != nil {
		t.Fatal(err)
	}
	for id, rep := range reps {
		if !isFaulty[id] {
			if err := rep.Err(); err != nil {
				t.Fatalf("replica %d: %v", id, err)
			}
		}
	}
	return reps
}

func checkVector(t *testing.T, reps []*VectorReplica, inputs []eigtree.Value, faultyIDs []int) Vector {
	t.Helper()
	isFaulty := map[int]bool{}
	for _, f := range faultyIDs {
		isFaulty[f] = true
	}
	var common Vector
	for id, rep := range reps {
		if isFaulty[id] {
			continue
		}
		vec, ok := rep.Decided()
		if !ok {
			t.Fatalf("replica %d undecided", id)
		}
		if common == nil {
			common = vec
			continue
		}
		for s := range vec {
			if vec[s] != common[s] {
				t.Fatalf("vector disagreement at slot %d: %d vs %d", s, vec[s], common[s])
			}
		}
	}
	for id := range reps {
		if !isFaulty[id] && common[id] != inputs[id] {
			t.Fatalf("slot %d = %d, want the correct processor's input %d", id, common[id], inputs[id])
		}
	}
	return common
}

func TestInteractiveConsistencyFaultFree(t *testing.T) {
	n := 7
	inputs := make([]eigtree.Value, n)
	for i := range inputs {
		inputs[i] = eigtree.Value(i)
	}
	reps := runVector(t, core.Exponential, n, 2, 0, inputs, nil, "", 0)
	vec := checkVector(t, reps, inputs, nil)
	for i := range vec {
		if vec[i] != eigtree.Value(i) {
			t.Fatalf("slot %d = %d", i, vec[i])
		}
	}
}

func TestInteractiveConsistencyUnderByzantineFaults(t *testing.T) {
	n := 7
	inputs := []eigtree.Value{3, 1, 4, 1, 5, 9, 2}
	for _, strat := range []string{"silent", "splitbrain", "garbage", "noise", "collude"} {
		reps := runVector(t, core.Exponential, n, 2, 0, inputs, []int{1, 4}, strat, 5)
		checkVector(t, reps, inputs, []int{1, 4})
	}
}

func TestInteractiveConsistencyWithAlgorithmB(t *testing.T) {
	n := 13
	inputs := make([]eigtree.Value, n)
	for i := range inputs {
		inputs[i] = eigtree.Value(i % 3)
	}
	reps := runVector(t, core.AlgorithmB, n, 3, 2, inputs, []int{0, 5, 10}, "splitbrain", 2)
	checkVector(t, reps, inputs, []int{0, 5, 10})
}

func TestReduceMajority(t *testing.T) {
	if v := (Vector{1, 1, 2, 1, 0}).Reduce(); v != 1 {
		t.Fatalf("Reduce = %d, want 1", v)
	}
	// Ties break toward the smaller value.
	if v := (Vector{2, 2, 1, 1}).Reduce(); v != 1 {
		t.Fatalf("tie Reduce = %d, want 1", v)
	}
}

func TestConsensusValidityViaReduce(t *testing.T) {
	// All correct processors share input 7: Reduce must return 7 no matter
	// what the faulty processors inject.
	n := 7
	inputs := make([]eigtree.Value, n)
	for i := range inputs {
		inputs[i] = 7
	}
	inputs[2], inputs[5] = 0, 1 // faulty processors' inputs are irrelevant
	reps := runVector(t, core.Exponential, n, 2, 0, inputs, []int{2, 5}, "splitbrain", 1)
	vec := checkVector(t, reps, inputs, []int{2, 5})
	if got := vec.Reduce(); got != 7 {
		t.Fatalf("consensus = %d, want 7", got)
	}
}

func TestVectorEnvValidation(t *testing.T) {
	if _, err := NewEnv(core.Exponential, 6, 2, 0); err == nil {
		t.Fatal("n < 3t+1 accepted")
	}
}
