package sim

import (
	"fmt"
	"testing"

	"shiftgears/internal/obs"
)

// tagInstance is a minimal Instance for configuration-level tests; the
// schedule-behavior tests (pipelining, lazy rounds, worker pools) drive
// real muxes through the fabric runtime and live in internal/fabric.
type tagInstance struct {
	inst int
	n    int
}

func (ti *tagInstance) PrepareRound(round int) [][]byte {
	return Broadcast(ti.n, []byte{byte(ti.inst), byte(round)})
}

func (ti *tagInstance) DeliverRound(round int, inbox [][]byte) {}

func TestMuxTicks(t *testing.T) {
	cases := []struct {
		rounds []int
		window int
		want   int
	}{
		{[]int{3, 3, 3, 3}, 1, 12}, // sequential
		{[]int{3, 3, 3, 3}, 2, 6},  // two at a time
		{[]int{3, 3, 3, 3}, 4, 3},  // all at once
		{[]int{3, 3, 3, 3}, 8, 3},  // window larger than load
		{[]int{5, 1, 2}, 2, 5},     // staggered: 1 finishes, 2 slides in
		{[]int{2}, 3, 2},
	}
	for _, c := range cases {
		if got := MuxTicks(c.rounds, c.window); got != c.want {
			t.Errorf("MuxTicks(%v, %d) = %d, want %d", c.rounds, c.window, got, c.want)
		}
	}
}

func TestMuxValidation(t *testing.T) {
	start := func(int) (Instance, error) { return &tagInstance{n: 2}, nil }
	roundsFor := func(int) int { return 1 }
	bad := []MuxConfig{
		{ID: 0, N: 2, Window: 0, Rounds: []int{1}, Start: start},
		{ID: 2, N: 2, Window: 1, Rounds: []int{1}, Start: start},
		{ID: 0, N: 2, Window: 1, Rounds: nil, Start: start},
		{ID: 0, N: 2, Window: 1, Rounds: []int{0}, Start: start},
		{ID: 0, N: 2, Window: 1, Rounds: []int{1}},
		{ID: 0, N: 2, Window: 1, Rounds: []int{1}, RoundsFor: roundsFor, Instances: 1, Start: start},
		{ID: 0, N: 2, Window: 1, RoundsFor: roundsFor, Start: start}, // missing Instances
	}
	for i, cfg := range bad {
		if _, err := NewMux(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	if _, err := NewMux(MuxConfig{ID: 0, N: 2, Window: 1, RoundsFor: roundsFor, Instances: 3, Start: start}); err != nil {
		t.Errorf("lazy-rounds config rejected: %v", err)
	}
}

// TestMuxLazyRoundsInvalid: a RoundsFor returning < 1 fails the tick with
// a schedule error rather than wedging the window.
func TestMuxLazyRoundsInvalid(t *testing.T) {
	m, err := NewMux(MuxConfig{
		ID: 0, N: 2, Window: 1, Instances: 2,
		RoundsFor: func(inst int) int { return -inst }, // instance 0 → 0: invalid
		Start:     func(inst int) (Instance, error) { return &tagInstance{inst: inst, n: 2}, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Outboxes(); err == nil {
		t.Fatal("invalid resolved round count not surfaced")
	}
	if m.Err() == nil {
		t.Fatal("Err() empty after invalid resolution")
	}
}

func TestMuxStartFailureSurfaces(t *testing.T) {
	m, err := NewMux(MuxConfig{
		ID: 0, N: 2, Window: 1, Rounds: []int{1},
		Start: func(inst int) (Instance, error) { return nil, fmt.Errorf("boom") },
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Outboxes(); err == nil {
		t.Fatal("factory failure not surfaced")
	}
	if m.Err() == nil {
		t.Fatal("Err() empty after factory failure")
	}
}

// TestMuxTickProtocol: Outboxes twice without a Deliver, or Deliver
// without Outboxes, is a driver bug and fails loudly.
func TestMuxTickProtocol(t *testing.T) {
	mk := func() *Mux {
		m, err := NewMux(MuxConfig{
			ID: 0, N: 2, Window: 1, Rounds: []int{2},
			Start: func(inst int) (Instance, error) { return &tagInstance{inst: inst, n: 2}, nil },
		})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	m := mk()
	if err := m.Deliver(make([][][]byte, 2)); err == nil {
		t.Fatal("Deliver before Outboxes accepted")
	}
	m = mk()
	if _, err := m.Outboxes(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Outboxes(); err == nil {
		t.Fatal("double Outboxes accepted")
	}
}

// TestMuxTracerEmitsSchedule: the mux-level SlotOpen/WindowAdvance trail
// covers every instance with its resolved round count.
func TestMuxTracerEmitsSchedule(t *testing.T) {
	const n, window = 2, 2
	rounds := []int{2, 1, 3}
	ring := obs.NewRing(0)
	mk := func(id int, tr obs.Tracer) *Mux {
		m, err := NewMux(MuxConfig{
			ID: id, N: n, Window: window, Rounds: rounds, Tracer: tr,
			Start: func(inst int) (Instance, error) {
				return &tagInstance{inst: inst, n: n}, nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	a, b := mk(0, ring), mk(1, nil)
	for !a.Done() {
		outs := make([][]MuxFrame, 2)
		var err error
		if outs[0], err = a.Outboxes(); err != nil {
			t.Fatal(err)
		}
		if outs[1], err = b.Outboxes(); err != nil {
			t.Fatal(err)
		}
		for _, m := range []*Mux{a, b} {
			ins := make([][][]byte, n)
			for s := range ins {
				ins[s] = make([][]byte, len(outs[s]))
				for f := range outs[s] {
					if outs[s][f].Outbox != nil {
						ins[s][f] = outs[s][f].Outbox[m.ID()]
					}
				}
			}
			if err := m.Deliver(ins); err != nil {
				t.Fatal(err)
			}
		}
	}
	opened, retired := map[int]int{}, map[int]int{}
	for _, ev := range ring.Events() {
		switch ev.Type {
		case obs.SlotOpen:
			opened[ev.Slot] = ev.Round
		case obs.WindowAdvance:
			retired[ev.Slot] = ev.Round
		}
	}
	for inst, r := range rounds {
		if opened[inst] != r {
			t.Errorf("instance %d opened with %d rounds, want %d", inst, opened[inst], r)
		}
		if retired[inst] != r {
			t.Errorf("instance %d retired with %d rounds, want %d", inst, retired[inst], r)
		}
	}
}
