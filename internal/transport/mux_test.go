package transport

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"shiftgears/internal/fabric"
	"shiftgears/internal/sim"
)

// muxTag broadcasts [instance, round] per local round and records inboxes
// (the transport twin of the fabric package's test instance).
type muxTag struct {
	mu   sync.Mutex
	inst int
	n    int
	seen [][]byte
}

func (ti *muxTag) PrepareRound(round int) [][]byte {
	return sim.Broadcast(ti.n, []byte{byte(ti.inst), byte(round)})
}

func (ti *muxTag) DeliverRound(round int, inbox [][]byte) {
	ti.mu.Lock()
	defer ti.mu.Unlock()
	var flat []byte
	for _, p := range inbox {
		flat = append(flat, p...)
	}
	ti.seen = append(ti.seen, flat)
}

func buildTagMuxes(t *testing.T, n, window int, rounds []int) ([]*sim.Mux, [][]*muxTag) {
	t.Helper()
	muxes := make([]*sim.Mux, n)
	insts := make([][]*muxTag, n)
	for id := 0; id < n; id++ {
		id := id
		insts[id] = make([]*muxTag, len(rounds))
		m, err := sim.NewMux(sim.MuxConfig{
			ID: id, N: n, Window: window, Rounds: rounds,
			Start: func(inst int) (sim.Instance, error) {
				ti := &muxTag{inst: inst, n: n}
				insts[id][inst] = ti
				return ti, nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		muxes[id] = m
	}
	return muxes, insts
}

// TestMuxOverTCPMatchesSim pipelines the same multiplexed schedule over a
// loopback mesh and over the in-process fabric — the same drive loop,
// different substrate; every instance must see byte-identical inboxes.
func TestMuxOverTCPMatchesSim(t *testing.T) {
	const n, window = 4, 2
	rounds := []int{2, 3, 2, 3, 2}

	simMuxes, simInsts := buildTagMuxes(t, n, window, rounds)
	simFab, err := fabric.NewSim(n)
	if err != nil {
		t.Fatal(err)
	}
	ticks := sim.MuxTicks(rounds, window)
	if _, err := fabric.Run(simFab, simMuxes); err != nil {
		t.Fatal(err)
	}

	tcpMuxes, tcpInsts := buildTagMuxes(t, n, window, rounds)
	mesh, err := NewMesh(n)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = mesh.Close() }()
	stats, err := fabric.Run(mesh, tcpMuxes)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rounds != ticks {
		t.Fatalf("TCP mux ran %d ticks, want %d", stats.Rounds, ticks)
	}

	for id := 0; id < n; id++ {
		for inst := range rounds {
			a, b := simInsts[id][inst], tcpInsts[id][inst]
			if len(a.seen) != len(b.seen) {
				t.Fatalf("node %d instance %d: %d sim rounds vs %d TCP rounds", id, inst, len(a.seen), len(b.seen))
			}
			for r := range a.seen {
				if !bytes.Equal(a.seen[r], b.seen[r]) {
					t.Fatalf("node %d instance %d round %d: sim %v vs TCP %v", id, inst, r+1, a.seen[r], b.seen[r])
				}
			}
		}
	}
}

// TestMeshLazyRoundsMatchesStatic: a mesh whose round counts resolve
// lazily (RoundsFor) behaves identically to the static schedule — the
// wire format carries instance+round already, so nothing changes on the
// frames.
func TestMeshLazyRoundsMatchesStatic(t *testing.T) {
	const n, window = 3, 2
	rounds := []int{2, 1, 3}

	muxes := make([]*sim.Mux, n)
	insts := make([][]*muxTag, n)
	for id := 0; id < n; id++ {
		id := id
		insts[id] = make([]*muxTag, len(rounds))
		m, err := sim.NewMux(sim.MuxConfig{
			ID: id, N: n, Window: window,
			Instances: len(rounds),
			RoundsFor: func(inst int) int { return rounds[inst] },
			Start: func(inst int) (sim.Instance, error) {
				ti := &muxTag{inst: inst, n: n}
				insts[id][inst] = ti
				return ti, nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		muxes[id] = m
	}
	mesh, err := NewMesh(n)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = mesh.Close() }()
	stats, err := fabric.Run(mesh, muxes)
	if err != nil {
		t.Fatal(err)
	}
	if want := sim.MuxTicks(rounds, window); stats.Rounds != want {
		t.Fatalf("lazy mesh ran %d ticks, want %d", stats.Rounds, want)
	}
	for id := 0; id < n; id++ {
		for inst, ti := range insts[id] {
			if len(ti.seen) != rounds[inst] {
				t.Fatalf("node %d instance %d saw %d rounds, want %d", id, inst, len(ti.seen), rounds[inst])
			}
		}
	}
}

// TestMeshDivergentLazyRoundsFailsFast: nodes resolving different round
// counts for the same instance — a divergent gear policy — must fail the
// mesh loudly, not deadlock. On an in-process mesh the runtime's
// cross-node validation catches both shapes (mid-schedule mismatch and
// early finish) before a byte moves, uniformly with the other fabrics.
func TestMeshDivergentLazyRoundsFailsFast(t *testing.T) {
	cases := []struct {
		name string
		// divergent round count node 0 resolves for instance 1 (others use
		// 3); followup is the round count of a trailing third instance, 0
		// meaning no third instance.
		rounds, followup int
	}{
		{"mid-schedule mismatch", 1, 3},
		{"early finish", 1, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			const n = 3
			instances := 2
			if c.followup > 0 {
				instances = 3
			}
			muxes := make([]*sim.Mux, n)
			for id := 0; id < n; id++ {
				id := id
				m, err := sim.NewMux(sim.MuxConfig{
					ID: id, N: n, Window: 1,
					Instances: instances,
					RoundsFor: func(inst int) int {
						switch {
						case inst == 1 && id == 0:
							return c.rounds
						case inst == 2:
							return c.followup
						default:
							return 3
						}
					},
					Start: func(inst int) (sim.Instance, error) {
						return &muxTag{inst: inst, n: n}, nil
					},
				})
				if err != nil {
					t.Fatal(err)
				}
				muxes[id] = m
			}
			mesh, err := NewMesh(n)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = mesh.Close() }()
			done := make(chan error, 1)
			go func() {
				_, err := fabric.Run(mesh, muxes)
				done <- err
			}()
			select {
			case err := <-done:
				if err == nil {
					t.Fatal("divergent schedules not surfaced")
				}
				if !errors.Is(err, fabric.ErrDiverged) {
					t.Fatalf("divergence error unclear: %v", err)
				}
			case <-time.After(30 * time.Second):
				t.Fatal("divergent schedules deadlocked the mesh")
			}
		})
	}
}

// TestJoinMeshWireDivergenceGuard: in a multi-process deployment no
// runtime sees more than its own schedule, so divergence must surface at
// the wire — the frame instance/round mismatch error — instead of
// deadlocking. Three single-node fabrics (one per "process") run
// divergent lazy schedules over one real mesh.
func TestJoinMeshWireDivergenceGuard(t *testing.T) {
	const n = 3
	nodes := make([]*Node, n)
	addrs := make([]string, n)
	for id := 0; id < n; id++ {
		node, err := ListenNode(id, n, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		nodes[id] = node
		addrs[id] = node.Addr()
	}
	if err := connectAll(nodes, addrs); err != nil {
		t.Fatal(err)
	}

	errs := make(chan error, n)
	for id := 0; id < n; id++ {
		id := id
		m, err := sim.NewMux(sim.MuxConfig{
			ID: id, N: n, Window: 1,
			Instances: 3,
			RoundsFor: func(inst int) int {
				if inst == 1 && id == 0 {
					return 1 // node 0's gear resolves short: divergence
				}
				return 3
			},
			Start: func(inst int) (sim.Instance, error) {
				return &muxTag{inst: inst, n: n}, nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			mesh := JoinMesh(nodes[id])
			defer func() { _ = mesh.Close() }()
			_, err := fabric.Run(mesh, []*sim.Mux{m})
			errs <- err
		}()
	}

	sawWireGuard := false
	for i := 0; i < n; i++ {
		select {
		case err := <-errs:
			if err != nil && strings.Contains(err.Error(), "sent frame") {
				sawWireGuard = true
			}
		case <-time.After(30 * time.Second):
			t.Fatal("divergent multi-process mesh deadlocked")
		}
	}
	if !sawWireGuard {
		t.Fatal("no node reported the frame instance/round mismatch wire guard")
	}
}
