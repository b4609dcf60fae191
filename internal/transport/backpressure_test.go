package transport

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"shiftgears/internal/fabric"
	"shiftgears/internal/sim"
)

// floodInstance broadcasts a payload far larger than the shrunken kernel
// socket buffers every local round and checks what it receives.
type floodInstance struct {
	mu      sync.Mutex
	n       int
	payload []byte
	got     int // payload bytes received over the run
}

func (fi *floodInstance) PrepareRound(round int) [][]byte {
	return sim.Broadcast(fi.n, fi.payload)
}

func (fi *floodInstance) DeliverRound(round int, inbox [][]byte) {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	for _, p := range inbox {
		fi.got += len(p)
	}
}

// TestMeshLargePayloadBackpressure is the send-all-then-read deadlock
// reproducer: every node broadcasts a per-tick payload that exceeds the
// deliberately shrunken kernel socket buffers, so an exchange that
// finishes all its sends before its first read wedges the whole mesh —
// each node blocked in Flush because its peers, also blocked in Flush,
// never drain it. The per-peer writer pool overlaps sends with reads
// and must complete the schedule.
func TestMeshLargePayloadBackpressure(t *testing.T) {
	floodMesh(t, WithWriteBufferSize(16<<10))
}

// TestMeshSmallReadBufferBackpressure re-runs the deadlock reproducer
// with the read side also squeezed: a 512-byte bufio layer under the
// shrunken kernel buffers, so every 1 MiB frame crosses the reader in
// thousands of short reads straight into the arena. The vectored writer
// must still overlap those reads with its own sends — buffer sizing on
// either side must never reintroduce the send-all-then-read wedge.
func TestMeshSmallReadBufferBackpressure(t *testing.T) {
	floodMesh(t, WithWriteBufferSize(16<<10), WithReadBufferSize(512))
}

func floodMesh(t *testing.T, opts ...Option) {
	t.Helper()
	const (
		n       = 3
		rounds  = 3
		payload = 1 << 20 // 1 MiB per destination per tick
	)
	big := bytes.Repeat([]byte{0xAB}, payload)

	muxes := make([]*sim.Mux, n)
	insts := make([]*floodInstance, n)
	for id := 0; id < n; id++ {
		id := id
		m, err := sim.NewMux(sim.MuxConfig{
			ID: id, N: n, Window: 1, Rounds: []int{rounds},
			Start: func(inst int) (sim.Instance, error) {
				fi := &floodInstance{n: n, payload: big}
				insts[id] = fi
				return fi, nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		muxes[id] = m
	}
	mesh, err := NewMesh(n, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = mesh.Close() }()

	type result struct {
		stats *sim.Stats
		err   error
	}
	done := make(chan result, 1)
	go func() {
		stats, err := fabric.Run(mesh, muxes)
		done <- result{stats, err}
	}()
	select {
	case res := <-done:
		if res.err != nil {
			t.Fatal(res.err)
		}
		if res.stats.Rounds != rounds {
			t.Fatalf("mesh ran %d ticks, want %d", res.stats.Rounds, rounds)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("mesh deadlocked under socket-buffer back-pressure (send half must not block the read half)")
	}
	for id, fi := range insts {
		if want := n * rounds * payload; fi.got != want {
			t.Fatalf("node %d received %d payload bytes, want %d", id, fi.got, want)
		}
	}
}

// TestRunLargePayloadBackpressure is the single-shot twin: a RunRounds
// schedule over the mesh under the same shrunken-buffer regime must also
// overlap sends with reads.
func TestRunLargePayloadBackpressure(t *testing.T) {
	const (
		n       = 3
		rounds  = 2
		payload = 1 << 20
		sockBuf = 16 << 10
	)
	big := bytes.Repeat([]byte{0xCD}, payload)

	procs := make([]sim.Processor, n)
	insts := make([]*floodNode, n)
	for id := 0; id < n; id++ {
		fn := &floodNode{id: id, n: n, payload: big}
		insts[id] = fn
		procs[id] = fn
	}
	mesh, err := NewMesh(n, WithWriteBufferSize(sockBuf))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = mesh.Close() }()

	done := make(chan error, 1)
	go func() {
		_, err := fabric.RunRounds(mesh, procs, rounds)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("mesh deadlocked under socket-buffer back-pressure")
	}
	for id, fn := range insts {
		if want := n * rounds * payload; fn.got != want {
			t.Fatalf("node %d received %d payload bytes, want %d", id, fn.got, want)
		}
	}
}

// floodNode is floodInstance as a plain sim.Processor (for RunRounds).
type floodNode struct {
	mu      sync.Mutex
	id, n   int
	payload []byte
	got     int
}

func (fn *floodNode) ID() int { return fn.id }

func (fn *floodNode) PrepareRound(round int) [][]byte {
	return sim.Broadcast(fn.n, fn.payload)
}

func (fn *floodNode) DeliverRound(round int, inbox [][]byte) {
	fn.mu.Lock()
	defer fn.mu.Unlock()
	for _, p := range inbox {
		fn.got += len(p)
	}
}

// TestMeshTeardownUnderBackpressure: a node dies mid-tick (its
// connections close) while its peers are pushing payloads larger than
// the shrunken send buffers. The survivors' reads from the dead node
// fail while their writers to each other are still blocked in Flush —
// the error path must tear the tick down and return
// (writerPool.abortTick), not hang joining writers no one will ever
// drain.
func TestMeshTeardownUnderBackpressure(t *testing.T) {
	const (
		n       = 3
		payload = 1 << 20
		sockBuf = 16 << 10
	)
	big := bytes.Repeat([]byte{0xEF}, payload)

	muxes := make([]*sim.Mux, n)
	for id := 0; id < n; id++ {
		m, err := sim.NewMux(sim.MuxConfig{
			ID: id, N: n, Window: 1, Rounds: []int{64},
			Start: func(inst int) (sim.Instance, error) {
				return &floodInstance{n: n, payload: big}, nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		muxes[id] = m
	}
	mesh, err := NewMesh(n, WithWriteBufferSize(sockBuf))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = mesh.Close() }()

	done := make(chan error, 1)
	go func() {
		_, err := fabric.Run(mesh, muxes)
		done <- err
	}()
	// Sever node 0 a few ticks in, mid-flood.
	time.Sleep(150 * time.Millisecond)
	_ = mesh.nodes[0].Close()

	select {
	case err := <-done:
		if err == nil {
			t.Fatal("severed node not surfaced")
		}
	case <-time.After(60 * time.Second):
		t.Fatal("mesh hung joining writers after a read failure (error path must tear the tick down)")
	}
}
