package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"net"
	"strings"
	"testing"
	"time"

	"shiftgears/internal/adversary"
	"shiftgears/internal/core"
	"shiftgears/internal/eigtree"
	"shiftgears/internal/fabric"
	"shiftgears/internal/sim"
	"shiftgears/internal/trace"
)

// framePeer wraps raw bytes as a read-side peer for codec tests.
func framePeer(raw []byte) *peer {
	p := &peer{r: bufio.NewReader(bytes.NewReader(raw))}
	p.beginTick()
	return p
}

func TestFrameRoundTrip(t *testing.T) {
	raw := appendFrame(nil, 0, 7, []byte{1, 2, 3})
	raw = appendFrame(raw, 3, 8, nil)
	raw = appendFrame(raw, 300, 9, []byte{})
	p := framePeer(raw)
	instance, round, payload, err := p.readFrame()
	if err != nil || instance != 0 || round != 7 || !bytes.Equal(payload, []byte{1, 2, 3}) {
		t.Fatalf("frame 1: %d %d %v %v", instance, round, payload, err)
	}
	instance, round, payload, err = p.readFrame()
	if err != nil || instance != 3 || round != 8 || payload != nil {
		t.Fatalf("frame 2: %d %d %v %v (nil payload must survive)", instance, round, payload, err)
	}
	instance, round, payload, err = p.readFrame()
	if err != nil || instance != 300 || round != 9 || payload == nil || len(payload) != 0 {
		t.Fatalf("frame 3: %d %d %v %v (empty non-nil payload must survive)", instance, round, payload, err)
	}
}

func TestFrameArenaPreservesEarlierPayloads(t *testing.T) {
	// Frames of one tick slice into the peer's grow-only arena; when a
	// tick outgrows the current block, already-returned payloads must keep
	// their bytes (the old block is replaced, not recycled).
	big := bytes.Repeat([]byte{7}, minReadArena)
	raw := appendFrame(nil, 0, 1, []byte{1, 2, 3})
	raw = appendFrame(raw, 1, 1, big)
	raw = appendFrame(raw, 2, 1, big)
	p := framePeer(raw)
	_, _, first, err := p.readFrame()
	if err != nil {
		t.Fatal(err)
	}
	for f := 1; f <= 2; f++ {
		if _, _, payload, err := p.readFrame(); err != nil || !bytes.Equal(payload, big) {
			t.Fatalf("frame %d after arena growth: %v", f, err)
		}
	}
	if !bytes.Equal(first, []byte{1, 2, 3}) {
		t.Fatalf("arena growth corrupted an earlier payload: %v", first)
	}
}

func TestFrameRejectsOversize(t *testing.T) {
	// Hand-craft a frame header claiming a payload beyond maxFrame: the
	// reader must reject it before allocating, protecting against corrupt
	// length prefixes.
	raw := binary.AppendUvarint(nil, 0)                 // instance
	raw = binary.AppendUvarint(raw, 1)                  // round
	raw = binary.AppendUvarint(raw, uint64(maxFrame)+2) // len+1 → maxFrame+1 bytes
	_, _, _, err := framePeer(raw).readFrame()
	if err == nil {
		t.Fatal("oversize frame accepted")
	}
}

func TestFrameRejectsTruncation(t *testing.T) {
	raw := appendFrame(nil, 1, 2, []byte{9, 9, 9, 9})
	for cut := 1; cut < len(raw); cut++ {
		if _, _, _, err := framePeer(raw[:cut]).readFrame(); err == nil {
			t.Fatalf("frame truncated to %d bytes accepted", cut)
		}
	}
}

// echoNode broadcasts one byte per round and records inboxes.
type echoNode struct {
	id, n int
	seen  [][]byte
}

func (p *echoNode) ID() int { return p.id }
func (p *echoNode) PrepareRound(round int) [][]byte {
	if p.id == 2 {
		// Per-destination payloads (a two-faced node) exercise the
		// one-connection-per-pair property.
		out := make([][]byte, p.n)
		for j := range out {
			out[j] = []byte{byte(10*p.id + j), byte(round)}
		}
		return out
	}
	return sim.Broadcast(p.n, []byte{byte(10 * p.id), byte(round)})
}
func (p *echoNode) DeliverRound(round int, inbox [][]byte) {
	var flat []byte
	for _, payload := range inbox {
		flat = append(flat, payload...)
	}
	p.seen = append(p.seen, flat)
}

func TestClusterLockstepDelivery(t *testing.T) {
	n := 4
	procs := make([]sim.Processor, n)
	raw := make([]*echoNode, n)
	for i := range procs {
		raw[i] = &echoNode{id: i, n: n}
		procs[i] = raw[i]
	}
	stats, err := runMesh(t, procs, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Cluster-wide traffic: every node hears every node, self included.
	if stats.Rounds != 3 || stats.Messages != 3*n*n || stats.Bytes != 3*n*n*2 {
		t.Fatalf("stats = %+v", stats)
	}
	for i, p := range raw {
		if len(p.seen) != 3 {
			t.Fatalf("node %d saw %d rounds", i, len(p.seen))
		}
		for r, flat := range p.seen {
			if len(flat) != 2*n {
				t.Fatalf("node %d round %d: %d bytes, want %d", i, r+1, len(flat), 2*n)
			}
			// Node 2's per-destination payload carries our id.
			if flat[2*2] != byte(10*2+i) {
				t.Fatalf("node %d got %d from the two-faced node, want %d", i, flat[4], 10*2+i)
			}
		}
	}
}

// TestByzantineAgreementOverTCP runs the paper's Algorithm B over real
// sockets with a split-brain adversary: same guarantees as in-process.
func TestByzantineAgreementOverTCP(t *testing.T) {
	plan, err := core.NewPlan(core.AlgorithmB, 13, 3, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	env, err := core.NewEnv(plan)
	if err != nil {
		t.Fatal(err)
	}
	strat, err := adversary.New("splitbrain", plan.TotalRounds)
	if err != nil {
		t.Fatal(err)
	}
	faulty := map[int]bool{0: true, 4: true, 8: true}
	procs := make([]sim.Processor, plan.N)
	reps := make([]*core.Replica, plan.N)
	for id := 0; id < plan.N; id++ {
		rep, err := core.NewReplica(env, id, 5, trace.NewLog(id))
		if err != nil {
			t.Fatal(err)
		}
		reps[id] = rep
		if faulty[id] {
			procs[id] = adversary.NewProcessor(rep, strat, 3, plan.N)
		} else {
			procs[id] = rep
		}
	}
	if _, err := runMesh(t, procs, plan.TotalRounds); err != nil {
		t.Fatal(err)
	}

	var common eigtree.Value
	first := true
	for id, rep := range reps {
		if faulty[id] {
			continue
		}
		if err := rep.Err(); err != nil {
			t.Fatalf("replica %d: %v", id, err)
		}
		v, ok := rep.Decided()
		if !ok {
			t.Fatalf("replica %d undecided", id)
		}
		if first {
			common, first = v, false
		} else if v != common {
			t.Fatalf("disagreement over TCP: %d vs %d", v, common)
		}
	}
}

// TestTCPMatchesInProcess runs the same configuration on both engines and
// compares decisions (transport must be behavior-preserving).
func TestTCPMatchesInProcess(t *testing.T) {
	build := func() ([]sim.Processor, []*core.Replica) {
		plan, err := core.NewPlan(core.Exponential, 7, 2, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		env, err := core.NewEnv(plan)
		if err != nil {
			t.Fatal(err)
		}
		strat, err := adversary.New("noise", plan.TotalRounds)
		if err != nil {
			t.Fatal(err)
		}
		procs := make([]sim.Processor, 7)
		reps := make([]*core.Replica, 7)
		for id := 0; id < 7; id++ {
			rep, err := core.NewReplica(env, id, 3, nil)
			if err != nil {
				t.Fatal(err)
			}
			reps[id] = rep
			if id == 2 || id == 5 {
				procs[id] = adversary.NewProcessor(rep, strat, 9, 7)
			} else {
				procs[id] = rep
			}
		}
		return procs, reps
	}

	procsA, repsA := build()
	simFab, err := fabric.NewSim(7)
	if err != nil {
		t.Fatal(err)
	}
	simStats, err := fabric.RunRounds(simFab, procsA, 3)
	if err != nil {
		t.Fatal(err)
	}

	procsB, repsB := build()
	tcpStats, err := runMesh(t, procsB, 3)
	if err != nil {
		t.Fatal(err)
	}
	if *simStats != *tcpStats {
		t.Fatalf("traffic: in-process %+v vs TCP %+v", *simStats, *tcpStats)
	}

	for id := range repsA {
		va, oka := repsA[id].Decided()
		vb, okb := repsB[id].Decided()
		if oka != okb || va != vb {
			t.Fatalf("replica %d: in-process (%d,%v) vs TCP (%d,%v)", id, va, oka, vb, okb)
		}
	}
}

// rawPeerRun wires a 2-node mesh where peer 1 is a hand-driven socket, so
// tests can inject arbitrary frames into node 0's one-instance schedule
// (JoinMesh + fabric.RunRounds, the multi-process shape).
func rawPeerRun(t *testing.T, frame []byte) error {
	t.Helper()
	node, err := ListenNode(0, 2, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = node.Close() }()

	conns := make(chan net.Conn, 1)
	done := make(chan error, 1)
	go func() {
		conn, err := net.Dial("tcp", node.Addr())
		if err != nil {
			done <- err
			return
		}
		conns <- conn                                    // closed by the test after the run returns
		if _, err := conn.Write([]byte{1}); err != nil { // handshake: we are id 1
			done <- err
			return
		}
		_, err = conn.Write(frame)
		done <- err
	}()
	defer func() {
		select {
		case conn := <-conns:
			_ = conn.Close()
		default:
		}
	}()

	if err := node.Connect([]string{node.Addr(), "unused"}); err != nil {
		t.Fatal(err)
	}
	mesh := JoinMesh(node)
	defer func() { _ = mesh.Close() }()
	_, runErr := fabric.RunRounds(mesh, []sim.Processor{&echoNode{id: 0, n: 2}}, 1)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	return runErr
}

// TestRunRejectsInstanceMismatch: a frame tagged with a forged instance
// id must fail a one-instance run (round/instance mismatch handling).
func TestRunRejectsInstanceMismatch(t *testing.T) {
	err := rawPeerRun(t, appendFrame(nil, 5, 1, []byte{1, 1}))
	if err == nil || !strings.Contains(err.Error(), "sent frame (instance 5, round 1)") {
		t.Fatalf("instance mismatch not rejected by the wire guard: %v", err)
	}
}

// TestRunRejectsRoundMismatch: a frame for the wrong round must fail the
// lockstep barrier.
func TestRunRejectsRoundMismatch(t *testing.T) {
	err := rawPeerRun(t, appendFrame(nil, 0, 9, []byte{1, 1}))
	if err == nil || !strings.Contains(err.Error(), "sent frame (instance 0, round 9)") {
		t.Fatalf("round mismatch not rejected by the wire guard: %v", err)
	}
}

// TestDialRetryOption: a short retry window fails fast instead of
// inheriting the 10s default startup window.
func TestDialRetryOption(t *testing.T) {
	// Reserve a port and close it so nothing is listening there.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	_ = ln.Close()

	node, err := ListenNode(1, 2, "127.0.0.1:0", WithDialRetry(50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = node.Close() }()
	start := time.Now()
	if err := node.Connect([]string{dead, node.Addr()}); err == nil {
		t.Fatal("connect to dead peer succeeded")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("connect took %v despite a 50ms retry window", elapsed)
	}
}

func TestListenValidation(t *testing.T) {
	if _, err := ListenNode(5, 4, "127.0.0.1:0"); err == nil {
		t.Error("id ≥ n accepted")
	}
	if _, err := ListenNode(0, 1, "127.0.0.1:0"); err == nil {
		t.Error("n < 2 accepted")
	}
}

func TestNodeRejectsBadOutbox(t *testing.T) {
	procs := []sim.Processor{&badOutboxNode{0}, &badOutboxNode{1}}
	if _, err := runMesh(t, procs, 1); err == nil {
		t.Fatal("malformed outbox accepted")
	}
}

type badOutboxNode struct{ id int }

func (p *badOutboxNode) ID() int                    { return p.id }
func (p *badOutboxNode) PrepareRound(int) [][]byte  { return [][]byte{{1}, {2}, {3}} }
func (p *badOutboxNode) DeliverRound(int, [][]byte) {}
