package transport

import (
	"testing"

	"shiftgears/internal/fabric"
	"shiftgears/internal/sim"
)

func TestConnectAddrCountMismatch(t *testing.T) {
	node, err := ListenNode(0, 3, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = node.Close() }()
	if err := node.Connect([]string{"a", "b"}); err == nil {
		t.Fatal("addr count mismatch accepted")
	}
}

// runMesh drives a single-shot run of procs over a fresh loopback mesh.
func runMesh(t *testing.T, procs []sim.Processor, rounds int, opts ...Option) (*sim.Stats, error) {
	t.Helper()
	mesh, err := NewMesh(len(procs), opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = mesh.Close() }()
	return fabric.RunRounds(mesh, procs, rounds)
}

func TestNodeRunValidation(t *testing.T) {
	procs := []sim.Processor{&echoNode{id: 0, n: 2}, &echoNode{id: 1, n: 2}}
	if _, err := runMesh(t, procs, 0); err == nil {
		t.Fatal("zero rounds accepted")
	}
}

func TestClusterRejectsMisnumberedProcessors(t *testing.T) {
	procs := []sim.Processor{&echoNode{id: 1, n: 2}, &echoNode{id: 0, n: 2}}
	if _, err := runMesh(t, procs, 1); err == nil {
		t.Fatal("misnumbered processors accepted")
	}
}

func TestNodeAddrReportsEphemeralPort(t *testing.T) {
	node, err := ListenNode(0, 2, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = node.Close() }()
	if node.Addr() == "127.0.0.1:0" || node.Addr() == "" {
		t.Fatalf("Addr() = %q, want a concrete port", node.Addr())
	}
}

// TestSilentProtocolOverTCP: rounds where nobody sends still advance the
// lockstep barrier (nil frames flow).
func TestSilentProtocolOverTCP(t *testing.T) {
	procs := []sim.Processor{&muteNode{0}, &muteNode{1}, &muteNode{2}}
	stats, err := runMesh(t, procs, 3)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rounds != 3 || stats.Messages != 0 {
		t.Fatalf("stats = %+v", stats)
	}
}

type muteNode struct{ id int }

func (p *muteNode) ID() int                    { return p.id }
func (p *muteNode) PrepareRound(int) [][]byte  { return nil }
func (p *muteNode) DeliverRound(int, [][]byte) {}
