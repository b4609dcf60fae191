package sim_test

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"shiftgears/internal/fabric"
	"shiftgears/internal/sim"
)

// The synchronous network of the model is driven by fabric.RunRounds
// over the in-process fabric; these tests pin the model's delivery
// semantics through it.

// runNetwork drives procs for rounds over an in-process fabric.
func runNetwork(t *testing.T, procs []sim.Processor, rounds int, opts ...fabric.Option) (*sim.Stats, error) {
	t.Helper()
	f, err := fabric.NewSim(len(procs))
	if err != nil {
		return nil, err
	}
	return fabric.RunRounds(f, procs, rounds, opts...)
}

// echoProc broadcasts its id as a 1-byte payload every round and records
// everything it receives.
type echoProc struct {
	id       int
	n        int
	mu       sync.Mutex
	received [][]int // per round: sender ids whose payloads arrived
	payloads [][]byte
}

func (p *echoProc) ID() int { return p.id }

func (p *echoProc) PrepareRound(round int) [][]byte {
	return sim.Broadcast(p.n, []byte{byte(p.id), byte(round)})
}

func (p *echoProc) DeliverRound(round int, inbox [][]byte) {
	var senders []int
	var payloads []byte
	for i, payload := range inbox {
		if payload != nil {
			senders = append(senders, i)
			payloads = append(payloads, payload...)
		}
	}
	p.mu.Lock()
	p.received = append(p.received, senders)
	p.payloads = append(p.payloads, payloads)
	p.mu.Unlock()
}

func TestNetworkValidation(t *testing.T) {
	if _, err := runNetwork(t, nil, 1); err == nil {
		t.Error("empty processor list accepted")
	}
	if _, err := runNetwork(t, []sim.Processor{&echoProc{id: 0, n: 2}, nil}, 1); err == nil {
		t.Error("nil processor accepted")
	}
	if _, err := runNetwork(t, []sim.Processor{&echoProc{id: 1, n: 2}, &echoProc{id: 0, n: 2}}, 1); err == nil {
		t.Error("out-of-order ids accepted")
	}
	procs := []sim.Processor{&echoProc{id: 0, n: 2}, &echoProc{id: 1, n: 2}}
	if _, err := runNetwork(t, procs, 0); err == nil {
		t.Error("zero rounds accepted")
	}
}

func TestNetworkDeliversAllToAll(t *testing.T) {
	n := 5
	procs := make([]sim.Processor, n)
	raw := make([]*echoProc, n)
	for i := range procs {
		raw[i] = &echoProc{id: i, n: n}
		procs[i] = raw[i]
	}
	stats, err := runNetwork(t, procs, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range raw {
		if len(p.received) != 3 {
			t.Fatalf("proc %d saw %d rounds", p.id, len(p.received))
		}
		for r, senders := range p.received {
			if len(senders) != n {
				t.Fatalf("proc %d round %d: %d senders (self-delivery must be included)", p.id, r+1, len(senders))
			}
		}
	}
	if stats.Rounds != 3 || stats.Messages != 3*n*n || stats.Bytes != 3*n*n*2 || stats.MaxPayload != 2 {
		t.Fatalf("stats = %+v", stats)
	}
}

// silentProc sends nothing.
type silentProc struct{ id int }

func (p *silentProc) ID() int                    { return p.id }
func (p *silentProc) PrepareRound(int) [][]byte  { return nil }
func (p *silentProc) DeliverRound(int, [][]byte) {}

func TestNetworkNilOutboxes(t *testing.T) {
	procs := []sim.Processor{&silentProc{0}, &silentProc{1}, &silentProc{2}}
	stats, err := runNetwork(t, procs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rounds != 2 || stats.Messages != 0 || stats.Bytes != 0 || stats.MaxPayload != 0 {
		t.Fatalf("stats = %+v, want 2 silent rounds", stats)
	}
}

// badProc returns a malformed outbox.
type badProc struct{ id int }

func (p *badProc) ID() int { return p.id }
func (p *badProc) PrepareRound(int) [][]byte {
	return [][]byte{{1}} // wrong length: n is 2
}
func (p *badProc) DeliverRound(int, [][]byte) {}

func TestNetworkRejectsMalformedOutbox(t *testing.T) {
	if _, err := runNetwork(t, []sim.Processor{&badProc{0}, &badProc{1}}, 1); err == nil {
		t.Fatal("malformed outbox not rejected")
	}
}

func TestRoundHook(t *testing.T) {
	var rounds []int
	procs := []sim.Processor{&silentProc{0}, &silentProc{1}}
	hook := fabric.WithTickHook(func(r int) error {
		rounds = append(rounds, r)
		return nil
	})
	if _, err := runNetwork(t, procs, 4, hook); err != nil {
		t.Fatal(err)
	}
	if len(rounds) != 4 || rounds[0] != 1 || rounds[3] != 4 {
		t.Fatalf("hook rounds = %v", rounds)
	}
}

// perDestProc sends a distinct payload to each destination.
type perDestProc struct {
	id, n int
	got   []byte
}

func (p *perDestProc) ID() int { return p.id }
func (p *perDestProc) PrepareRound(round int) [][]byte {
	out := make([][]byte, p.n)
	for j := range out {
		out[j] = []byte{byte(p.id*10 + j)}
	}
	return out
}
func (p *perDestProc) DeliverRound(round int, inbox [][]byte) {
	p.got = nil
	for _, payload := range inbox {
		p.got = append(p.got, payload...)
	}
}

func TestPerDestinationDelivery(t *testing.T) {
	n := 3
	raw := make([]*perDestProc, n)
	procs := make([]sim.Processor, n)
	for i := range procs {
		raw[i] = &perDestProc{id: i, n: n}
		procs[i] = raw[i]
	}
	if _, err := runNetwork(t, procs, 1); err != nil {
		t.Fatal(err)
	}
	for j, p := range raw {
		want := []byte{byte(0*10 + j), byte(1*10 + j), byte(2*10 + j)}
		if fmt.Sprint(p.got) != fmt.Sprint(want) {
			t.Fatalf("proc %d got %v, want %v", j, p.got, want)
		}
	}
}

func TestBroadcastHelper(t *testing.T) {
	if sim.Broadcast(3, nil) != nil {
		t.Error("Broadcast(nil) should be nil")
	}
	out := sim.Broadcast(3, []byte{7})
	if len(out) != 3 {
		t.Fatalf("len = %d", len(out))
	}
	for _, p := range out {
		if len(p) != 1 || p[0] != 7 {
			t.Fatalf("payload = %v", p)
		}
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	run := func(parallel bool, rounds, n int) []string {
		raw := make([]*echoProc, n)
		procs := make([]sim.Processor, n)
		for i := range procs {
			raw[i] = &echoProc{id: i, n: n}
			procs[i] = raw[i]
		}
		var opts []fabric.Option
		if parallel {
			opts = append(opts, fabric.WithParallel())
		}
		if _, err := runNetwork(t, procs, rounds, opts...); err != nil {
			t.Fatal(err)
		}
		out := make([]string, n)
		for i, p := range raw {
			out[i] = fmt.Sprint(p.payloads)
		}
		return out
	}
	f := func(roundsRaw, nRaw uint8) bool {
		rounds := 1 + int(roundsRaw)%4
		n := 2 + int(nRaw)%5
		seqRes := run(false, rounds, n)
		parRes := run(true, rounds, n)
		for i := range seqRes {
			if seqRes[i] != parRes[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
