// Instance-multiplexed execution: one fabric drives many concurrent
// protocol instances. The Mux schedules instances with a pipelining
// window — at every global tick the first `window` unfinished instances
// each advance one local round — exposing the tick as Outboxes (one
// MuxFrame per active instance, tagged with instance id and local round)
// and Deliver (the per-instance inbox matrix). The drive loop lives in
// internal/fabric.Run, written once for every substrate; over TCP each
// frame's (instance, round) tag rides in the wire header (one frame per
// instance per tick). The schedule is a pure function of the instance
// round counts and the window, so every correct node runs instances in
// lockstep without coordination.
package sim

import (
	"fmt"
	"sync"
	"sync/atomic"

	"shiftgears/internal/obs"
)

// Instance is one multiplexed sub-protocol: a processor-like participant
// that runs for a fixed number of local rounds. Every sim.Processor is an
// Instance.
type Instance interface {
	// PrepareRound returns the instance's outbox for its local round
	// (1-based): nil, or one payload per destination as in Processor.
	PrepareRound(round int) [][]byte
	// DeliverRound hands the instance its local round's inbox.
	DeliverRound(round int, inbox [][]byte)
}

// MuxConfig describes a processor's multiplexed schedule.
type MuxConfig struct {
	// ID is this processor's id; N the processor count.
	ID, N int
	// Window is the maximum number of concurrently running instances
	// (1 = strictly sequential execution).
	Window int
	// Rounds holds every instance's local round count, indexed by instance
	// id; its length is the total instance count. All processors must use
	// identical Rounds and Window or the lockstep schedules diverge.
	// Exactly one of Rounds and RoundsFor must be set.
	Rounds []int
	// RoundsFor resolves an instance's local round count lazily, when the
	// instance enters the window — the gear-shifting hook: the count may
	// depend on state established by already-finished instances (e.g. a
	// replicated log's committed prefix). It must return ≥ 1 and must be
	// the same pure function on every node, or the lockstep schedules
	// diverge: over TCP the mesh fails fast with the frame instance/round
	// mismatch error; in sim mode the drive loop stops with a divergence
	// error when one node's schedule finishes before another's.
	RoundsFor func(instance int) int
	// Instances is the total instance count when RoundsFor is set; ignored
	// with Rounds (len(Rounds) is the count).
	Instances int
	// Start lazily constructs an instance when it enters the window. A
	// late construction point lets instances capture state (e.g. a command
	// queue) at their scheduled start rather than at setup time.
	Start func(instance int) (Instance, error)
	// Finish, if non-nil, is invoked when an instance completes its last
	// round (before any later instance starts).
	Finish func(instance int)
	// Tracer, if non-nil, receives the mux's schedule events: SlotOpen
	// when an instance enters the window (its resolved round count in
	// hand) and WindowAdvance when it retires. Nil means tracing off —
	// the schedule runs its untraced instructions.
	Tracer obs.Tracer
	// Workers bounds the worker pool that fans the per-instance
	// PrepareRound/DeliverRound calls of a tick across goroutines (0 or 1
	// = sequential). Instances are independent — the schedule, ordering
	// callbacks (Start, Finish), and the wire format stay strictly
	// sequential — so parallelism here changes wall-clock only, never
	// bytes. It pays only when the per-instance round work is heavy
	// enough to amortize the per-tick goroutine coordination (wide
	// windows of expensive protocol computation); for light instances the
	// sequential loop is faster — measure with cmd/benchmark before
	// turning it on.
	Workers int
}

// running is one in-flight instance.
type running struct {
	inst   int
	round  int // current local round, 1-based
	rounds int // total local rounds (static or lazily resolved)
	proc   Instance
	out    [][]byte // outbox for the current tick (nil = silent)
}

// MuxFrame is one active instance's contribution to a tick.
type MuxFrame struct {
	Instance int
	Round    int // local round, 1-based
	// Outbox is nil (silent) or has one payload per destination.
	Outbox [][]byte
}

// Mux multiplexes instances over a single node's synchronous stream,
// exposing each tick as Outboxes (frames out) and Deliver (inboxes in)
// for the fabric drive loop.
type Mux struct {
	cfg       MuxConfig
	instances int // total instance count
	next      int // next instance id not yet started
	active    []*running
	ticks     int
	prepared  bool
	err       error

	// Per-tick scratch, owned by the Mux and reused across ticks so the
	// hot path stays allocation-free at steady state. Receivers must not
	// retain payloads past their DeliverRound (the sim.Processor
	// contract), which is exactly what makes the reuse sound. The two
	// worker callbacks are built once here: closing over the Mux inside
	// the tick would put one heap allocation per tick on the hot path.
	frames    []MuxFrame // Outboxes result
	inboxes   [][][]byte // Deliver scratch, one inbox per active slot
	free      []*running // retired running headers, reused by fill
	prepareFn func(k int, ru *running)
	deliverFn func(k int, ru *running)
}

// NewMux validates the configuration and builds the multiplexer.
func NewMux(cfg MuxConfig) (*Mux, error) {
	if cfg.ID < 0 || cfg.ID >= cfg.N || cfg.N < 2 {
		return nil, fmt.Errorf("sim: mux id/n out of range: %d/%d", cfg.ID, cfg.N)
	}
	if cfg.Window < 1 {
		return nil, fmt.Errorf("sim: mux window %d must be ≥ 1", cfg.Window)
	}
	instances := len(cfg.Rounds)
	if cfg.RoundsFor != nil {
		if cfg.Rounds != nil {
			return nil, fmt.Errorf("sim: mux takes Rounds or RoundsFor, not both")
		}
		instances = cfg.Instances
	}
	if instances < 1 {
		return nil, fmt.Errorf("sim: mux needs at least one instance")
	}
	for inst, r := range cfg.Rounds {
		if r < 1 {
			return nil, fmt.Errorf("sim: instance %d has round count %d, want ≥ 1", inst, r)
		}
	}
	if cfg.Start == nil {
		return nil, fmt.Errorf("sim: mux needs a Start factory")
	}
	if cfg.Workers < 0 {
		return nil, fmt.Errorf("sim: mux worker count %d must be ≥ 0", cfg.Workers)
	}
	m := &Mux{cfg: cfg, instances: instances}
	m.prepareFn = func(k int, ru *running) { ru.out = ru.proc.PrepareRound(ru.round) }
	m.deliverFn = func(k int, ru *running) { ru.proc.DeliverRound(ru.round, m.inboxes[k]) }
	return m, nil
}

// forEachActive applies fn to every active instance: sequentially, or —
// with Workers > 1 — fanned across a bounded pool of goroutines pulling
// slots from a shared counter. fn must touch only its own slot's state.
func (m *Mux) forEachActive(fn func(k int, ru *running)) {
	workers := m.cfg.Workers
	if workers > len(m.active) {
		workers = len(m.active)
	}
	if workers <= 1 {
		for k, ru := range m.active {
			fn(k, ru)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(m.active) {
					return
				}
				fn(k, m.active[k])
			}
		}()
	}
	wg.Wait()
}

// MuxTicks returns the number of global ticks the greedy window schedule
// needs: at every tick the first `window` unfinished instances advance one
// round. With S equal-length instances of R rounds and window W this is
// R·⌈S/W⌉ versus the sequential S·R.
func MuxTicks(rounds []int, window int) int {
	if window < 1 {
		return 0
	}
	var active []int
	next, ticks := 0, 0
	for next < len(rounds) || len(active) > 0 {
		for len(active) < window && next < len(rounds) {
			active = append(active, rounds[next])
			next++
		}
		ticks++
		keep := active[:0]
		for _, left := range active {
			if left > 1 {
				keep = append(keep, left-1)
			}
		}
		active = keep
	}
	return ticks
}

// ID returns the node id the mux schedules for.
func (m *Mux) ID() int { return m.cfg.ID }

// Ticks returns the number of completed global ticks.
func (m *Mux) Ticks() int { return m.ticks }

// TotalTicks returns the tick count the full schedule needs, or 0 when
// round counts resolve lazily (the schedule is not known up front; drive
// the mux until Done instead).
func (m *Mux) TotalTicks() int {
	if m.cfg.RoundsFor != nil {
		return 0
	}
	return MuxTicks(m.cfg.Rounds, m.cfg.Window)
}

// Done reports whether every instance has completed.
func (m *Mux) Done() bool { return m.next == m.instances && len(m.active) == 0 }

// Err returns the first schedule or instance-construction error.
func (m *Mux) Err() error { return m.err }

// fill starts instances until the window is full or none remain. With
// RoundsFor, an instance's round count is resolved here — at the moment
// the instance enters the window, before its factory runs.
func (m *Mux) fill() error {
	for len(m.active) < m.cfg.Window && m.next < m.instances {
		var rounds int
		if m.cfg.RoundsFor != nil {
			rounds = m.cfg.RoundsFor(m.next)
			if rounds < 1 {
				return fmt.Errorf("sim: instance %d resolved round count %d, want ≥ 1", m.next, rounds)
			}
		} else {
			rounds = m.cfg.Rounds[m.next]
		}
		proc, err := m.cfg.Start(m.next)
		if err != nil {
			return fmt.Errorf("sim: start instance %d: %w", m.next, err)
		}
		if m.cfg.Tracer != nil {
			ev := obs.At(obs.SlotOpen, m.ticks+1)
			ev.Node, ev.Slot, ev.Round = m.cfg.ID, m.next, rounds
			m.cfg.Tracer.Emit(ev)
		}
		ru := &running{}
		if n := len(m.free); n > 0 {
			ru = m.free[n-1]
			m.free = m.free[:n-1]
		}
		*ru = running{inst: m.next, round: 1, rounds: rounds, proc: proc}
		m.active = append(m.active, ru)
		m.next++
	}
	return nil
}

// Outboxes begins a tick: it fills the window (lazily constructing
// instances) and prepares every active instance's outbox. Frames are in
// increasing instance order — the canonical wire order. The returned
// slice is scratch owned by the Mux, valid until the next Outboxes call
// (drivers finish a tick — including any concurrent sends — before
// beginning the next, so the reuse is invisible to them).
func (m *Mux) Outboxes() ([]MuxFrame, error) {
	if m.err != nil {
		return nil, m.err
	}
	if m.prepared {
		return nil, m.fail(fmt.Errorf("sim: Outboxes called twice in tick %d", m.ticks+1))
	}
	if err := m.fill(); err != nil {
		return nil, m.fail(err)
	}
	if len(m.active) == 0 {
		return nil, m.fail(fmt.Errorf("sim: mux is done after %d ticks", m.ticks))
	}
	m.forEachActive(m.prepareFn)
	if cap(m.frames) < len(m.active) {
		m.frames = make([]MuxFrame, len(m.active))
	}
	frames := m.frames[:len(m.active)]
	for k, ru := range m.active {
		if ru.out != nil && len(ru.out) != m.cfg.N {
			return nil, m.fail(fmt.Errorf("sim: instance %d round %d: outbox has %d entries, want %d", ru.inst, ru.round, len(ru.out), m.cfg.N))
		}
		frames[k] = MuxFrame{Instance: ru.inst, Round: ru.round, Outbox: ru.out}
	}
	m.prepared = true
	return frames, nil
}

// Deliver completes a tick: in[sender][k] is the payload sender addressed
// to the k-th active instance (in Outboxes order); in[sender] may be nil
// when the sender was silent everywhere. It routes every instance's inbox,
// advances local rounds, and retires finished instances.
func (m *Mux) Deliver(in [][][]byte) error {
	if m.err != nil {
		return m.err
	}
	if !m.prepared {
		return m.fail(fmt.Errorf("sim: Deliver without Outboxes in tick %d", m.ticks+1))
	}
	if len(in) != m.cfg.N {
		return m.fail(fmt.Errorf("sim: Deliver got %d senders, want %d", len(in), m.cfg.N))
	}
	for i, payloads := range in {
		if payloads != nil && len(payloads) != len(m.active) {
			return m.fail(fmt.Errorf("sim: sender %d delivered %d instance payloads, want %d", i, len(payloads), len(m.active)))
		}
	}
	if len(m.inboxes) < len(m.active) {
		grown := make([][][]byte, len(m.active))
		copy(grown, m.inboxes)
		m.inboxes = grown
	}
	for k := range m.active {
		if len(m.inboxes[k]) != m.cfg.N {
			m.inboxes[k] = make([][]byte, m.cfg.N)
		}
		inbox := m.inboxes[k]
		for i, payloads := range in {
			if payloads != nil {
				inbox[i] = payloads[k]
			} else {
				inbox[i] = nil
			}
		}
	}
	m.forEachActive(m.deliverFn)

	// Advance: bump local rounds, retire finished instances in order.
	keep := m.active[:0]
	for _, ru := range m.active {
		ru.round++
		ru.out = nil
		if ru.round > ru.rounds {
			if m.cfg.Finish != nil {
				m.cfg.Finish(ru.inst)
			}
			if m.cfg.Tracer != nil {
				ev := obs.At(obs.WindowAdvance, m.ticks+1)
				ev.Node, ev.Slot, ev.Round = m.cfg.ID, ru.inst, ru.rounds
				m.cfg.Tracer.Emit(ev)
			}
			ru.proc = nil // release the instance; the header is recycled
			m.free = append(m.free, ru)
			continue
		}
		keep = append(keep, ru)
	}
	m.active = keep
	m.ticks++
	m.prepared = false
	return nil
}

func (m *Mux) fail(err error) error {
	if m.err == nil {
		m.err = err
	}
	return err
}
