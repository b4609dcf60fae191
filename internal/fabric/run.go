package fabric

import (
	"errors"
	"fmt"
	"sync"

	"shiftgears/internal/obs"
	"shiftgears/internal/sim"
)

// Option configures a Run.
type Option func(*runner)

// WithParallel fans each tick's Outboxes and Deliver calls across one
// goroutine per local node. Schedules and bytes are identical to the
// sequential loop (asserted by tests); only wall-clock changes.
func WithParallel() Option { return func(r *runner) { r.parallel = true } }

// WithTracer installs a flight recorder on the run: tick starts,
// per-link frame batches, and terminal outcomes (diverged / wedged /
// aborted) are emitted to tr. A nil tr is tracing-off — the loop runs
// its untraced instructions (the zero-overhead contract pinned by
// BenchmarkFabricTick's 0 allocs/tick).
func WithTracer(tr obs.Tracer) Option { return func(r *runner) { r.tracer = tr } }

// WithMaxTicks bounds the run (0 = unbounded): a run that exhausts the
// bound stops cleanly with whatever progress it made, and the caller
// inspects each mux's Done. Static schedules pass their known length so
// a wedged node cannot spin the loop past it.
func WithMaxTicks(n int) Option { return func(r *runner) { r.maxTicks = n } }

// WithTickHook installs a callback invoked after each completed tick
// (all deliveries done). A non-nil return stops the run with that error
// after fabric teardown. Drivers use it to surface application-level
// errors promptly and to shape divergence reporting before the runtime's
// generic ErrDiverged fires at the top of the next tick.
func WithTickHook(h func(tick int) error) Option {
	return func(r *runner) { r.hook = h }
}

// WithAdvisoryErrors marks local nodes (by position in the muxes slice)
// whose mux errors are advisory rather than fatal: a fault-injected
// replica's schedule runs shadow state, and its failure must not kill
// the correct nodes' run. An advisory node that errors is muted — its
// outboxes become nil (the Fabric contract's wedged marker) and it stops
// being delivered to or counted toward completion — and the run
// continues; the caller inspects its mux afterwards. Fabrics that cannot
// carry a silent node fail the tick with ErrWedged instead.
func WithAdvisoryErrors(advisory []bool) Option {
	return func(r *runner) { r.advisory = advisory }
}

// runner holds one Run's configuration and reusable per-tick scratch.
type runner struct {
	parallel bool
	maxTicks int
	hook     func(tick int) error
	advisory []bool
	tracer   obs.Tracer
}

// Run is the mux drive loop — the only one: every fabric (in-process,
// chaos, TCP mesh) executes multiplexed schedules through this function.
// It drives one sim.Mux per local node of the fabric in lockstep until
// every (non-muted) mux completes, the tick bound runs out, or an error
// surfaces; on error it closes the fabric (teardown-on-error, so no
// peer is left blocked in the barrier) and returns. Statistics count the
// frames delivered to local nodes, self-delivery included — cluster-wide
// totals on an in-process fabric, this node's traffic on a distributed
// one.
func Run(f Fabric, muxes []*sim.Mux, opts ...Option) (*sim.Stats, error) {
	r := &runner{}
	for _, opt := range opts {
		opt(r)
	}
	local := f.Local()
	n := f.N()
	if len(local) == 0 || len(local) > n {
		return nil, fmt.Errorf("fabric: %d local nodes on a fabric of %d", len(local), n)
	}
	if len(muxes) != len(local) {
		return nil, fmt.Errorf("fabric: %d muxes for %d local nodes", len(muxes), len(local))
	}
	for k, m := range muxes {
		if m == nil {
			return nil, fmt.Errorf("fabric: mux for local node %d is nil", local[k])
		}
		if m.ID() != local[k] {
			return nil, fmt.Errorf("fabric: mux at position %d reports id %d, fabric hosts node %d", k, m.ID(), local[k])
		}
	}
	if r.advisory != nil && len(r.advisory) != len(muxes) {
		return nil, fmt.Errorf("fabric: advisory mask has %d entries for %d muxes", len(r.advisory), len(muxes))
	}

	L := len(local)
	outs := make([][]sim.MuxFrame, L)
	ins := make([][][][]byte, L)
	for k := range ins {
		ins[k] = make([][][]byte, n)
	}
	errs := make([]error, L)
	muted := make([]bool, L)

	var stats sim.Stats
	curTick := 0
	fail := func(err error) (*sim.Stats, error) {
		if r.tracer != nil {
			typ := obs.Aborted
			switch {
			case errors.Is(err, ErrDiverged):
				typ = obs.Diverged
			case errors.Is(err, ErrWedged):
				typ = obs.Wedged
			}
			ev := obs.At(typ, curTick)
			ev.Note = err.Error()
			r.tracer.Emit(ev)
		}
		_ = f.Close()
		return nil, err
	}
	// The per-node halves are built once: closing over the loop state
	// inside the tick would put heap allocations per tick on the hot path.
	prepare := func(k int) {
		if muted[k] {
			outs[k] = nil
			errs[k] = nil
			return
		}
		outs[k], errs[k] = muxes[k].Outboxes()
	}
	deliver := func(k int) {
		if muted[k] {
			errs[k] = nil
			return
		}
		errs[k] = muxes[k].Deliver(ins[k])
	}

	for tick := 1; ; tick++ {
		// Completion and divergence bookkeeping. Under the lockstep
		// contract every non-muted mux finishes on the same tick; a mix of
		// done and running schedules means they diverged (the tick hook,
		// which ran first, may already have shaped a more specific error).
		active, done := 0, 0
		for k, m := range muxes {
			if muted[k] {
				continue
			}
			active++
			if m.Done() {
				done++
			}
		}
		if active == 0 {
			return fail(fmt.Errorf("fabric: every local node wedged: %w", ErrWedged))
		}
		if done == active {
			break
		}
		if done > 0 {
			return fail(fmt.Errorf("fabric: tick %d: %d of %d local nodes finished while the rest still run: %w", tick-1, done, active, ErrDiverged))
		}
		if r.maxTicks > 0 && tick > r.maxTicks {
			break
		}
		curTick = tick
		if r.tracer != nil {
			r.tracer.Emit(obs.At(obs.TickStart, tick))
		}

		// Send half: every local mux prepares its tick's frames. Advisory
		// nodes that fail are muted (nil outboxes from here on); anyone
		// else's failure tears the run down.
		r.forEach(L, prepare)
		for k, err := range errs {
			if err == nil {
				continue
			}
			if r.advisory != nil && r.advisory[k] {
				muted[k] = true
				outs[k] = nil
				continue
			}
			return fail(err)
		}

		// Cross-node frame validation: all live schedules must agree on
		// the tick's active set before anything moves. In-process fabrics
		// route positionally on the strength of this check; a mismatch is
		// a divergent lazy-rounds resolution surfacing at the first
		// possible tick.
		ref := -1
		for k := range muxes {
			if !muted[k] {
				ref = k
				break
			}
		}
		if ref < 0 {
			return fail(fmt.Errorf("fabric: tick %d: every local node wedged: %w", tick, ErrWedged))
		}
		for k := range muxes {
			if muted[k] || k == ref {
				continue
			}
			if len(outs[k]) != len(outs[ref]) {
				return fail(fmt.Errorf("fabric: tick %d: node %d runs %d instances, node %d runs %d: %w",
					tick, local[k], len(outs[k]), local[ref], len(outs[ref]), ErrDiverged))
			}
			for fi := range outs[k] {
				a, b := outs[k][fi], outs[ref][fi]
				if a.Instance != b.Instance || a.Round != b.Round {
					return fail(fmt.Errorf("fabric: tick %d: node %d frame %d is (instance %d, round %d), node %d has (instance %d, round %d): %w",
						tick, local[k], fi, a.Instance, a.Round, local[ref], b.Instance, b.Round, ErrDiverged))
				}
			}
		}
		frames := len(outs[ref])

		// Barrier: the fabric moves the frames and fills every local
		// node's inboxes (scratch reused across ticks).
		for k := range ins {
			for i := range ins[k] {
				ins[k][i] = growSlots(ins[k][i], frames)
			}
		}
		if err := f.Exchange(tick, outs, ins); err != nil {
			return fail(err)
		}

		// Traffic accounting over what local nodes received. The per-link
		// counters ride the same pass; with a tracer installed each live
		// link (sender i → local node k) emits one FrameBatch per tick —
		// the fabric-uniform traffic trail (identical shape on sim, mem,
		// and TCP, because it is measured here, not in the fabrics).
		for k := range ins {
			if muted[k] {
				continue
			}
			for i := range ins[k] {
				linkFrames, linkBytes := 0, 0
				for _, p := range ins[k][i] {
					if p == nil {
						continue
					}
					linkFrames++
					linkBytes += len(p)
					if len(p) > stats.MaxPayload {
						stats.MaxPayload = len(p)
					}
				}
				stats.Messages += linkFrames
				stats.Bytes += linkBytes
				if linkFrames > 0 && r.tracer != nil {
					ev := obs.At(obs.FrameBatch, tick)
					ev.From, ev.To = i, local[k]
					ev.Frames, ev.Bytes = linkFrames, linkBytes
					r.tracer.Emit(ev)
				}
			}
		}

		// Receive half: deliver the complete tick, advance local rounds.
		r.forEach(L, deliver)
		for k, err := range errs {
			if err == nil {
				continue
			}
			if r.advisory != nil && r.advisory[k] {
				muted[k] = true
				continue
			}
			return fail(err)
		}

		stats.Rounds = tick

		if r.hook != nil {
			if err := r.hook(tick); err != nil {
				return fail(err)
			}
		}
	}
	return &stats, nil
}

// RunRounds drives a single-shot run — one sim.Processor per local node
// for a fixed number of rounds — through Run, as a one-instance, window-1
// schedule per node: tick r is every processor's round r. procs[k] must
// be local node Local()[k].
func RunRounds(f Fabric, procs []sim.Processor, rounds int, opts ...Option) (*sim.Stats, error) {
	local := f.Local()
	if len(procs) != len(local) {
		return nil, fmt.Errorf("fabric: %d processors for %d local nodes", len(procs), len(local))
	}
	muxes := make([]*sim.Mux, len(procs))
	for k, p := range procs {
		if p == nil || p.ID() != local[k] {
			return nil, fmt.Errorf("fabric: processor at position %d is not local node %d", k, local[k])
		}
		m, err := sim.NewMux(sim.MuxConfig{
			ID: local[k], N: f.N(), Window: 1, Rounds: []int{rounds},
			Start: func(int) (sim.Instance, error) { return p, nil },
		})
		if err != nil {
			return nil, err
		}
		muxes[k] = m
	}
	return Run(f, muxes, opts...)
}

// forEach applies fn to 0..l-1, concurrently under WithParallel. fn must
// touch only its own slot's state.
func (r *runner) forEach(l int, fn func(k int)) {
	if !r.parallel || l == 1 {
		for k := 0; k < l; k++ {
			fn(k)
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(l)
	for k := 0; k < l; k++ {
		go func(k int) {
			defer wg.Done()
			fn(k)
		}(k)
	}
	wg.Wait()
}

// growSlots reslices s to length n, keeping its backing array so the
// per-tick inbox matrices stay allocation-free at steady state.
func growSlots(s [][]byte, n int) [][]byte {
	if cap(s) < n {
		return make([][]byte, n)
	}
	return s[:n]
}
