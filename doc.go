// Package shiftgears is a full Go reproduction of Bar-Noy, Dolev, Dwork,
// and Strong, "Shifting Gears: Changing Algorithms on the Fly to Expedite
// Byzantine Agreement" (PODC 1987; Information and Computation 97, 1992).
//
// The package runs synchronous Byzantine agreement among n processors, up
// to t of which behave arbitrarily, using any of the paper's algorithms:
//
//   - Exponential: information gathering with recursive majority voting
//     (Section 3) — t+1 rounds, exponential messages, n ≥ 3t+1.
//   - AlgorithmA: the Theorem 2 family — rounds t+2+2⌊(t−1)/(b−2)⌋,
//     messages O(n^b), n ≥ 3t+1.
//   - AlgorithmB: the Theorem 3 family — rounds t+1+⌊(t−1)/(b−1)⌋,
//     messages O(n^b), n ≥ 4t+1.
//   - AlgorithmC: the Dolev–Reischuk–Strong adaptation (Theorem 4) —
//     t+1 rounds, O(n) messages, t ≤ ⌊√(n/2)⌋.
//   - Hybrid: the Main Theorem — starts in A, shifts mid-execution into B
//     and then into C, tolerating ⌊(n−1)/3⌋ faults at near-optimal rounds.
//   - PSL: the original Pease–Shostak–Lamport oral-messages baseline.
//   - PhaseQueen: the Berman–Garay–Perry style constant-message-size
//     protocol referenced by the paper's Section 5.
//
// A minimal run:
//
//	res, err := shiftgears.Run(shiftgears.Config{
//		Algorithm:   shiftgears.Hybrid,
//		N:           13,
//		T:           4,
//		B:           3,
//		SourceValue: 1,
//		Faulty:      []int{2, 5, 7, 11},
//		Strategy:    "splitbrain",
//	})
//
// The Result reports every processor's decision, whether agreement and
// validity held, exact round counts against the paper's bounds, message
// sizes, and the fault-discovery timeline. A single run is a
// one-instance, window-1 schedule per processor driven by the same loop
// as the replicated log below (fabric.RunRounds over fabric.Run).
//
// # Multi-shot agreement: the replicated log
//
// Beyond single instances, the package serves streams of agreement as a
// replicated state machine (internal/rsm): a log of slots, each slot one
// agreement on a batch of client commands under a rotating source,
// pipelined over a shared synchronous network. Any of the algorithms
// above can run any slot:
//
//	rlog, err := shiftgears.NewReplicatedLog(shiftgears.LogConfig{
//		Algorithm: shiftgears.Exponential,
//		N:         7, T: 2,
//		Slots: 14, Window: 4, BatchSize: 3,
//		Faulty: []int{2, 5},
//	})
//	rlog.Submit(0, cmd) // queue a command at replica 0
//	res, err := rlog.Run()
//
// Window pipelines that many slots concurrently (sim.Mux multiplexes
// them over one network; over TCP, the frame header's instance id lets
// one mesh carry the whole pipeline) and BatchSize amortizes each slot's
// rounds over several commands, so throughput in commands per round
// scales with both knobs. Every correct replica commits an identical log
// even when slot sources are Byzantine. cmd/logserver deploys one
// replica per process; cmd/logload generates synthetic load and reports
// throughput; cmd/bench records the full throughput matrix as a
// BENCH_*.json trajectory file.
//
// # Many logs, one universe
//
// A single log totalizes — every command crosses every replica — so its
// throughput ceiling is one pipeline's commits per tick. MultiLog
// partitions the command space across K independent gear-shifted logs
// (internal/shard) and drives them concurrently, scaling aggregate
// commits per tick linearly in K (the bench matrix's sharded cases
// record 4.0x at K=4 on both the sim and tcp fabrics, with K=1 pricing
// exactly like the plain log). The partition itself needs no agreement:
// a pure seeded hash (ShardFunc, default splitmix64) maps each command
// to its shard, so every client and every replica computes the same
// assignment locally — the same move King and Saia's committee-sampling
// line uses to break the O(n²) bit barrier, where a shared seed replaces
// coordination about who handles what. Each shard keeps its own fabric,
// gear policy, window, and batch (MultiLogConfig.PerShard); trace events
// carry their shard id; and cross-shard ordering, when one command must
// be sequenced against shards it does not live on, is an explicit
// opt-in: SubmitMulti routes the command to a meta-shard whose
// completion fences the shards owning its keys (MultiLogConfig.Barrier).
//
// # One mux, many fabrics
//
// The pipeline runs over interchangeable substrates behind a single
// drive loop. internal/fabric splits the responsibilities:
//
//   - The runtime (fabric.Run) owns everything schedule-shaped: window
//     advance and lazy gear resolution through sim.Mux.Outboxes and
//     Deliver, cross-node frame validation, completion and divergence
//     detection, teardown on error, traffic statistics, and the
//     reusable per-tick scratch that keeps the hot path
//     allocation-free. It is the only drive loop in the tree: single-shot
//     runs enter it through fabric.RunRounds.
//   - A fabric (the fabric.Fabric interface) owns one tick's message
//     motion: given every hosted node's frames it fills every hosted
//     node's inboxes and returns — the lockstep barrier. Ordering
//     within the tick is fabric business and must be invisible;
//     positional delivery, error promptness, and never deadlocking on a
//     partial failure are the fabric's obligations.
//
// Three fabrics ship: fabric.Sim (the in-process router — zero-copy
// positional routing, the reference behavior), fabric.Mem (Sim plus a
// deterministic, seeded per-link fault plan: drops and late frames on
// victim links, partitions that heal, crash windows, plus
// within-bound delay and reordering that the barrier must provably
// absorb), and transport.Mesh (a real TCP mesh — every node of the
// cluster over loopback via NewMesh, or one node per OS process via
// JoinMesh, which is how cmd/logserver deploys). Writing a new fabric
// means implementing four methods; the drive loop, gear shifting,
// abort semantics, and statistics come for free. LogConfig.Fabric
// ("sim", "mem", "tcp") and LogConfig.Chaos select the substrate at the
// public API; a zero-fault mem run is byte-identical to sim (asserted
// by the fabric-equivalence property test).
//
// # Ordering on the concurrent TCP exchange
//
// The TCP path (the Mesh fabric's per-tick exchange) overlaps its send
// and receive halves: one writer goroutine per peer pushes the tick's
// frames while the node's reader collects, so the mesh cannot deadlock
// when a tick's payload exceeds the kernel socket buffers. The bytes are
// unchanged: within a tick each peer connection carries the frames in
// increasing instance order with a single flush, and tick t's writes
// complete before tick t+1's begin, so receivers read exactly the
// sequential loop's stream — only the interleaving across connections
// differs. The lockstep barrier (finish tick t only once every peer's
// tick-t frames arrived) is untouched.
//
// # Wire hot path
//
// The TCP exchange moves a tick without per-frame heap work, resting on
// one ownership rule that holds across the whole stack: a payload is
// valid for exactly one tick. Outbound, each writer goroutine packs its
// peer's frame headers into a contiguous scratch, points a net.Buffers
// at the headers and the payload slices in place, and issues the whole
// tick as a single vectored write (writev) — one syscall per peer per
// tick, no assembly buffer, and the one-flush-per-peer guarantee above
// becomes structural rather than a Flush discipline. Inbound, each peer
// connection owns a read arena: the reader slices every payload of the
// tick out of it and rewinds it at the next tick's start. When a tick
// outgrows the arena, a larger block is installed without copying — the
// already-handed-out payloads keep referencing the old block, which
// stays intact until the rewind.
//
// Consumers therefore must use or copy an inbound payload within the
// tick that delivered it; that is the same contract the sim.Processor
// interface already imposes (sim's router hands instances its own
// per-tick scratch) and the encode side mirrors (rsm slot payloads
// slice into per-slot arenas reset every PrepareRound). Retaining a
// payload across ticks is a use-after-rewind and shows up under the
// race detector: the reader goroutine overwrites the arena while the
// retainer reads it (see TestReplicatedLogTCPWorkersArenaLifetime).
// The one-tick rule is also enforced statically, and
// inter-procedurally: the arenalifetime analyzer in cmd/gearsvet seeds
// the payload parameters of the Exchange/Deliver/DeliverRound entry
// points and follows them through per-function escape summaries
// (internal/analysis/summary) that each vet unit exports as facts in
// its .vetx file — so a payload handed to a helper that stores it in a
// field is flagged at the entry point's call site, even when the
// helper lives in another package. Stores the engine proves
// within-tick (documented holders, fields reset at the top of the
// function, scratch refilled in place, sends on channels whose
// receivers finish with the value inside the tick) are exempt; prefer
// restructuring toward one of those proofs over adding a
// //gearsvet:allow, because a proof tracks the code and an annotation
// goes stale silently.
// Everything above the fabrics pools the rest of a slot's footprint —
// consensus instances (core.Env.GetReplica/Release), their trees and
// fault lists, and the codec scratch — so steady-state ticks on every
// fabric run within a few hundred allocations at n=7 (see the README's
// Performance section and cmd/bench's -guard gate).
//
// # Concurrency contract of the fabric layer
//
// The transport and fabric packages are the only place the tree spawns
// goroutines on the data path, and they do it under one discipline:
// every goroutine has a bounded join visible in its package (a
// Wait()ed sync.WaitGroup, a worker loop ranging over a channel the
// package closes, or a result send the package receives), a channel
// send issued inside a per-tick loop is either a select comm clause or
// aimed at a channel the package demonstrably drains, and no teardown
// path sends on a channel while holding a lock. Each rule is the
// static shadow of a failure the wire layer has actually hit — the
// distributed flush deadlock that motivated the per-peer writer pool,
// and the lock-across-send teardown hang its first implementation
// risked. The fabricconc analyzer in cmd/gearsvet enforces all three
// (go vet -vettool, see internal/analysis/fabricconc).
//
// # Gear policies: shifting algorithms across the log
//
// A LogConfig.GearPolicy makes the per-slot algorithm a runtime
// decision: each slot's gear is picked when the slot enters the pipeline
// window, as a function of the committed prefix at that tick. Downshift
// starts in a high gear and drops to a cheaper one once committed
// entries evidence enough faulty sources; Blacklist gives sources
// convicted by the prefix (a sourced slot committed all no-ops despite a
// saturated workload) one-round NoOpSlot slots thereafter.
//
// The determinism contract: Pick must be pure in (slot, source, prefix).
// Correct replicas hold identical committed prefixes at a slot's start
// tick under the lockstep schedule, so a pure policy produces the same
// gear schedule on every correct replica; an impure or replica-dependent
// policy diverges and is surfaced, never masked: the fabric runtime
// compares the hosted schedules every tick and stops with a
// schedule-divergence error, and in a multi-process mesh — where no
// runtime sees more than its own schedule — the wire-level frame
// instance/round mismatch check catches it instead. The contract is
// also enforced statically: the gearsdeterminism analyzer in
// cmd/gearsvet flags wall-clock reads, unproven PRNG seeds, escaping
// map-iteration order, and global mutable state anywhere in the
// library packages (go vet -vettool, see
// internal/analysis/gearsdeterminism).
//
// # The flight recorder
//
// LogConfig.Tracer installs zero-overhead event tracing over the whole
// stack: the drive runtime's ticks and per-link frame batches, every
// replica's slot openings, gear resolutions, and commits, terminal
// outcomes, and — on the mem fabric — every seeded fault decision
// (drops, late frames, delays, partition cuts, crash windows) keyed by
// (tick, link, instance) so a trace replays against its chaos plan
// decision for decision (cmd/tracecheck automates the audit). Sinks
// compose through TraceTee: TraceRing retains recent history, TraceJSONL
// streams to disk, TraceMetrics counts in O(1) space and feeds the live
// HTTP surface (NewDebugHandler: Prometheus-text /metrics, expvar,
// pprof, and a human-readable /debug/gears). Derived from the same
// stream, every LogResult carries submit→commit latency percentiles in
// ticks (LogResult.Latency), measured at each command's source replica
// and merged across the correct ones.
//
// The zero-overhead contract: a nil Tracer is tracing off, and off means
// off — every emission site is guarded by a nil check on a plain struct
// field, events are flat values passed without boxing, and the drive
// loop's hot path stays at zero allocations per tick (enforced by
// BenchmarkFabricTick and the CI alloc guard). With a tracer installed,
// the run's observable behavior must not change: committed logs, gear
// schedules, tick counts, traffic totals, and fault decisions are
// byte-identical to the untraced run (enforced by the tracer
// zero-interference property test across all three fabrics). The
// guard discipline is also enforced statically: the zeroalloc analyzer
// in cmd/gearsvet flags unguarded tracer emissions and per-tick
// allocation idioms in the hot-path packages (go vet -vettool, see
// internal/analysis/zeroalloc).
package shiftgears
