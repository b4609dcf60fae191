// Package sim provides the synchronous system model of the paper's
// Section 2: n processors on a fully reliable, complete network, computing
// in lockstep rounds, where every correct processor can identify the sender
// of each message it receives (ids are positions in the inbox).
//
// The package holds the model's vocabulary — Processor, the per-node
// instance multiplexer Mux, and traffic Stats — but no drive loop: every
// schedule, a single-shot run (fabric.RunRounds) as much as a pipelined
// log, is driven in lockstep by internal/fabric.Run over some fabric.
package sim

// Processor is one participant in the synchronous protocol. Implementations
// must not retain or mutate the inbox slices they are handed; payloads may
// be shared between receivers (the network is reliable, so one broadcast
// buffer serves all destinations).
type Processor interface {
	// ID returns the processor's identifier in [0, n).
	ID() int
	// PrepareRound returns the payloads the processor sends in the given
	// round (1-based): element j is the payload delivered to processor j,
	// nil meaning no message. A nil outbox means no messages at all.
	// A correct processor broadcasts, i.e. uses one payload for every
	// destination; only faulty processors send diverging payloads.
	PrepareRound(round int) [][]byte
	// DeliverRound hands the processor everything sent to it this round:
	// inbox[i] is the payload from processor i (nil if i sent nothing).
	DeliverRound(round int, inbox [][]byte)
}

// Stats aggregates message traffic over a run.
type Stats struct {
	Rounds     int
	Messages   int
	Bytes      int
	MaxPayload int
}

// Broadcast builds an outbox that sends the same payload to all n
// destinations (the behavior of a correct processor).
func Broadcast(n int, payload []byte) [][]byte {
	if payload == nil {
		return nil
	}
	out := make([][]byte, n)
	for j := range out {
		out[j] = payload
	}
	return out
}
