package transport

import (
	"encoding/binary"
	"fmt"
	"net"

	"shiftgears/internal/sim"
)

// sendJob is one tick's worth of frames for one peer: the writer
// assembles every frame into a single vectored write, so each peer
// connection carries one coalesced burst per tick. tick labels the job so
// a mid-tick send failure reports with tick context on its own, without
// waiting for exchange to wrap it.
type sendJob struct {
	tick   int
	frames []sim.MuxFrame
	peer   int
}

// writerPool runs one persistent writer goroutine per remote peer so the
// send and receive halves of a tick overlap. The old drive loop wrote all
// frames to every peer before reading any; once a tick's payload outgrew
// the kernel socket buffers every node of the mesh blocked in Flush while
// its peers blocked in Flush — a distributed deadlock the lockstep
// barrier could never escape. With per-peer writers each node's reads
// drain its peers' sockets while its own writes are in flight, so the
// cycle cannot form: a reader blocked on peer p waits only for p's
// dedicated writer, which writes regardless of what p's other
// connections are doing.
//
// Ordering guarantee: within a tick, frames to one peer are written in
// increasing instance order as one net.Buffers (writev) burst; across
// ticks, tick t's writes complete (wait returns) before tick t+1's are
// dispatched. Each connection therefore carries exactly the byte stream
// of the sequential loop — receivers still read frames in instance
// order, tick by tick — only the interleaving across connections
// changed.
type writerPool struct {
	nd   *Node
	jobs []chan sendJob // per peer; nil at self
	errs []chan error   // per peer, cap 1; nil at self
}

func newWriterPool(nd *Node) *writerPool {
	wp := &writerPool{
		nd:   nd,
		jobs: make([]chan sendJob, nd.n),
		errs: make([]chan error, nd.n),
	}
	for id, p := range nd.peers {
		if id == nd.id {
			continue
		}
		jobs := make(chan sendJob)
		errs := make(chan error, 1)
		wp.jobs[id], wp.errs[id] = jobs, errs
		go func(p *peer) {
			var w meshWriter // per-goroutine scratch, reused every tick
			for job := range jobs {
				errs <- w.send(p, job)
			}
		}(p)
	}
	return wp
}

// meshWriter is one writer goroutine's reusable scratch: the header bytes
// of a tick's frames packed contiguously, the vector of header/payload
// slices, and the net.Buffers view handed to writev. vecs keeps the
// backing array across sends — WriteTo consumes the Buffers it is called
// on (reslicing it forward as iovecs drain), which would otherwise leak
// the array's prefix every tick. All three are grow-only, so steady state
// assembles and issues a whole tick with zero allocations and a single
// writev call.
type meshWriter struct {
	hdr  []byte
	vecs [][]byte
	bufs net.Buffers
}

// send writes one tick's frames to one peer as a single vectored write.
// Headers are appended to the contiguous hdr scratch (capacity ensured up
// front, so the subslices handed to net.Buffers stay valid) and payloads
// are referenced in place — no per-frame copy, no intermediate buffer.
func (w *meshWriter) send(p *peer, job sendJob) error {
	need := len(job.frames) * 3 * binary.MaxVarintLen64
	if cap(w.hdr) < need {
		w.hdr = make([]byte, 0, need)
	}
	w.hdr = w.hdr[:0]
	vecs := w.vecs[:0]
	for _, f := range job.frames {
		var payload []byte
		if f.Outbox != nil {
			payload = f.Outbox[job.peer]
		}
		start := len(w.hdr)
		w.hdr = binary.AppendUvarint(w.hdr, uint64(f.Instance))
		w.hdr = binary.AppendUvarint(w.hdr, uint64(f.Round))
		ln := uint64(0)
		if payload != nil {
			ln = uint64(len(payload)) + 1
		}
		w.hdr = binary.AppendUvarint(w.hdr, ln)
		vecs = append(vecs, w.hdr[start:len(w.hdr):len(w.hdr)])
		if len(payload) > 0 {
			vecs = append(vecs, payload)
		}
	}
	w.vecs = vecs
	// WriteTo must go through the struct field: calling it on a local
	// net.Buffers forces the slice header to escape (pointer receiver),
	// one heap box per send.
	w.bufs = net.Buffers(vecs)
	if _, err := w.bufs.WriteTo(p.conn); err != nil {
		return fmt.Errorf("tick %d: send to %d: %w", job.tick, job.peer, err)
	}
	return nil
}

// dispatch hands every writer its tick's frames. The job channels are
// unbuffered, but each writer is guaranteed idle here: wait consumed its
// previous error before the caller dispatched again.
func (wp *writerPool) dispatch(tick int, frames []sim.MuxFrame) {
	for id, jobs := range wp.jobs {
		if jobs != nil {
			jobs <- sendJob{tick: tick, frames: frames, peer: id}
		}
	}
}

// wait joins the tick: it collects every writer's result and returns the
// first failure.
func (wp *writerPool) wait() error {
	var first error
	for _, errs := range wp.errs {
		if errs == nil {
			continue
		}
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// close stops the writers. Any writer still mid-tick parks its result in
// its buffered error channel and exits; none can leak.
func (wp *writerPool) close() {
	for _, jobs := range wp.jobs {
		if jobs != nil {
			close(jobs)
		}
	}
}

// abortTick unblocks the tick after a read failure: a writer may be stuck
// in its vectored write toward a peer that stopped reading (mesh going
// down in the large-payload regime), and joining it would hang this node
// forever — with the cluster teardown that would free it only firing once
// this node returns its error. Closing the peer connections fails those
// writes promptly, so wait() is guaranteed to return.
func (wp *writerPool) abortTick() {
	for _, p := range wp.nd.peers {
		if p != nil {
			_ = p.conn.Close()
		}
	}
}

// exchange runs one tick's overlapped halves: it hands the writers the
// tick's frames, runs the read half concurrently in this goroutine, and
// joins the writers — tearing the connections down first when the read
// half failed, so the join cannot hang on a writer blocked mid-write
// toward a peer that stopped reading. The read error wins (it usually
// names the root cause: the mesh going down); send errors already carry
// the tick label from the writer itself.
func (wp *writerPool) exchange(tick int, frames []sim.MuxFrame, read func() error) error {
	wp.dispatch(tick, frames)
	readErr := read()
	if readErr != nil {
		wp.abortTick()
	}
	sendErr := wp.wait()
	if readErr != nil {
		return readErr
	}
	if sendErr != nil {
		return fmt.Errorf("transport: %w", sendErr)
	}
	return nil
}

// exchangeTick runs one lockstep tick of a multiplexed schedule over the
// mesh: the writers push one frame per active instance to every peer —
// each frame carrying its instance id and local round in the header, so
// one TCP mesh pipelines many concurrent agreement instances — while
// this goroutine reads every peer's frames for exactly the same active
// set, in instance order (TCP is FIFO, peers send in the same order).
// ins[sender][f] receives sender's payload for the f-th frame; the
// caller (fabric.Run) sized ins to the active set. A peer frame whose
// instance or round disagrees with the local schedule is a protocol
// error — the wire-level divergence guard of a multi-process mesh,
// where no runtime can compare the schedules directly.
//
// Received payloads slice into the per-peer read arenas (peer.readFrame)
// and are valid only until the next exchangeTick: consumers up the stack
// (fabric.Run → sim.Mux.Deliver → the instances' DeliverRound) must use
// or copy them within the tick, which the sim.Processor contract already
// requires.
func (nd *Node) exchangeTick(wp *writerPool, tick int, frames []sim.MuxFrame, ins [][][]byte) error {
	// Self-delivery is direct; the writers push to the peers while the
	// read closure below collects from them (writerPool.exchange).
	self := ins[nd.id]
	for f, fr := range frames {
		if fr.Outbox != nil {
			self[f] = fr.Outbox[nd.id]
		} else {
			self[f] = nil
		}
	}
	return wp.exchange(tick, frames, func() error {
		for id, p := range nd.peers {
			if id == nd.id {
				continue
			}
			got := ins[id]
			p.beginTick()
			for f, fr := range frames {
				instance, round, payload, err := p.readFrame()
				if err != nil {
					return fmt.Errorf("transport: tick %d: recv from %d: %w", tick, id, err)
				}
				if instance != fr.Instance || round != fr.Round {
					return fmt.Errorf("transport: peer %d sent frame (instance %d, round %d), want (instance %d, round %d)", id, instance, round, fr.Instance, fr.Round)
				}
				got[f] = payload
			}
		}
		return nil
	})
}
