// Package transport runs the synchronous protocols over a real TCP mesh.
//
// The in-process fabrics keep every node inside one process; this package
// provides the deployment story: every node is a Node owning a TCP
// listener, fully connected to its peers, exchanging one frame per peer per
// active instance per tick. The synchronous model of the paper's Section 2
// is realized as a lockstep barrier — a node finishes tick r only after it
// holds the tick-r frames of every peer — which is exactly the classical
// emulation of a synchronous network on reliable FIFO channels. Byzantine
// behavior stays at the payload layer (the same adversary wrappers work
// unchanged); the transport itself is reliable, as the model requires.
//
// Frames are length-prefixed on persistent connections:
//
//	uvarint(instance) uvarint(round) uvarint(len+1) payload...   // len+1 = 0 encodes "no message"
//
// The instance field lets one mesh carry a whole pipeline of concurrent
// agreement instances (see Mesh and sim.Mux — fabric.Run drives every
// schedule over the mesh); a single-shot run (fabric.RunRounds) is
// instance 0. Each ordered pair of nodes uses one direction of a
// dedicated connection, so per-destination (two-faced) payloads work
// naturally.
package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"time"
)

// defaultDialRetry caps how long a node keeps retrying a peer's listener
// at startup (peers may come up in any order); WithDialRetry overrides it.
const defaultDialRetry = 10 * time.Second

// maxFrame bounds a frame payload (16 MiB), protecting against corrupt
// length prefixes.
const maxFrame = 16 << 20

// defaultReadBuf sizes each connection's bufio read buffer; a tick's worth
// of frames usually fits, so the reader drains the socket in few syscalls.
// WithReadBufferSize overrides it.
const defaultReadBuf = 64 << 10

// minReadArena is the smallest read-arena block a peer allocates; typical
// ticks fit in one block, so steady state performs no allocation at all.
const minReadArena = 4 << 10

// Node is one endpoint of the mesh: a listener plus one connection per
// peer. It only moves frames; the schedule lives with the fabric runtime
// that drives it (NewMesh, JoinMesh).
type Node struct {
	id        int
	n         int
	ln        net.Listener
	peers     []*peer // indexed by peer id; nil at self
	dialRetry time.Duration
	sockBuf   int
	readBuf   int
}

// Option configures a Node.
type Option func(*Node)

// WithDialRetry sets how long Connect keeps retrying an unreachable peer
// listener before giving up (default 10s). Tests and fast-failing
// deployments use a short window instead of inheriting the fixed default.
func WithDialRetry(d time.Duration) Option {
	return func(nd *Node) { nd.dialRetry = d }
}

// WithWriteBufferSize clamps every peer connection's kernel send buffer
// (SO_SNDBUF) to the given byte count (0 keeps the OS default). Tests use
// tiny send buffers to reproduce back-pressure regimes — per-tick
// payloads larger than the kernel can absorb — without gigabyte
// payloads; the OS may round the value up to its floor. The receive
// buffer is left alone: shrinking SO_RCVBUF after the TCP window scale
// is negotiated can wedge a live connection at the kernel level.
func WithWriteBufferSize(bytes int) Option {
	return func(nd *Node) { nd.sockBuf = bytes }
}

// WithReadBufferSize sets each peer connection's user-space read buffer
// (the bufio layer between the socket and the frame decoder; default
// 64 KiB, 0 keeps the default). It pairs with WithWriteBufferSize for
// back-pressure tests: a tiny read buffer forces the decoder back to the
// socket every few bytes, exercising the overlapped send/receive halves
// at maximum interleaving. The kernel receive buffer (SO_RCVBUF) is
// deliberately not touched — see WithWriteBufferSize.
func WithReadBufferSize(bytes int) Option {
	return func(nd *Node) { nd.readBuf = bytes }
}

// appendFrame appends one encoded frame to dst and returns it: the wire
// format is uvarint(instance) uvarint(round) uvarint(len+1) payload,
// where len+1 = 0 encodes a nil payload. The mesh hot path never builds
// frames contiguously — meshWriter.send hands headers and payloads to
// writev separately — but the encoding is the single source of truth for
// tests and any future non-vectored writer.
func appendFrame(dst []byte, instance, round int, payload []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(instance))
	dst = binary.AppendUvarint(dst, uint64(round))
	ln := uint64(0)
	if payload != nil {
		ln = uint64(len(payload)) + 1
	}
	dst = binary.AppendUvarint(dst, ln)
	return append(dst, payload...)
}

// peer is one bidirectional link. Inbound payloads are sliced out of a
// grow-only read arena whose lifetime is one tick (beginTick resets it),
// so the receive hot path performs no per-frame allocation; see the
// "Wire hot path" section of the package comment in doc.go.
type peer struct {
	conn  net.Conn
	r     *bufio.Reader
	arena []byte // current read-arena block
	off   int    // bytes of arena handed out this tick
}

// beginTick resets the peer's read arena: every payload readFrame returned
// before this call is dead. Callers (the per-tick read loops) invoke it
// once per peer per tick, which is exactly the ownership contract the
// stack above guarantees — payloads are consumed or copied before the
// next tick begins.
func (p *peer) beginTick() { p.off = 0 }

// readFrame reads one frame. The payload slices into the peer's read
// arena and is valid only until the peer's next beginTick. When a tick
// outgrows the current block, a fresh larger block is installed without
// copying — payloads already handed out keep referencing the old block,
// which stays alive (and untouched) until they die with the tick.
func (p *peer) readFrame() (instance, round int, payload []byte, err error) {
	iu, err := binary.ReadUvarint(p.r)
	if err != nil {
		return 0, 0, nil, err
	}
	ru, err := binary.ReadUvarint(p.r)
	if err != nil {
		return 0, 0, nil, err
	}
	ln, err := binary.ReadUvarint(p.r)
	if err != nil {
		return 0, 0, nil, err
	}
	if ln == 0 {
		return int(iu), int(ru), nil, nil
	}
	size := int(ln - 1)
	if ln-1 > maxFrame {
		return 0, 0, nil, fmt.Errorf("frame of %d bytes exceeds limit", ln-1)
	}
	if p.off+size > len(p.arena) {
		grow := 2 * len(p.arena)
		if grow < minReadArena {
			grow = minReadArena
		}
		if grow < size {
			grow = size
		}
		p.arena = make([]byte, grow)
		p.off = 0
	}
	payload = p.arena[p.off : p.off+size : p.off+size]
	p.off += size
	if _, err := io.ReadFull(p.r, payload); err != nil {
		return 0, 0, nil, err
	}
	return int(iu), int(ru), payload, nil
}

// ListenNode opens mesh node id of an n-node cluster on addr (e.g.
// "127.0.0.1:9001"; port 0 picks an ephemeral one). The returned node
// must Connect before a fabric drives it (JoinMesh).
func ListenNode(id, n int, addr string, opts ...Option) (*Node, error) {
	if id < 0 || id >= n || n < 2 || n > 255 {
		return nil, fmt.Errorf("transport: bad id/n: %d/%d", id, n)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	nd := &Node{id: id, n: n, ln: ln, peers: make([]*peer, n), dialRetry: defaultDialRetry}
	for _, opt := range opts {
		opt(nd)
	}
	return nd, nil
}

// Addr returns the listener's address (useful with ":0" ephemeral ports).
func (nd *Node) Addr() string { return nd.ln.Addr().String() }

// Connect establishes the full mesh: this node dials every peer with a
// smaller id and accepts connections from every peer with a larger id.
// addrs[i] is peer i's listen address (addrs[nd.id] is ignored).
func (nd *Node) Connect(addrs []string) error {
	if len(addrs) != nd.n {
		return fmt.Errorf("transport: %d addrs for %d nodes", len(addrs), nd.n)
	}
	errc := make(chan error, 1)

	// Accept side: peers with larger ids dial us; the first byte of a
	// connection is the dialer's id.
	expect := nd.n - 1 - nd.id
	go func() {
		for i := 0; i < expect; i++ {
			conn, err := nd.ln.Accept()
			if err != nil {
				errc <- fmt.Errorf("transport: accept: %w", err)
				return
			}
			var idb [1]byte
			if _, err := io.ReadFull(conn, idb[:]); err != nil {
				errc <- fmt.Errorf("transport: handshake read: %w", err)
				return
			}
			id := int(idb[0])
			if id <= nd.id || id >= nd.n || nd.peers[id] != nil {
				errc <- fmt.Errorf("transport: bad handshake id %d at node %d", id, nd.id)
				return
			}
			nd.peers[id] = nd.newPeer(conn)
		}
		errc <- nil
	}()

	// Dial side: we dial peers with smaller ids, announcing our id.
	for id := 0; id < nd.id; id++ {
		conn, err := dialWithRetry(addrs[id], nd.dialRetry)
		if err != nil {
			return fmt.Errorf("transport: dial peer %d: %w", id, err)
		}
		if _, err := conn.Write([]byte{byte(nd.id)}); err != nil {
			return fmt.Errorf("transport: handshake write to %d: %w", id, err)
		}
		nd.peers[id] = nd.newPeer(conn)
	}
	return <-errc
}

func (nd *Node) newPeer(conn net.Conn) *peer {
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true) // round latency matters more than throughput
		if nd.sockBuf > 0 {
			_ = tc.SetWriteBuffer(nd.sockBuf)
		}
	}
	readBuf := nd.readBuf
	if readBuf <= 0 {
		readBuf = defaultReadBuf
	}
	return &peer{conn: conn, r: bufio.NewReaderSize(conn, readBuf)}
}

func dialWithRetry(addr string, retry time.Duration) (net.Conn, error) {
	deadline := time.Now().Add(retry) //gearsvet:allow wall-clock dial-retry deadline during connection setup, before the deterministic schedule starts
	timeout := time.Second
	if timeout > retry {
		timeout = retry
	}
	// A non-positive per-attempt timeout would mean "no timeout" to
	// net.DialTimeout; clamp so tiny retry windows still fail fast.
	if timeout < 50*time.Millisecond {
		timeout = 50 * time.Millisecond
	}
	for {
		conn, err := net.DialTimeout("tcp", addr, timeout)
		if err == nil {
			return conn, nil
		}
		if time.Now().After(deadline) { //gearsvet:allow wall-clock retry-window check during connection setup, off the deterministic schedule
			return nil, err
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// Close shuts down the listener and all connections.
func (nd *Node) Close() error {
	err := nd.ln.Close()
	for _, p := range nd.peers {
		if p != nil {
			if cerr := p.conn.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}
	}
	return err
}
