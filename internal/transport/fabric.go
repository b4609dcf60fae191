package transport

import (
	"fmt"
	"sync"

	"shiftgears/internal/fabric"
	"shiftgears/internal/sim"
)

// Mesh adapts TCP mesh nodes to the fabric exchange contract, so the
// single drive loop (fabric.Run) pipelines multiplexed schedules over
// real sockets. Two shapes:
//
//   - NewMesh hosts every node of the cluster in one process over
//     loopback — the test/benchmark/single-host deployment.
//   - JoinMesh hosts one already-connected node — the multi-process
//     deployment (cmd/logserver), every replica its own OS process,
//     each process running fabric.Run over its own single-node Mesh.
//
// Each hosted node exchanges its tick through a persistent goroutine, so
// writer fan-out and peer reads overlap across nodes; the first node to
// fail tears every hosted node's connections down, so no sibling is left
// blocked in the lockstep barrier.
type Mesh struct {
	n     int
	local []int
	nodes []*Node
	pools []*writerPool
	reqs  []chan meshTick
	acks  []chan error

	closeOnce sync.Once
	failOnce  sync.Once
	failErr   error
}

var _ fabric.Fabric = (*Mesh)(nil)

// meshTick is one node's share of an Exchange.
type meshTick struct {
	tick   int
	frames []sim.MuxFrame
	ins    [][][]byte
}

// NewMesh listens on ephemeral loopback ports for every node of an
// n-node cluster and connects the full mesh.
func NewMesh(n int, opts ...Option) (*Mesh, error) {
	nodes := make([]*Node, n)
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		node, err := ListenNode(i, n, "127.0.0.1:0", opts...)
		if err != nil {
			closeNodes(nodes)
			return nil, err
		}
		nodes[i] = node
		addrs[i] = node.Addr()
	}
	if err := connectAll(nodes, addrs); err != nil {
		closeNodes(nodes)
		return nil, err
	}
	return newMesh(nodes), nil
}

// connectAll establishes every node's full mesh concurrently (nodes dial
// smaller ids and accept larger ones, so they must connect in parallel).
func connectAll(nodes []*Node, addrs []string) error {
	var wg sync.WaitGroup
	errs := make([]error, len(nodes))
	for i, node := range nodes {
		wg.Add(1)
		go func(i int, node *Node) {
			defer wg.Done()
			errs[i] = node.Connect(addrs)
		}(i, node)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// JoinMesh hosts one already-connected node (ListenNode, then Connect) —
// this process's share of a multi-process mesh.
func JoinMesh(node *Node) *Mesh {
	return newMesh([]*Node{node})
}

func newMesh(nodes []*Node) *Mesh {
	m := &Mesh{nodes: nodes, n: nodes[0].n}
	m.local = make([]int, len(nodes))
	m.pools = make([]*writerPool, len(nodes))
	m.reqs = make([]chan meshTick, len(nodes))
	m.acks = make([]chan error, len(nodes))
	for k, node := range nodes {
		m.local[k] = node.id
		m.pools[k] = newWriterPool(node)
		m.reqs[k] = make(chan meshTick)
		m.acks[k] = make(chan error, 1)
		go func(k int, node *Node, wp *writerPool) {
			for req := range m.reqs[k] {
				err := node.exchangeTick(wp, req.tick, req.frames, req.ins)
				if err != nil {
					// Tear the whole mesh down before acking: a sibling
					// may be blocked reading a peer this failure already
					// silenced, and only closed connections unblock it.
					m.fail(fmt.Errorf("transport: node %d: %w", node.id, err))
				}
				m.acks[k] <- err
			}
		}(k, node, m.pools[k])
	}
	return m
}

// N implements fabric.Fabric.
func (m *Mesh) N() int { return m.n }

// Local implements fabric.Fabric.
func (m *Mesh) Local() []int { return m.local }

// Exchange implements fabric.Fabric: every hosted node runs its tick
// concurrently (sends to one node's peers overlap its siblings' reads,
// which is what lets a loopback mesh of lockstep nodes make progress at
// all). The first failure wins and is reported once all nodes returned.
func (m *Mesh) Exchange(tick int, outs [][]sim.MuxFrame, ins [][][][]byte) error {
	for k, frames := range outs {
		if frames == nil {
			// A wedged node stops producing frames, but its peers block
			// reading them — a real mesh cannot carry a mute participant.
			return fmt.Errorf("transport: node %d produced no frames for tick %d: %w", m.local[k], tick, fabric.ErrWedged)
		}
	}
	if len(m.nodes) == 1 {
		return m.nodes[0].exchangeTick(m.pools[0], tick, outs[0], ins[0])
	}
	for k := range m.nodes {
		m.reqs[k] <- meshTick{tick: tick, frames: outs[k], ins: ins[k]}
	}
	failed := false
	for k := range m.nodes {
		if err := <-m.acks[k]; err != nil {
			failed = true
		}
	}
	if failed {
		return m.failErr
	}
	return nil
}

// fail records the mesh's first error and severs every hosted node.
func (m *Mesh) fail(err error) {
	m.failOnce.Do(func() {
		m.failErr = err
		closeNodes(m.nodes)
	})
}

// Close implements fabric.Fabric: it stops the exchange goroutines,
// closes the writer pools, and shuts every hosted node down. Safe to
// call twice; must not be called concurrently with Exchange.
func (m *Mesh) Close() error {
	m.closeOnce.Do(func() {
		for _, reqs := range m.reqs {
			close(reqs)
		}
		for _, wp := range m.pools {
			wp.close()
		}
		closeNodes(m.nodes)
	})
	return nil
}

func closeNodes(nodes []*Node) {
	for _, node := range nodes {
		if node != nil {
			_ = node.Close()
		}
	}
}
