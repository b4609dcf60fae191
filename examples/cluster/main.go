// Cluster runs Byzantine agreement over a real loopback TCP mesh — every
// message crosses an actual socket — using the same replicas and the same
// drive loop (fabric.RunRounds) as the in-process engine. For a
// multi-process (or multi-machine) deployment of the same thing, run
// cmd/logserver as a 1-slot log: -slots 1 -window 1 -batch 1.
package main

import (
	"fmt"
	"log"

	"shiftgears"
	"shiftgears/internal/adversary"
	"shiftgears/internal/core"
	"shiftgears/internal/fabric"
	"shiftgears/internal/sim"
	"shiftgears/internal/transport"
)

func main() {
	const (
		n = 13
		t = 4
		b = 3
	)
	plan, err := core.NewPlan(core.Hybrid, n, t, b, 0)
	if err != nil {
		log.Fatal(err)
	}
	env, err := core.NewEnv(plan)
	if err != nil {
		log.Fatal(err)
	}
	strat, err := adversary.New("splitbrain", plan.TotalRounds)
	if err != nil {
		log.Fatal(err)
	}

	faulty := map[int]bool{0: true, 3: true, 6: true, 9: true}
	procs := make([]sim.Processor, n)
	reps := make([]*core.Replica, n)
	for id := 0; id < n; id++ {
		rep, err := core.NewReplica(env, id, shiftgears.Value(1), nil)
		if err != nil {
			log.Fatal(err)
		}
		reps[id] = rep
		if faulty[id] {
			procs[id] = adversary.NewProcessor(rep, strat, 7, n)
		} else {
			procs[id] = rep
		}
	}

	mesh, err := transport.NewMesh(n)
	if err != nil {
		log.Fatal(err)
	}
	defer func() { _ = mesh.Close() }()

	fmt.Printf("running the hybrid algorithm (n=%d, t=%d, b=%d) over %d TCP nodes,\n", n, t, b, n)
	fmt.Printf("with a split-brain source and three colluders...\n\n")
	stats, err := fabric.RunRounds(mesh, procs, plan.TotalRounds)
	if err != nil {
		log.Fatal(err)
	}

	var common shiftgears.Value
	first := true
	agreed := true
	for id, rep := range reps {
		if faulty[id] {
			continue
		}
		v, ok := rep.Decided()
		if !ok {
			log.Fatalf("node %d did not decide", id)
		}
		if first {
			common, first = v, false
		} else if v != common {
			agreed = false
		}
	}
	fmt.Printf("agreement over real sockets: %v (decision %d)\n", agreed, common)
	fmt.Printf("rounds: %d, max message: %dB, cluster-wide traffic: %d messages / %d bytes\n",
		stats.Rounds, stats.MaxPayload, stats.Messages, stats.Bytes)
	fmt.Println("\nSame replicas, same guarantees as the in-process engine — the lockstep")
	fmt.Println("barrier over TCP realizes the paper's synchronous model on real I/O.")
}
